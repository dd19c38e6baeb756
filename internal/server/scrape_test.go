package server_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/multichannel"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

const scrapeChannels = 4

// probedMem builds a striped memory with a MemProbe on every channel,
// the way vpnmd wires it.
func probedMem(t *testing.T) (*multichannel.Memory, *telemetry.Registry) {
	t.Helper()
	cfg := smallCfg()
	reg := telemetry.NewRegistry()
	m, err := multichannel.New(cfg, scrapeChannels, 1, multichannel.WithProbes(func(ch int) telemetry.Probe {
		return telemetry.NewMemProbe(reg, strconv.Itoa(ch), cfg.Banks, cfg.QueueDepth, cfg.Banks*cfg.DelayRows)
	}))
	if err != nil {
		t.Fatal(err)
	}
	return m, reg
}

// scrapeOnce serves one /metricsz request and parses it. A scrape the
// engine never answers fails in seconds instead of hanging the test.
func scrapeOnce(eng *server.Engine, reg *telemetry.Registry) (map[string]float64, error) {
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		w := httptest.NewRecorder()
		eng.MetricsHandler(reg).ServeHTTP(w, httptest.NewRequest("GET", "/metricsz", nil))
		done <- w
	}()
	select {
	case w := <-done:
		return telemetry.ParseText(w.Body)
	case <-time.After(10 * time.Second):
		return nil, errors.New("metricsz scrape never returned: the engine did not answer the publish handshake")
	}
}

func scrape(t *testing.T, eng *server.Engine, reg *telemetry.Registry) map[string]float64 {
	t.Helper()
	parsed, err := scrapeOnce(eng, reg)
	if err != nil {
		t.Fatal(err)
	}
	return parsed
}

// channelSeries reads one per-channel series for every channel.
func channelSeries(parsed map[string]float64, name string) []float64 {
	v := make([]float64, scrapeChannels)
	for ch := range v {
		v[ch] = parsed[name+`{channel="`+strconv.Itoa(ch)+`"}`]
	}
	return v
}

// checkScrape requires one scrape to agree with the engine's settled
// ledger: every channel at the engine's cycle, and the per-channel read
// counters summing to the reads the memory recorded.
func checkScrape(t *testing.T, eng *server.Engine, parsed map[string]float64) {
	t.Helper()
	s := eng.Snapshot()
	var reads float64
	for ch, r := range channelSeries(parsed, "vpnm_reads_total") {
		reads += r
		if c := parsed[`vpnm_cycle{channel="`+strconv.Itoa(ch)+`"}`]; uint64(c) != s.Cycle {
			t.Errorf("channel %d vpnm_cycle = %.0f, engine at cycle %d", ch, c, s.Cycle)
		}
	}
	if uint64(reads) != s.MemReads || s.MemReads == 0 {
		t.Errorf("per-channel reads sum to %.0f, memory recorded %d", reads, s.MemReads)
	}
}

// serveSome runs a few reads to completion so the counters are nonzero,
// leaving the engine parked.
func serveSome(t *testing.T, eng *server.Engine) {
	t.Helper()
	h := newHarness(t, eng)
	const reads = 64
	for seq := uint64(0); seq < reads; seq++ {
		h.send(wire.Request{Op: wire.OpRead, Seq: seq, Addr: seq * 7})
	}
	h.send(wire.Request{Op: wire.OpFlush, Seq: reads})
	h.awaitReply(reads)
}

// TestScrapeParkedEngine: a scrape must be answered in every state the
// engine can sit in without stepping — parked free-running, parked in
// Lockstep between frames, drained, and closed (where the handler
// publishes itself) — and must show the settled ledger.
func TestScrapeParkedEngine(t *testing.T) {
	for _, tc := range []struct {
		name     string
		lockstep bool
		settle   func(t *testing.T, eng *server.Engine)
	}{
		{name: "free-running"},
		{name: "lockstep", lockstep: true},
		{name: "draining", settle: func(t *testing.T, eng *server.Engine) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if _, err := eng.Drain(ctx); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "closed", settle: func(_ *testing.T, eng *server.Engine) { eng.Close() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem, reg := probedMem(t)
			eng, err := server.New(server.Config{Mem: mem, Lockstep: tc.lockstep})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			serveSome(t, eng)
			if tc.settle != nil {
				tc.settle(t, eng)
			}
			await(t, eng, "the pipeline to settle", func(s server.Snapshot) bool { return s.Outstanding == 0 })
			for i := 0; i < 3; i++ { // repeated scrapes of one parked engine
				checkScrape(t, eng, scrape(t, eng, reg))
			}
		})
	}
}

// TestScrapeHammer scrapes from several goroutines while the engine runs
// flat out. Run under -race it proves the handshake keeps every read of
// controller state on the engine goroutine. Every scrape must show one
// vpnm_cycle on all channels (they are published together at one step
// boundary), and each goroutine's successive scrapes must never see a
// counter or the clock go backwards.
func TestScrapeHammer(t *testing.T) {
	mem, reg := probedMem(t)
	eng, err := server.New(server.Config{Mem: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	h := newHarness(t, eng)

	var stop atomic.Bool
	var scrapes atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := map[string][]float64{}
			for !stop.Load() {
				parsed, err := scrapeOnce(eng, reg)
				if err != nil {
					t.Error(err)
					return
				}
				cycles := channelSeries(parsed, "vpnm_cycle")
				for ch, c := range cycles {
					if c != cycles[0] {
						t.Errorf("one scrape saw channel %d at cycle %.0f, channel 0 at %.0f", ch, c, cycles[0])
						return
					}
				}
				for _, name := range []string{"vpnm_cycle", "vpnm_reads_total", "vpnm_replays_total", "vpnm_occupancy_rows_count"} {
					now := channelSeries(parsed, name)
					for ch := range now {
						if prev := last[name]; prev != nil && now[ch] < prev[ch] {
							t.Errorf("%s channel %d went backwards: %.0f after %.0f", name, ch, now[ch], prev[ch])
							return
						}
					}
					last[name] = now
				}
				scrapes.Add(1)
			}
		}()
	}

	const reads = 3000
	for seq := uint64(0); seq < reads; seq++ {
		h.send(wire.Request{Op: wire.OpRead, Seq: seq, Addr: seq % 512})
		if seq%64 == 63 {
			h.awaitComp(seq - 32) // keep the pipe drained
		}
	}
	h.send(wire.Request{Op: wire.OpFlush, Seq: reads})
	h.awaitReply(reads)
	stop.Store(true)
	wg.Wait()
	if scrapes.Load() == 0 {
		t.Fatal("scrape hammer never ran")
	}
	checkScrape(t, eng, scrape(t, eng, reg))
}
