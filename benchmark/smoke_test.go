package main

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/multichannel"
	"repro/internal/server"
)

// startEngine serves an in-process engine, built like the daemon w's
// flags would build it, on a TCP loopback listener.
func startEngine(t *testing.T, w workload) (addr string, eng *server.Engine) {
	t.Helper()
	cfg, err := controllerConfig(w)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := multichannel.New(cfg, daemonChannels, daemonSeed)
	if err != nil {
		t.Fatal(err)
	}
	eng, err = server.New(server.Config{Mem: mem, OOO: w.ooo})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- eng.Serve(ln) }()
	t.Cleanup(func() {
		eng.Close()
		<-served
		mem.Close()
	})
	return ln.Addr().String(), eng
}

// driveBriefly runs w's shape — warm-up, then 200 ms timed — against an
// in-process engine and returns the gate's ledger.
func driveBriefly(t *testing.T, w workload, expectD uint64) (ledger, phase, *checker) {
	t.Helper()
	const seed = 42
	addr, eng := startEngine(t, w)
	c, err := client.Dial(addr, client.Config{Window: w.window, MaxBatch: w.batch})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if expectD == 0 {
		expectD = st.Delay
	}
	s := &session{c: c, w: w, seed: seed, chk: newChecker(seed, expectD, w.window)}
	warm, err := s.warmup(ctx, newGenerator(w, seed, streamWarmup), 4096)
	if err != nil {
		t.Fatal(err)
	}
	timed, err := s.timed(ctx, newGenerator(w, seed, streamTimed), 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	led := newLedger(warm.attempted+timed.attempted, 0, c.Counters(), s.chk, st.Delay, eng.Snapshot())
	return led, timed, s.chk
}

func TestSmokeEveryWorkloadShape(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			led, timed, chk := driveBriefly(t, w, 0)
			if ps := led.problems(); len(ps) != 0 {
				t.Errorf("gate failed: %s\nledger %+v", strings.Join(ps, "; "), led)
			}
			if led.failed() != 0 {
				t.Errorf("%d failures", led.failed())
			}
			if timed.attempted == 0 || led.Client.Completions == 0 {
				t.Fatalf("nothing ran: %+v", led)
			}
			if w.writeFrac > 0 && led.Client.AcceptedWrites == 0 {
				t.Error("a write workload accepted no writes")
			}
			// One read in sampleEvery carries a latency stamp.
			reads := led.Client.Reads
			if n := uint64(len(chk.latNs)); n < reads/sampleEvery || n > reads/sampleEvery+1 {
				t.Errorf("%d latency samples for %d reads, want 1 in %d", n, reads, sampleEvery)
			}
			if w.openRate > 0 {
				wantSlots := int(200 * time.Millisecond / openSlot)
				if len(timed.lagsNs) != wantSlots || timed.attempted != uint64(wantSlots*w.openRate/1000) {
					t.Errorf("open loop: %d slots, %d requests; want %d slots of %d",
						len(timed.lagsNs), timed.attempted, wantSlots, w.openRate/1000)
				}
			} else if len(timed.lagsNs) != 0 {
				t.Error("a closed loop recorded scheduling lag")
			}
		})
	}
}

// Asserting the wrong D must fail the gate: the check is live.
func TestSmokeWrongDFailsGate(t *testing.T) {
	led, _, _ := driveBriefly(t, workloads[0], 1000)
	ps := strings.Join(led.problems(), "; ")
	if !strings.Contains(ps, "DeliveredAt-IssuedAt != 1000") || !strings.Contains(ps, "expected 1000") {
		t.Errorf("a wrong expected D passed the gate: %q", ps)
	}
	if led.failed() == 0 {
		t.Error("wrong-D reads were not counted as failed")
	}
}

// The same seed must generate the same requests, a different seed others.
func TestGeneratorIsSeeded(t *testing.T) {
	w := workloads[0]
	a, b, c := newGenerator(w, 5, streamTimed), newGenerator(w, 5, streamTimed), newGenerator(w, 6, streamTimed)
	same, differ := true, false
	for i := 0; i < 1000; i++ {
		ra, rb, rc := a.next(), b.next(), c.next()
		same = same && ra == rb
		differ = differ || ra != rc
		if ra.addr >= w.addrSpace {
			t.Fatalf("address %#x outside the workload's space", ra.addr)
		}
	}
	if !same || !differ {
		t.Errorf("same seed same requests: %v; other seed other requests: %v", same, differ)
	}
}

// The ladder's simulated counts are a pure function of the requests, and
// every rung records spans for its layer.
func TestLadderIsDeterministicAndCoversEveryLayer(t *testing.T) {
	for _, w := range []workload{workloads[1], workloads[2]} { // coded+ooo, and in-order with writes
		reqs := make([]request, 8192)
		g := newGenerator(w, 3, streamTimed)
		for i := range reqs {
			reqs[i] = g.next()
		}
		ctx := context.Background()
		var tf traceFile
		traced, err := runLadder(ctx, w, 3, reqs, true, &tf)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		plain, err := runLadder(ctx, w, 3, reqs, false, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if traced.mcCycles != plain.mcCycles || traced.pipeCycles != plain.pipeCycles ||
			traced.mcCycles == 0 || traced.pipeCycles == 0 {
			t.Errorf("%s: cycles differ between passes: multichannel %d vs %d, pipe %d vs %d",
				w.name, traced.mcCycles, plain.mcCycles, traced.pipeCycles, plain.pipeCycles)
		}
		layers := make(map[string]bool)
		for _, ev := range tf.events {
			if ev.Ph == "X" {
				layers[ev.Cat] = true
			}
		}
		for _, l := range []string{"hash", "core", "multichannel", "wire", "server", "client"} {
			if !layers[l] {
				t.Errorf("%s: no span from layer %s", w.name, l)
			}
		}
		if w.ooo && traced.mc[kMcSweep].count == 0 {
			t.Errorf("%s: an -ooo workload recorded no Stage.Sweep span", w.name)
		}
		if plain.hash != nil || plain.wall() <= 0 {
			t.Errorf("%s: the untraced pass recorded spans or no time", w.name)
		}
	}
}
