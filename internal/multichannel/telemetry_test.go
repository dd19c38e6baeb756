package multichannel

import (
	"bytes"
	"math/rand/v2"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// buildProbed wires one MemProbe per channel into a striped memory.
func buildProbed(t *testing.T, channels int) (*Memory, *telemetry.Registry) {
	t.Helper()
	c := cfg()
	reg := telemetry.NewRegistry()
	m, err := New(c, channels, 42, WithProbes(func(ch int) telemetry.Probe {
		return telemetry.NewMemProbe(reg, strconv.Itoa(ch),
			c.Banks, c.QueueDepth, c.Banks*c.DelayRows)
	}))
	if err != nil {
		t.Fatal(err)
	}
	return m, reg
}

func driveHot(t *testing.T, m *Memory, cycles int) {
	t.Helper()
	rng := rand.New(rand.NewPCG(3, 7))
	data := []byte{5}
	for i := 0; i < cycles; i++ {
		for r := 0; r < m.Channels(); r++ {
			addr := rng.Uint64() & 0x3ff
			if rng.Float64() < 0.25 {
				m.Write(addr, data) //nolint:errcheck // conflicts/stalls are expected
			} else {
				m.Read(addr) //nolint:errcheck // conflicts/stalls are expected
			}
		}
		m.Tick()
	}
}

// TestWithProbesReconciles drives a probed striped memory, publishes,
// and checks every channel's probe counters against that channel's own
// Stats ledger — and the channel gauges and histogram counts against
// the shared clock.
func TestWithProbesReconciles(t *testing.T) {
	const channels = 4
	t.Run("sequential", func(t *testing.T) {
		m, reg := buildProbed(t, channels)
		driveHot(t, m, 5000)
		for m.Outstanding() > 0 { // drain, skipping the idle tails of the wait
			if m.SkipIdle(^uint64(0)) == 0 {
				m.Tick()
			}
		}
		m.PublishProbes()

		var buf bytes.Buffer
		if _, err := reg.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		parsed, err := telemetry.ParseText(&buf)
		if err != nil {
			t.Fatalf("ParseText: %v", err)
		}
		for ch := 0; ch < channels; ch++ {
			s := m.ChannelStats(ch)
			label := strconv.Itoa(ch)
			for key, want := range map[string]uint64{
				`vpnm_cycle{channel="` + label + `"}`:                m.Cycle(),
				`vpnm_reads_total{channel="` + label + `"}`:          s.Reads,
				`vpnm_writes_total{channel="` + label + `"}`:         s.Writes,
				`vpnm_merged_reads_total{channel="` + label + `"}`:   s.MergedReads,
				`vpnm_replays_total{channel="` + label + `"}`:        s.Completions,
				`vpnm_occupancy_rows_count{channel="` + label + `"}`: s.Cycles,
			} {
				got, ok := parsed[key]
				if !ok {
					t.Fatalf("exposition missing %s", key)
				}
				if uint64(got) != want {
					t.Errorf("%s = %g, want %d", key, got, want)
				}
			}
		}
	})
}

// TestWithTracersRecordsAllChannels attaches an EventTrace across
// channels and checks every channel contributed events.
func TestWithTracersRecordsAllChannels(t *testing.T) {
	const channels = 4
	tr := telemetry.NewEventTrace(1 << 16)
	m, err := New(cfg(), channels, 42,
		WithTracers(func(ch int) core.Tracer { return tr.ForChannel(ch) }))
	if err != nil {
		t.Fatal(err)
	}
	tr.Start(0, 0)
	driveHot(t, m, 3000)
	tr.Stop()

	seen := map[int16]bool{}
	for _, ev := range tr.Snapshot() {
		seen[ev.Chan] = true
	}
	for ch := 0; ch < channels; ch++ {
		if !seen[int16(ch)] {
			t.Errorf("channel %d recorded no events", ch)
		}
	}
}
