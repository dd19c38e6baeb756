// Gated benchmark for the telemetry probe: the nil-probe hot path must
// not regress against the pre-telemetry seed (gated at 0 allocs/op and
// pinned comps/cycle), and the probed path quantifies what full
// per-cycle observability costs. Run with
//
//	go test -bench=ProbeOverhead -benchmem
package vpnm_test

import (
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/multichannel"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func benchProbeTick(b *testing.B, probed bool) {
	const channels = 4
	cfg := core.Config{Banks: 16, QueueDepth: 16, DelayRows: 64, WordBytes: 8, HashSeed: 9}
	var opts []multichannel.Option
	if probed {
		reg := telemetry.NewRegistry()
		opts = append(opts, multichannel.WithProbes(func(ch int) telemetry.Probe {
			label := strconv.Itoa(ch)
			p := telemetry.NewMemProbe(reg, label, cfg.Banks, cfg.QueueDepth, cfg.Banks*cfg.DelayRows)
			est := telemetry.NewMTSEstimator(cfg.QueueDepth)
			est.Model(cfg.Banks, core.DefaultAccessLatency, 1.3)
			p.AttachEstimator(reg, est, label)
			return p
		}))
	}
	m, err := multichannel.New(cfg, channels, 21, opts...)
	if err != nil {
		b.Fatal(err)
	}
	// Read-only load: write data slices would mask the probe path's own
	// allocation behaviour.
	gen := workload.NewUniform(5, 0, 1, 0, 8)
	b.ReportAllocs()
	b.ResetTimer()
	var done int
	for i := 0; i < b.N; i++ {
		for j := 0; j < channels; j++ {
			m.Read(gen.Next().Addr) //nolint:errcheck // a stalled slot is just lost offered load
		}
		done += len(m.Tick())
	}
	b.ReportMetric(float64(done)/float64(b.N), "comps/cycle")
}

// BenchmarkProbeOverhead measures a 4-channel tick loop at one offered
// read per channel per cycle with no probe (the seed configuration —
// benchgate fails the build if this regresses) and with a full MemProbe
// plus MTS estimator on every channel. Both paths must hold 0
// allocs/op.
func BenchmarkProbeOverhead(b *testing.B) {
	b.Run("nil-probe", func(b *testing.B) { benchProbeTick(b, false) })
	b.Run("probe", func(b *testing.B) { benchProbeTick(b, true) })
}
