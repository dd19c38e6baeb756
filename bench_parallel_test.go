// Benchmark and guard test for the internal/parallel execution engine:
// the wall-clock speedup of the analysis sweep when fanned across
// cores. Run with
//
//	go test -bench=SweepSpeedup -benchmem
package vpnm_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/hw"
)

func timeSweep(workers int) time.Duration {
	g := hw.DefaultGrid(1.3)
	g.Workers = workers
	start := time.Now()
	pts := hw.Sweep(g)
	d := time.Since(start)
	if len(pts) == 0 {
		panic("empty sweep")
	}
	return d
}

// BenchmarkSweepSpeedup times the full Figure-7 style design sweep
// sequentially and fanned across GOMAXPROCS, reporting the ratio. On a
// single-core box the ratio sits near 1.0 (pool overhead only); the
// ≥2× claim is asserted by TestSweepSpeedup on ≥4-core machines.
func BenchmarkSweepSpeedup(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		seq := timeSweep(1)
		par := timeSweep(0)
		speedup = float64(seq) / float64(par)
	}
	b.ReportMetric(speedup, "speedup-x")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
}

// TestSweepSpeedup asserts the headline parallelism claim: with at
// least 4 cores the analysis sweep runs ≥2× faster fanned out than
// sequential. Below 4 cores there is nothing to fan across, so the
// test skips rather than measure noise.
func TestSweepSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if p := runtime.GOMAXPROCS(0); p < 4 {
		t.Skipf("GOMAXPROCS=%d: need >=4 cores for the 2x speedup claim", p)
	}
	// Best of 3 to shake scheduler noise; the sweep itself is
	// deterministic so only the timing varies.
	best := 0.0
	for i := 0; i < 3; i++ {
		seq := timeSweep(1)
		par := timeSweep(0)
		if s := float64(seq) / float64(par); s > best {
			best = s
		}
	}
	if best < 2 {
		t.Fatalf("parallel sweep speedup %.2fx, want >=2x at GOMAXPROCS=%d", best, runtime.GOMAXPROCS(0))
	}
}
