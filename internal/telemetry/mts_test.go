package telemetry

import (
	"testing"

	"repro/internal/analysis"
)

func feed(e *MTSEstimator, k int, n int) { e.ObserveN(k, uint64(n)) }

func TestMTSEstimatorStallRate(t *testing.T) {
	e := NewMTSEstimator(8)
	e.ObserveN(2, 1000)
	e.SetLedger(999, 10)
	r := e.Report()
	if r.Ticks != 1000 || r.Stalls != 10 {
		t.Fatalf("ticks/stalls = %d/%d, want 1000/10", r.Ticks, r.Stalls)
	}
	if r.Excursion != 100 {
		t.Fatalf("Excursion = %g, want 100 (cycles per observed stall)", r.Excursion)
	}
}

func TestMTSEstimatorGeometricTail(t *testing.T) {
	// Synthetic geometric occupancy: counts[k] ~ 1e6 * (1/10)^k, never
	// reaching the full level 8. The tail fit should land near
	// 1/P(full) = total / (1e6 * 10^-8) ~ 1.1e8, certainly within an
	// order of magnitude and far below the no-signal cap.
	e := NewMTSEstimator(8)
	n := 1_000_000
	for k := 0; k <= 5; k++ {
		feed(e, k, n)
		n /= 10
	}
	r := e.Report()
	if r.Stalls != 0 {
		t.Fatalf("unexpected stalls: %d", r.Stalls)
	}
	if r.Excursion >= analysis.MTSCap {
		t.Fatalf("Excursion hit the cap; tail fit produced no estimate")
	}
	if r.Excursion < 1e7 || r.Excursion > 1e10 {
		t.Fatalf("Excursion = %g, want ~1e8 (within [1e7, 1e10])", r.Excursion)
	}
}

func TestMTSEstimatorNoSignal(t *testing.T) {
	e := NewMTSEstimator(8)
	feed(e, 0, 100) // backlog never leaves zero: nothing to extrapolate
	if r := e.Report(); r.Excursion != analysis.MTSCap {
		t.Fatalf("Excursion = %g with no signal, want MTSCap", r.Excursion)
	}
}

func TestMTSEstimatorClampsLevel(t *testing.T) {
	e := NewMTSEstimator(4)
	e.ObserveN(100, 1) // above Q: clamps to the full level
	e.ObserveN(-1, 1)  // defensive: clamps to zero
	r := e.Report()
	if r.Ticks != 2 {
		t.Fatalf("Ticks = %d, want 2", r.Ticks)
	}
	// One full-level visit in two cycles: regime 2 gives total/counts[Q].
	if r.Excursion != 2 {
		t.Fatalf("Excursion = %g, want 2 (cycles per full-queue visit)", r.Excursion)
	}
}

func TestMTSEstimatorModel(t *testing.T) {
	e := NewMTSEstimator(8)
	if e.modeled() {
		t.Fatal("estimator modeled before Model was called")
	}
	e.Model(16, 20, 1.3)
	if !e.modeled() {
		t.Fatal("estimator not modeled after Model")
	}
	// Light load, shallow backlog: the chain at the observed rate must
	// produce a positive, capped estimate.
	e.ObserveN(0, 500)
	e.ObserveN(1, 500)
	e.SetLedger(500, 0)
	r := e.Report()
	if r.Model <= 0 || r.Model > analysis.MTSCap {
		t.Fatalf("Model = %g, want in (0, MTSCap]", r.Model)
	}
	// The memo holds until ticks double, then recomputes without error.
	first := r.Model
	e.ObserveN(0, 1500)
	e.ObserveN(1, 1500)
	e.SetLedger(2000, 0)
	r2 := e.Report()
	if r2.Model <= 0 {
		t.Fatalf("recomputed Model = %g, want > 0 (memo refresh; first was %g)", r2.Model, first)
	}
}

func TestMTSEstimatorObserveAllocationFree(t *testing.T) {
	e := NewMTSEstimator(16)
	e.Model(16, 20, 1.3)
	allocs := testing.AllocsPerRun(1000, func() {
		e.ObserveN(3, 7)
	})
	if allocs != 0 {
		t.Fatalf("ObserveN allocates %v allocs/op, want 0", allocs)
	}
}
