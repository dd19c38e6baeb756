package sim

import (
	"bytes"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TestChaosTelemetryReconciliation is the acceptance trial for the
// telemetry subsystem ("Chaos" in the name keeps it in the make chaos
// smoke): a MemProbe rides a 1,000,000-cycle chaos run under a hot
// workload, RunChaos publishes the final ledger to it, then the
// /metricsz-style Prometheus exposition is rendered, re-parsed, and
// reconciled EXACTLY — counter for counter — against the controller's
// own Stats ledger. The MTS estimator must come out of the same run
// with a finite, positive estimate.
func TestChaosTelemetryReconciliation(t *testing.T) {
	cycles := 1_000_000
	if testing.Short() {
		cycles = 100_000
	}
	reg := telemetry.NewRegistry()
	cfg := core.Config{Banks: 8, QueueDepth: 4, DelayRows: 8, WordBytes: 8, HashSeed: 5}
	filled := cfg
	filled.AccessLatency = core.DefaultAccessLatency
	probe := telemetry.NewMemProbe(reg, "0", cfg.Banks, cfg.QueueDepth, cfg.Banks*cfg.DelayRows)
	est := telemetry.NewMTSEstimator(cfg.QueueDepth)
	est.Model(cfg.Banks, filled.AccessLatency, 1.3)
	probe.AttachEstimator(reg, est, "0")
	cfg.Probe = probe

	res, err := RunChaos(ChaosOptions{
		Cycles: cycles,
		Core:   cfg,
		// Narrow, write-heavy, full-duty load: small geometry plus this
		// pressure guarantees merges and stalls, so every reconciled
		// counter is nonzero.
		Gen: workload.NewUniform(3, 1<<7, 1, 0.3, 8),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		t.Fatalf("chaos run violated invariants:\n%v", res)
	}

	var buf bytes.Buffer
	if _, err := reg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := telemetry.ParseText(&buf)
	if err != nil {
		t.Fatalf("exposition does not parse as Prometheus text: %v", err)
	}

	s := res.Stats
	exact := map[string]uint64{
		`vpnm_reads_total{channel="0"}`:                       s.Reads,
		`vpnm_writes_total{channel="0"}`:                      s.Writes,
		`vpnm_merged_reads_total{channel="0"}`:                s.MergedReads,
		`vpnm_replays_total{channel="0"}`:                     s.Completions,
		`vpnm_stalls_total{channel="0",cause="delay-buffer"}`: s.Stalls.DelayBuffer,
		`vpnm_stalls_total{channel="0",cause="bank-queue"}`:   s.Stalls.BankQueue,
		`vpnm_stalls_total{channel="0",cause="write-buffer"}`: s.Stalls.WriteBuffer,
		`vpnm_stalls_total{channel="0",cause="counter"}`:      s.Stalls.Counter,
		`vpnm_cycle{channel="0"}`:                             s.Cycles,
	}
	for key, want := range exact {
		got, ok := parsed[key]
		if !ok {
			t.Errorf("exposition missing %s", key)
			continue
		}
		if uint64(got) != want {
			t.Errorf("%s = %.0f, want exactly %d", key, got, want)
		}
	}
	// The histograms saw every interface cycle, idle spans at their
	// weight.
	for _, h := range []string{"vpnm_occupancy_rows", "vpnm_max_bank_queue_depth"} {
		if got := parsed[h+`_count{channel="0"}`]; uint64(got) != s.Cycles {
			t.Errorf("%s count = %.0f, want one per cycle (%d)", h, got, s.Cycles)
		}
	}

	// The workload must have been violent enough for the reconciliation
	// to mean something.
	if s.MergedReads == 0 || s.Stalls.Total() == 0 {
		t.Fatalf("chaos load never exercised merges/stalls: %+v", s)
	}

	// The estimator watched a run with real stalls: the excursion
	// estimate must equal cycles-per-stall, finite and sane.
	rep := est.Report()
	if rep.Ticks != s.Cycles {
		t.Errorf("estimator ticks = %d, want %d", rep.Ticks, s.Cycles)
	}
	if rep.Excursion <= 0 || rep.Excursion >= analysis.MTSCap {
		t.Errorf("Excursion = %g, want finite and positive", rep.Excursion)
	}
	if rep.Model <= 0 {
		t.Errorf("Model = %g, want positive", rep.Model)
	}
	wantMTS := float64(s.Cycles) / float64(s.Stalls.Total())
	if rep.Excursion != wantMTS {
		t.Errorf("Excursion = %g, want observed cycles-per-stall %g", rep.Excursion, wantMTS)
	}

	// MTS gauges render as proper series.
	if _, ok := parsed[`vpnm_mts_estimate_cycles{channel="0",method="excursion"}`]; !ok {
		t.Error("exposition missing the excursion MTS gauge")
	}
	if _, ok := parsed[`vpnm_mts_estimate_cycles{channel="0",method="model"}`]; !ok {
		t.Error("exposition missing the model MTS gauge")
	}
}
