package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

// TestMemProbeObserveTick feeds a probe weighted per-cycle samples and
// one published ledger, then checks the rendered exposition: gauges and
// counters carry the ledger, histograms and the estimator carry every
// observed cycle at its weight.
func TestMemProbeObserveTick(t *testing.T) {
	reg := NewRegistry()
	p := NewMemProbe(reg, "0", 4, 8, 32)
	p.EnableCoded(reg, "0", 2)
	est := NewMTSEstimator(8)
	p.AttachEstimator(reg, est, "0")

	p.ObserveTick(&TickSample{Cycle: 90, Cycles: 1, MaxBankQueue: 3, DelayRowsInUse: 7, CodedGrants: 2})
	p.ObserveTick(&TickSample{Cycle: 99, Cycles: 9, MaxBankQueue: 0, DelayRowsInUse: 5})
	l := &Ledger{
		Cycle:          99,
		QueueDepth:     5,
		DelayRowsInUse: 7,
		WriteBufInUse:  2,
		PerBankQueue:   []int32{3, 2, 0, 0},
		PerBankRows:    []int32{4, 2, 1, 0},
		Reads:          100,
		Writes:         20,
		MergedReads:    11,
		Replays:        90,
		CodedDecodes:   6,
		CodedRMWReads:  4,
	}
	l.Stalls[CauseBankQueue] = 3
	l.Stalls[CauseDelayBuffer] = 1
	p.Publish(l)

	var buf bytes.Buffer
	if _, err := reg.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	parsed, err := ParseText(&buf)
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}
	for key, want := range map[string]float64{
		`vpnm_cycle{channel="0"}`:                              99,
		`vpnm_queue_depth{channel="0"}`:                        5,
		`vpnm_delay_rows_in_use{channel="0"}`:                  7,
		`vpnm_write_buffer_in_use{channel="0"}`:                2,
		`vpnm_reads_total{channel="0"}`:                        100,
		`vpnm_writes_total{channel="0"}`:                       20,
		`vpnm_merged_reads_total{channel="0"}`:                 11,
		`vpnm_replays_total{channel="0"}`:                      90,
		`vpnm_stalls_total{channel="0",cause="bank-queue"}`:    3,
		`vpnm_stalls_total{channel="0",cause="delay-buffer"}`:  1,
		`vpnm_stalls_total{channel="0",cause="write-buffer"}`:  0,
		`vpnm_stalls_total{channel="0",cause="counter"}`:       0,
		`vpnm_bank_queue_depth{channel="0",bank="0"}`:          3,
		`vpnm_bank_queue_depth{channel="0",bank="1"}`:          2,
		`vpnm_bank_delay_rows{channel="0",bank="0"}`:           4,
		`vpnm_bank_delay_rows{channel="0",bank="2"}`:           1,
		`vpnm_coded_decodes_total{channel="0"}`:                6,
		`vpnm_coded_rmw_reads_total{channel="0"}`:              4,
		`vpnm_occupancy_rows_count{channel="0"}`:               10,
		`vpnm_occupancy_rows_sum{channel="0"}`:                 7 + 9*5,
		`vpnm_max_bank_queue_depth_count{channel="0"}`:         10,
		`vpnm_max_bank_queue_depth_bucket{channel="0",le="0"}`: 9,
		`vpnm_coded_grants_per_cycle_sum{channel="0"}`:         2,
		`vpnm_coded_grants_per_cycle_count{channel="0"}`:       10,
	} {
		got, ok := parsed[key]
		if !ok {
			t.Errorf("exposition missing series %s", key)
			continue
		}
		if got != want {
			t.Errorf("%s = %g, want %g", key, got, want)
		}
	}
	if r := est.Report(); r.Ticks != 10 || r.Requests != 120 || r.Stalls != 4 {
		t.Errorf("estimator ticks/reqs/stalls = %d/%d/%d, want 10/120/4", r.Ticks, r.Requests, r.Stalls)
	}
	// The MTS gauge function renders without panicking.
	var buf2 bytes.Buffer
	if _, err := reg.WriteTo(&buf2); err != nil {
		t.Fatalf("second WriteTo: %v", err)
	}
	if !strings.Contains(buf2.String(), `vpnm_mts_estimate_cycles{channel="0",method="excursion"}`) {
		t.Error("exposition missing the MTS excursion gauge")
	}
}

func TestMemProbeObserveTickAllocationFree(t *testing.T) {
	reg := NewRegistry()
	p := NewMemProbe(reg, "0", 8, 16, 64)
	p.EnableCoded(reg, "0", 2)
	est := NewMTSEstimator(16)
	est.Model(8, 20, 1.3)
	p.AttachEstimator(reg, est, "0")
	s := &TickSample{}
	allocs := testing.AllocsPerRun(1000, func() {
		s.Cycle++
		s.Cycles = 1
		s.MaxBankQueue = int(s.Cycle % 17)
		s.DelayRowsInUse = int(s.Cycle % 70)
		p.ObserveTick(s)
	})
	if allocs != 0 {
		t.Fatalf("ObserveTick allocates %v allocs/op, want 0", allocs)
	}
}

func TestStallCauseStrings(t *testing.T) {
	want := map[StallCause]string{
		CauseDelayBuffer: "delay-buffer",
		CauseBankQueue:   "bank-queue",
		CauseWriteBuffer: "write-buffer",
		CauseCounter:     "counter",
		NumStallCauses:   "other",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), s)
		}
	}
}
