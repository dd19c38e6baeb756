package telemetry

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestHistogramEdgeCases(t *testing.T) {
	h := NewHistogram([]uint64{5, 10, 20})

	// Below the first bound: le semantics put it in bucket 0 (v <= 5).
	h.Observe(0)
	// Exactly on each boundary: inclusive, so the matching bucket.
	h.Observe(5)
	h.Observe(10)
	h.Observe(20)
	// Between bounds.
	h.Observe(7)
	// Above the last bound: +Inf overflow bucket.
	h.Observe(21)
	h.Observe(1 << 40)

	s := h.Snapshot()
	want := []uint64{2, 2, 1, 2} // le=5, le=10, le=20, +Inf
	if len(s.Counts) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(s.Counts), len(want))
	}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket[%d] = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != 7 {
		t.Errorf("Count = %d, want 7", s.Count)
	}
	wantSum := uint64(0 + 5 + 10 + 20 + 7 + 21 + (1 << 40))
	if s.Sum != wantSum {
		t.Errorf("Sum = %d, want %d", s.Sum, wantSum)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(LinearBounds(10, 10, 10)) // 10..100
	for v := uint64(1); v <= 100; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if got := s.Quantile(0.5); got != 50 {
		t.Errorf("p50 = %d, want 50", got)
	}
	if got := s.Quantile(0.99); got != 100 {
		t.Errorf("p99 = %d, want 100", got)
	}
	if got := s.Quantile(1.0); got != 100 {
		t.Errorf("p100 = %d, want 100", got)
	}
	if got := (HistogramSnapshot{Bounds: []uint64{1}, Counts: []uint64{0, 0}}).Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %d, want 0", got)
	}
}

// TestTallyMatchesRepeatedObserve pins the weighted observation an idle
// span makes: a flushed tally.observe(v, n) leaves exactly the state of
// n Observe(v) calls, on unit bounds (the direct bucket path) and on
// spaced ones.
func TestTallyMatchesRepeatedObserve(t *testing.T) {
	for _, bounds := range [][]uint64{{0, 1, 2}, {2, 4}} {
		one, weighted := NewHistogram(bounds), NewHistogram(bounds)
		tl := newTally(weighted)
		for _, v := range []uint64{0, 1, 3, 3, 9} {
			for i := 0; i < 5; i++ {
				one.Observe(v)
			}
			tl.observe(v, 5)
		}
		tl.flush()
		if a, b := one.Snapshot(), weighted.Snapshot(); !reflect.DeepEqual(a, b) {
			t.Fatalf("bounds %v: tally snapshot %+v, repeated Observe %+v", bounds, b, a)
		}
	}
}

// TestHistogramSnapshotDuringUpdate hammers Observe from several
// goroutines while snapshotting: run under -race this proves the
// histogram is race-clean, and each snapshot must be internally sane
// (Count is the sum of the buckets the snapshot read).
func TestHistogramSnapshotDuringUpdate(t *testing.T) {
	h := NewHistogram(LinearBounds(0, 1, 8))
	const writers, perWriter = 4, 5000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe((seed + uint64(i)) % 10)
			}
		}(uint64(w))
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for snaps := 0; ; snaps++ {
		s := h.Snapshot()
		var bucketSum uint64
		for _, c := range s.Counts {
			bucketSum += c
		}
		if bucketSum < s.Count {
			t.Fatalf("snapshot %d: bucket sum %d behind Count %d", snaps, bucketSum, s.Count)
		}
		select {
		case <-done:
			s := h.Snapshot()
			if s.Count != writers*perWriter {
				t.Fatalf("final Count = %d, want %d", s.Count, writers*perWriter)
			}
			return
		default:
		}
	}
}

func TestHistogramBoundsValidation(t *testing.T) {
	for _, bounds := range [][]uint64{nil, {}, {5, 5}, {5, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestExponentialBoundsStrictlyIncreasing(t *testing.T) {
	b := ExponentialBounds(1, 1.3, 12)
	if len(b) != 12 {
		t.Fatalf("len = %d, want 12", len(b))
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not strictly increasing at %d: %v", i, b)
		}
	}
}

func TestRegistryTextFormatRoundTrip(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("vpnm_reads_total", "Accepted reads.", "channel", "0")
	c.Add(42)
	g := reg.Gauge("vpnm_queue_depth", "Queue occupancy.", "channel", "0")
	g.Set(7)
	reg.GaugeFunc("vpnm_mts_estimate_cycles", "Live MTS.", func() float64 { return 1.5e6 },
		"channel", "0", "method", "excursion")
	h := reg.Histogram("vpnm_occupancy_rows", "Occupancy.", []uint64{4, 8}, "channel", "0")
	h.Observe(3)
	h.Observe(8)
	h.Observe(100)

	var buf bytes.Buffer
	if _, err := reg.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	text := buf.String()
	for _, want := range []string{
		"# HELP vpnm_reads_total Accepted reads.",
		"# TYPE vpnm_reads_total counter",
		`vpnm_reads_total{channel="0"} 42`,
		`vpnm_queue_depth{channel="0"} 7`,
		"# TYPE vpnm_occupancy_rows histogram",
		`vpnm_occupancy_rows_bucket{channel="0",le="4"} 1`,
		`vpnm_occupancy_rows_bucket{channel="0",le="8"} 2`,
		`vpnm_occupancy_rows_bucket{channel="0",le="+Inf"} 3`,
		`vpnm_occupancy_rows_sum{channel="0"} 111`,
		`vpnm_occupancy_rows_count{channel="0"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}

	parsed, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseText rejected our own exposition: %v", err)
	}
	checks := map[string]float64{
		`vpnm_reads_total{channel="0"}`:                            42,
		`vpnm_queue_depth{channel="0"}`:                            7,
		`vpnm_mts_estimate_cycles{channel="0",method="excursion"}`: 1.5e6,
		`vpnm_occupancy_rows_bucket{channel="0",le="+Inf"}`:        3,
		`vpnm_occupancy_rows_count{channel="0"}`:                   3,
	}
	for _, key := range sortedSeriesKeys(parsed) {
		if want, ok := checks[key]; ok && parsed[key] != want {
			t.Errorf("parsed[%s] = %g, want %g", key, parsed[key], want)
		}
	}
	for key := range checks {
		if _, ok := parsed[key]; !ok {
			t.Errorf("parsed exposition missing series %s", key)
		}
	}
}

func TestParseTextRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"vpnm_reads_total",            // no value
		"vpnm_reads_total notanumber", // bad value
		`vpnm_x{channel="0" 3`,        // unterminated labels
		"9leading_digit 1",            // invalid name
		"dup 1\ndup 2",                // duplicate series
		`vpnm-dash{channel="0"} 1`,    // invalid char in name
	} {
		if _, err := ParseText(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseText(%q) accepted malformed input", bad)
		}
	}
}

func TestRegistryPanicsOnMisuse(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	reg := NewRegistry()
	reg.Counter("a_total", "help", "channel", "0")
	mustPanic("duplicate series", func() { reg.Counter("a_total", "help", "channel", "0") })
	mustPanic("kind mismatch", func() { reg.Gauge("a_total", "help", "channel", "1") })
	mustPanic("odd labels", func() { reg.Counter("b_total", "help", "channel") })
	// Same family, distinct labels: fine.
	reg.Counter("a_total", "help", "channel", "1")
}

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Errorf("counter = %d, want 5", c.Load())
	}
	c.Store(100)
	if c.Load() != 100 {
		t.Errorf("counter after Store = %d, want 100", c.Load())
	}
	var g Gauge
	g.Set(-3)
	g.Add(5)
	if g.Load() != 2 {
		t.Errorf("gauge = %d, want 2", g.Load())
	}
}

func TestObserveAllocationFree(t *testing.T) {
	h := NewHistogram(LinearBounds(0, 4, 16))
	var c Counter
	var g Gauge
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(17)
		c.Inc()
		g.Set(9)
	})
	if allocs != 0 {
		t.Fatalf("metric updates allocate %v allocs/op, want 0", allocs)
	}
}
