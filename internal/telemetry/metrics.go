// Package telemetry is the observability layer of the VPNM
// reproduction: an allocation-free metrics core (counters, gauges and
// fixed-bucket histograms safe to update from the clock-owning
// goroutine), a Probe interface the controller publishes its per-cycle
// state through, a cycle-stamped event tracer that dumps Chrome
// trace_event JSON, and a live Mean-Time-to-Stall estimator that feeds
// observed occupancy excursions into internal/analysis.
//
// The package deliberately depends on nothing but the standard library
// and internal/analysis, so internal/core can import it without cycles.
// Every update path — Counter.Add, Gauge.Set, Histogram.Observe,
// MemProbe.ObserveTick, EventTrace recording — is allocation-free once
// constructed; the alloc tests and the gated BenchmarkProbeOverhead pin
// this.
package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonic counter. The zero value is ready to use. All
// methods are safe for concurrent use and allocation-free.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Store overwrites the counter. It exists for mirroring an external
// cumulative ledger (e.g. core.Stats fields) into the registry; the
// stored sequence must stay monotonic for the exposition to be a valid
// Prometheus counter.
func (c *Counter) Store(v uint64) { c.v.Store(v) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an instantaneous value. The zero value is ready to use. All
// methods are safe for concurrent use and allocation-free.
type Gauge struct{ v atomic.Int64 }

// Set overwrites the gauge.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram over uint64 values (cycles,
// depths, rates). Buckets follow Prometheus le semantics: bucket i
// counts observations <= Bounds[i], and a final implicit +Inf bucket
// catches everything above the last bound. Observe is allocation-free
// and safe for concurrent use.
//
// Snapshot is lock-free: a snapshot taken during a concurrent Observe
// is race-clean, and its Count is the sum of the buckets it read, so
// the two always agree. Sum may momentarily lag the buckets (Observe
// bumps the bucket first). The single-writer clock goroutine plus
// snapshot-at-quiescence is the intended precise-read pattern; the
// -race edge-case tests pin the concurrent behaviour.
type Histogram struct {
	bounds  []uint64
	unit    bool            // bounds run 0..len(bounds)-1, so bucket(v) = min(v, len)
	buckets []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum     atomic.Uint64
}

// NewHistogram builds a histogram over the given strictly increasing
// upper bounds. At least one bound is required.
func NewHistogram(bounds []uint64) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds must be strictly increasing, got %d after %d", bounds[i], bounds[i-1]))
		}
	}
	return &Histogram{
		bounds:  append([]uint64(nil), bounds...),
		unit:    bounds[0] == 0 && bounds[len(bounds)-1] == uint64(len(bounds)-1),
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
}

// LinearBounds returns n bounds start, start+step, ... — a convenience
// for occupancy-style histograms with small integral domains.
func LinearBounds(start, step uint64, n int) []uint64 {
	if n < 1 || step < 1 {
		panic("telemetry: LinearBounds needs n >= 1 and step >= 1")
	}
	b := make([]uint64, n)
	for i := range b {
		b[i] = start + uint64(i)*step
	}
	return b
}

// ExponentialBounds returns n bounds start, start*factor, ... rounded
// to integers, deduplicated upward so they stay strictly increasing.
func ExponentialBounds(start uint64, factor float64, n int) []uint64 {
	if n < 1 || start < 1 || factor <= 1 {
		panic("telemetry: ExponentialBounds needs n >= 1, start >= 1, factor > 1")
	}
	b := make([]uint64, 0, n)
	f := float64(start)
	for i := 0; i < n; i++ {
		v := uint64(f + 0.5)
		if len(b) > 0 && v <= b[len(b)-1] {
			v = b[len(b)-1] + 1
		}
		b = append(b, v)
		f *= factor
	}
	return b
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.buckets[h.bucket(v)].Add(1)
	h.sum.Add(v)
}

// bucket returns the index of the bucket v falls in.
func (h *Histogram) bucket(v uint64) int {
	if h.unit {
		return int(min(v, uint64(len(h.bounds))))
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	return i
}

// tally is a histogram's single-writer front end: observe(v, n) records
// v n times — a span of n cycles that all held v is one weighted
// observation — with plain adds, and flush folds the tally into the
// histogram's atomics.
type tally struct {
	h      *Histogram
	counts []uint64
	sum    uint64
}

func newTally(h *Histogram) tally { return tally{h: h, counts: make([]uint64, len(h.buckets))} }

func (t *tally) observe(v, n uint64) {
	t.counts[t.h.bucket(v)] += n
	t.sum += v * n
}

func (t *tally) flush() {
	for i, n := range t.counts {
		t.h.buckets[i].Add(n)
		t.counts[i] = 0
	}
	t.h.sum.Add(t.sum)
	t.sum = 0
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts[i] holds observations
	// <= Bounds[i], Counts[len(Bounds)] the +Inf overflow bucket.
	Bounds []uint64 `json:"bounds"`
	Counts []uint64 `json:"counts"`
	Count  uint64   `json:"count"`
	Sum    uint64   `json:"sum"`
}

// Snapshot copies the histogram's current state. See the type comment
// for consistency under concurrent Observe.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.buckets)),
		Sum:    h.sum.Load(),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
		s.Count += s.Counts[i]
	}
	return s
}

// Quantile returns an upper-bound estimate for quantile q in [0,1]:
// the smallest bucket bound whose cumulative count covers q of the
// observations (the overflow bucket reports the last finite bound).
func (s HistogramSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	need := uint64(q * float64(s.Count))
	if need == 0 {
		need = 1
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum >= need {
			if i < len(s.Bounds) {
				return s.Bounds[i]
			}
			return s.Bounds[len(s.Bounds)-1]
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}

// metricKind discriminates the series payload.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// series is one labelled instance of a metric family.
type series struct {
	labels string // pre-rendered `{k="v",...}` or ""
	c      *Counter
	g      *Gauge
	f      func() float64
	h      *Histogram
}

// family is one named metric with help, type and its label series.
type family struct {
	name, help string
	kind       metricKind
	series     []*series
	byLabels   map[string]*series
}

// Registry holds named metrics and renders them in the Prometheus text
// exposition format. Registration takes a lock; updates to the returned
// Counter/Gauge/Histogram handles are lock-free. Register once at
// construction, update from the hot path.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// register resolves (or creates) the family and adds one series.
// labels are alternating key, value pairs.
func (r *Registry) register(name, help string, kind metricKind, labels []string) *series {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("telemetry: labels for %s must be key,value pairs, got %d strings", name, len(labels)))
	}
	rendered := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.byName[name]
	if fam == nil {
		fam = &family{name: name, help: help, kind: kind, byLabels: make(map[string]*series)}
		r.byName[name] = fam
		r.families = append(r.families, fam)
	} else if fam.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %s registered as both %s and %s", name, fam.kind, kind))
	}
	if _, dup := fam.byLabels[rendered]; dup {
		panic(fmt.Sprintf("telemetry: duplicate series %s%s", name, rendered))
	}
	s := &series{labels: rendered}
	fam.byLabels[rendered] = s
	fam.series = append(fam.series, s)
	return s
}

// Counter registers (and returns) a counter series. labels are
// alternating key, value pairs: Counter("x_total", "...", "channel", "0").
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	s := r.register(name, help, kindCounter, labels)
	s.c = &Counter{}
	return s.c
}

// Gauge registers (and returns) a gauge series.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	s := r.register(name, help, kindGauge, labels)
	s.g = &Gauge{}
	return s.g
}

// GaugeFunc registers a gauge whose value is computed by fn at
// exposition time — for derived quantities like the live MTS estimate
// that are too expensive to maintain per tick.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	s := r.register(name, help, kindGaugeFunc, labels)
	s.f = fn
}

// Histogram registers (and returns) a histogram series over bounds.
func (r *Registry) Histogram(name, help string, bounds []uint64, labels ...string) *Histogram {
	s := r.register(name, help, kindHistogram, labels)
	s.h = NewHistogram(bounds)
	return s.h
}

// renderLabels turns alternating key, value pairs into `{k="v",...}`.
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", labels[i], labels[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// mergeLabel splices an extra label into a rendered label string (used
// for the histogram le label).
func mergeLabel(rendered, key, value string) string {
	extra := fmt.Sprintf("%s=%q", key, value)
	if rendered == "" {
		return "{" + extra + "}"
	}
	return rendered[:len(rendered)-1] + "," + extra + "}"
}

// WriteTo renders every registered metric in the Prometheus text
// exposition format (version 0.0.4). Families appear in registration
// order; series in registration order within a family.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	var n int64
	for _, fam := range fams {
		c, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", fam.name, fam.help, fam.name, fam.kind)
		n += int64(c)
		if err != nil {
			return n, err
		}
		for _, s := range fam.series {
			var err error
			switch {
			case s.c != nil:
				c, err = fmt.Fprintf(w, "%s%s %d\n", fam.name, s.labels, s.c.Load())
			case s.g != nil:
				c, err = fmt.Fprintf(w, "%s%s %d\n", fam.name, s.labels, s.g.Load())
			case s.f != nil:
				c, err = fmt.Fprintf(w, "%s%s %g\n", fam.name, s.labels, s.f())
			case s.h != nil:
				c, err = writeHistogram(w, fam.name, s.labels, s.h.Snapshot())
			}
			n += int64(c)
			if err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

func writeHistogram(w io.Writer, name, labels string, snap HistogramSnapshot) (int, error) {
	var n int
	var cum uint64
	for i, bound := range snap.Bounds {
		cum += snap.Counts[i]
		c, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabel(labels, "le", fmt.Sprintf("%d", bound)), cum)
		n += c
		if err != nil {
			return n, err
		}
	}
	cum += snap.Counts[len(snap.Counts)-1]
	c, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabel(labels, "le", "+Inf"), cum)
	n += c
	if err != nil {
		return n, err
	}
	c, err = fmt.Fprintf(w, "%s_sum%s %d\n%s_count%s %d\n", name, labels, snap.Sum, name, labels, snap.Count)
	return n + c, err
}

// Handler serves the registry at an HTTP endpoint (mount at /metricsz).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteTo(w) //nolint:errcheck // best-effort diagnostics
	})
}

// ParseText parses Prometheus text exposition into a map from series
// (name plus rendered labels, exactly as written) to value. It rejects
// malformed lines, so tests can use it both to reconcile counter values
// and to assert that an exposition parses as valid Prometheus text.
func ParseText(r io.Reader) (map[string]float64, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// Split "name{labels} value" / "name value" at the last space.
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			return nil, fmt.Errorf("telemetry: line %d: no value separator in %q", ln+1, line)
		}
		key, val := line[:sp], line[sp+1:]
		var f float64
		if _, err := fmt.Sscanf(val, "%g", &f); err != nil {
			return nil, fmt.Errorf("telemetry: line %d: bad value %q: %v", ln+1, val, err)
		}
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			if !strings.HasSuffix(key, "}") {
				return nil, fmt.Errorf("telemetry: line %d: unterminated label set in %q", ln+1, key)
			}
			name = key[:i]
		}
		if !validMetricName(name) {
			return nil, fmt.Errorf("telemetry: line %d: invalid metric name %q", ln+1, name)
		}
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("telemetry: line %d: duplicate series %q", ln+1, key)
		}
		out[key] = f
	}
	return out, nil
}

// validMetricName checks the Prometheus metric name charset
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		alpha := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':'
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// sortedSeriesKeys is a test helper ordering for deterministic dumps.
func sortedSeriesKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
