package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// spanKind names one kind of span and the layer it is charged to.
type spanKind struct {
	name  string
	layer string
}

// span is one recorded interval. parent indexes the span that caused it
// in the same tracer, or -1; batch is the 64-request batch (or frame)
// the work belongs to.
type span struct {
	kind       uint16
	parent     int32
	batch      uint32
	start, end int64 // ns since the tracer's epoch
}

// tracer records spans in memory around calls into one rung's layers.
// With on false, begin and end return at once without reading the clock,
// so the same rung code runs untraced for the overhead comparison.
type tracer struct {
	on    bool
	kinds []spanKind
	epoch time.Time
	spans []span
}

// newTracer preallocates room for capacity spans so recording never
// allocates inside a rung. Rungs of one ladder share an epoch, so their
// spans line up on one timeline.
func newTracer(on bool, kinds []spanKind, capacity int, epoch time.Time) *tracer {
	t := &tracer{on: on, kinds: kinds, epoch: epoch}
	if on {
		t.spans = make([]span, 0, capacity)
	}
	return t
}

// begin opens a span and returns its index, or -1 when tracing is off.
func (t *tracer) begin(kind int, parent int32, batch int) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{
		kind:   uint16(kind),
		parent: parent,
		batch:  uint32(batch),
		start:  int64(time.Since(t.epoch)),
	})
	return int32(len(t.spans) - 1)
}

// end closes the span begin returned.
func (t *tracer) end(i int32) {
	if i < 0 {
		return
	}
	t.spans[i].end = int64(time.Since(t.epoch))
}

// kindTotals aggregates one kind of span.
type kindTotals struct {
	count int
	total int64 // sum of durations, ns
	self  int64 // total minus the time covered by child spans, ns
}

// totals sums every span by kind. A span's self time is its duration
// minus the durations of the spans that name it as parent; children of
// one parent never overlap here, because one goroutine records them in
// sequence.
func (t *tracer) totals() []kindTotals {
	out := make([]kindTotals, len(t.kinds))
	for _, s := range t.spans {
		d := s.end - s.start
		k := &out[s.kind]
		k.count++
		k.total += d
		k.self += d
		if s.parent >= 0 {
			out[t.spans[s.parent].kind].self -= d
		}
	}
	return out
}

// traceEvent is one Chrome trace_event "complete" event.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFileSpans caps how many of a rung's spans reach the trace file.
// Every span counts toward the per-layer numbers; the file is for a
// person to open, and a viewer cannot load the million-odd spans a full
// ladder records.
const traceFileSpans = 20000

// traceFile accumulates the rungs' spans and writes one Chrome trace.
// Each rung is one thread (tid) of process 1, named after the rung.
type traceFile struct {
	events []traceEvent
	rungs  int
}

func (f *traceFile) addRung(rung string, t *tracer) {
	f.rungs++
	tid := f.rungs
	f.events = append(f.events, traceEvent{
		Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
		Args: map[string]any{"name": rung},
	})
	n := min(len(t.spans), traceFileSpans)
	for i, s := range t.spans[:n] {
		k := t.kinds[s.kind]
		args := map[string]any{"id": i, "batch": s.batch}
		if s.parent >= 0 {
			args["parent"] = s.parent
		}
		f.events = append(f.events, traceEvent{
			Name: k.name, Cat: k.layer, Ph: "X",
			Ts:  float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: tid, Args: args,
		})
	}
}

func (f *traceFile) write(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(out)
	enc := json.NewEncoder(w)
	err = enc.Encode(map[string]any{"traceEvents": f.events, "displayTimeUnit": "ns"})
	if err == nil {
		err = w.Flush()
	}
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
