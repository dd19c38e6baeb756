package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var testKinds = []spanKind{{"batch", "server"}, {"tick", "core"}, {"sweep", "multichannel"}}

// fill appends a closed span with explicit times.
func fill(t *tracer, kind int, parent int32, start, end int64) int32 {
	t.spans = append(t.spans, span{kind: uint16(kind), parent: parent, start: start, end: end})
	return int32(len(t.spans) - 1)
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	tr := newTracer(true, testKinds, 16, time.Now())
	// batch [0,100) with children tick [10,40) and sweep [50,70); the
	// sweep has a nested tick [55,60). A second batch has no children.
	b := fill(tr, 0, -1, 0, 100)
	fill(tr, 1, b, 10, 40)
	sw := fill(tr, 2, b, 50, 70)
	fill(tr, 1, sw, 55, 60)
	fill(tr, 0, -1, 100, 130)

	got := tr.totals()
	want := []kindTotals{
		{count: 2, total: 130, self: 130 - 30 - 20}, // batches lose their direct children only
		{count: 2, total: 35, self: 35},
		{count: 1, total: 20, self: 15},
	}
	for k := range want {
		if got[k] != want[k] {
			t.Errorf("%s: totals = %+v, want %+v", testKinds[k].name, got[k], want[k])
		}
	}
	// Self times partition the top-level spans' time exactly.
	var self int64
	for _, k := range got {
		self += k.self
	}
	if self != 130 {
		t.Errorf("self times sum to %d, want the 130 ns the top-level spans cover", self)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer(false, testKinds, 16, time.Now())
	i := tr.begin(0, -1, 3)
	if i != -1 {
		t.Errorf("begin with tracing off = %d, want -1", i)
	}
	tr.end(i) // must not panic
	if len(tr.spans) != 0 {
		t.Errorf("%d spans recorded with tracing off", len(tr.spans))
	}
}

func TestTracerRecordsParentBatchAndOrder(t *testing.T) {
	tr := newTracer(true, testKinds, 16, time.Now())
	b := tr.begin(0, -1, 7)
	c := tr.begin(1, b, 7)
	tr.end(c)
	tr.end(b)
	if len(tr.spans) != 2 {
		t.Fatalf("%d spans, want 2", len(tr.spans))
	}
	parent, child := tr.spans[b], tr.spans[c]
	if child.parent != b || child.batch != 7 || parent.parent != -1 {
		t.Errorf("links: parent %+v child %+v", parent, child)
	}
	if !(parent.start <= child.start && child.start <= child.end && child.end <= parent.end) {
		t.Errorf("child [%d,%d] not inside parent [%d,%d]", child.start, child.end, parent.start, parent.end)
	}
}

func TestTraceFileIsChromeTraceEvents(t *testing.T) {
	tr := newTracer(true, testKinds, 16, time.Now())
	b := fill(tr, 0, -1, 1000, 5000)
	fill(tr, 1, b, 2000, 3000)
	var tf traceFile
	tf.addRung("core", tr)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tf.write(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("%d events, want thread name + 2 spans", len(doc.TraceEvents))
	}
	tick := doc.TraceEvents[2]
	if tick.Ph != "X" || tick.Name != "tick" || tick.Cat != "core" || tick.Ts != 2 || tick.Dur != 1 {
		t.Errorf("tick event = %+v, want a complete event at 2us lasting 1us", tick)
	}
	if p, ok := tick.Args["parent"].(float64); !ok || int32(p) != b {
		t.Errorf("tick parent = %v, want %d", tick.Args["parent"], b)
	}
}
