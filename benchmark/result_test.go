package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

func TestResultJSONRoundTrip(t *testing.T) {
	in := resultFile{
		Env: map[string]string{"nproc": "2", "link": "host loopback, not a real link"},
		Runs: []runResult{{
			Workload: "hot-set", Seed: 7, Trace: false, Correct: true, Attempted: 123456, Failed: 0,
			Metrics: map[string]metric{
				"throughput_rps": {Value: 592680.25, Unit: "req/s"},
				"setup_s":        {Value: 0.229705123, Unit: "s"},
			},
		}},
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out resultFile
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the results:\n in  %+v\n out %+v", in, out)
	}
}

// The driver's summary line has exactly four keys, and every value
// keeps all its digits.
func TestDriverLineShape(t *testing.T) {
	b, err := json.Marshal(driverLine{true, 1000, 0, map[string]metric{"latency_p50_us": {1.2034567, "us"}}})
	if err != nil {
		t.Fatal(err)
	}
	var generic map[string]json.RawMessage
	if err := json.Unmarshal(b, &generic); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := generic[k]; !ok {
			t.Errorf("summary line lacks %q: %s", k, b)
		}
	}
	if len(generic) != 4 {
		t.Errorf("summary line has %d keys, want 4: %s", len(generic), b)
	}
	var back driverLine
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Metrics["latency_p50_us"].Value != 1.2034567 {
		t.Errorf("value lost digits: %v", back.Metrics["latency_p50_us"].Value)
	}
}

// BENCHMARK.json is the contract the driver reads; the program's own
// tables must say the same.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              *float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, program %q / %q",
				i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or a why of %d characters", w.name, len(w.why))
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(doc.EndToEnd), len(endToEnd))
	}
	sawSetup := false
	for i, d := range endToEnd {
		j := doc.EndToEnd[i]
		if j.Bound == nil || j.Name != d.name || j.Unit != d.unit || j.Better != d.better || *j.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, j, d)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
		sawSetup = sawSetup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower")
	}
	if !sawSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(doc.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		j := doc.PerLayer[i]
		if j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, j, d)
		}
	}
	if len(metricDefs) != len(endToEnd)+len(perLayer) {
		t.Error("a metric name is declared twice")
	}
	for name, d := range metricDefs {
		if !nameRE.MatchString(name) || !unitRE.MatchString(d.unit) || (d.better != "lower" && d.better != "higher") {
			t.Errorf("metric %+v breaks the naming rules", d)
		}
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", doc.RunSeconds, doc.Paths)
	}
}
