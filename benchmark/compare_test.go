package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "latency_p50_us", unit: "us", better: "lower", bound: 0.10}
	higher := metricDef{name: "throughput_rps", unit: "req/s", better: "higher", bound: 0.10}
	tight := []float64{100, 101, 99, 100, 100.5, 99.5, 100, 100, 101, 99}
	scale := func(vs []float64, f float64) []float64 {
		out := make([]float64, len(vs))
		for i, v := range vs {
			out[i] = v * f
		}
		return out
	}
	wide := []float64{60, 80, 100, 120, 140, 70, 90, 110, 130, 100}

	for _, tc := range []struct {
		name         string
		d            metricDef
		base, change []float64
		want         string
	}{
		{"same", lower, tight, tight, "ok"},
		{"5% slower is inside the bound", lower, tight, scale(tight, 1.05), "ok"},
		{"20% slower latency", lower, tight, scale(tight, 1.20), "REGRESSION"},
		{"20% faster latency", lower, tight, scale(tight, 0.80), "ok"},
		{"20% less throughput", higher, tight, scale(tight, 0.80), "REGRESSION"},
		{"20% more throughput", higher, tight, scale(tight, 1.20), "ok"},
		{"spread wider than the bound", lower, wide, scale(wide, 1.3), "unresolved"},
		{"wide but every run better", lower, wide, scale(tight, 0.5), "ok (every run better)"},
	} {
		if _, got := verdict(tc.d, tc.base, tc.change); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	// The sign: positive is worse, whichever way the metric points.
	if worse, _ := verdict(higher, tight, scale(tight, 0.80)); worse < 0.19 || worse > 0.21 {
		t.Errorf("20%% less throughput reads as %+.3f worse", worse)
	}
	// A per-layer metric has no bound and so no verdict.
	if _, got := verdict(metricDef{name: "core.tick_ns", better: "lower"}, tight, scale(tight, 2)); got != "" {
		t.Errorf("per-layer verdict %q, want none", got)
	}
}

func TestCompareFilesPrintsEveryPairing(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rps float64) string {
		f := resultFile{Env: map[string]string{"commit": name, "seed": "1"}}
		for i := 0; i < 4; i++ {
			f.Runs = append(f.Runs, runResult{Workload: "hot-set", Correct: true, Metrics: map[string]metric{
				"throughput_rps": {Value: rps + float64(i), Unit: "req/s"},
			}})
		}
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var out bytes.Buffer
	if err := compareFiles(&out, write("a", 1000), write("b", 700)); err != nil {
		t.Fatal(err)
	}
	var row string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "hot-set") && strings.Contains(line, "throughput_rps") {
			row = line
		}
	}
	bound := fmt.Sprintf("%.1f%%", 100*metricDefs["throughput_rps"].bound)
	if !strings.Contains(row, "REGRESSION") || !strings.Contains(row, bound) {
		t.Errorf("30%% less throughput not flagged against its bound:\n%s", out.String())
	}
}
