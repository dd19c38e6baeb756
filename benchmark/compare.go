package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// series collects each metric's values per workload across runs, in
// first-seen workload order.
type series struct {
	order  []string
	values map[string]map[string][]float64 // workload -> metric -> values
}

func collect(runs []runResult) series {
	s := series{values: make(map[string]map[string][]float64)}
	for _, r := range runs {
		if s.values[r.Workload] == nil {
			s.values[r.Workload] = make(map[string][]float64)
			s.order = append(s.order, r.Workload)
		}
		for name, m := range r.Metrics {
			s.values[r.Workload][name] = append(s.values[r.Workload][name], m.Value)
		}
	}
	return s
}

// declared lists the metric definitions in print order.
func declared() []metricDef { return append(append([]metricDef(nil), endToEnd...), perLayer...) }

// printSummary reports median and quartiles of every metric over the
// repeats of each workload.
func printSummary(w io.Writer, runs []runResult) {
	s := collect(runs)
	fmt.Fprintf(w, "\n%-16s %-36s %3s %12s %12s %12s %8s %8s\n",
		"workload", "metric", "n", "median", "q1", "q3", "spread", "bound")
	for _, wl := range s.order {
		for _, d := range declared() {
			vs := s.values[wl][d.name]
			if len(vs) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(vs)
			bound := "-"
			if d.bound > 0 {
				bound = fmt.Sprintf("%.1f%%", 100*d.bound)
			}
			fmt.Fprintf(w, "%-16s %-36s %3d %12.6g %12.6g %12.6g %7.2f%% %8s\n",
				wl, d.name, len(vs), q2, q1, q3, 100*spread(vs), bound)
		}
	}
}

// verdict judges one pairing of an end-to-end metric and a workload:
// base and change are the two sides' values.
//
//   - "unresolved": a side's interquartile spread exceeds the bound, so
//     the medians cannot be told apart at that resolution — unless every
//     run of the change reads better than every run of the base.
//   - "REGRESSION": the change's median is worse than the base's by more
//     than the bound.
//   - "ok" otherwise.
func verdict(d metricDef, base, change []float64) (worse float64, v string) {
	mb, mc := median(base), median(change)
	worse = ratio(mc-mb, mb)
	if d.better == "higher" {
		worse = -worse
	}
	if d.bound == 0 {
		return worse, ""
	}
	if max(spread(base), spread(change)) > d.bound {
		if allBetter(d, base, change) {
			return worse, "ok (every run better)"
		}
		return worse, "unresolved"
	}
	if worse > d.bound {
		return worse, "REGRESSION"
	}
	return worse, "ok"
}

// allBetter reports whether every value of change beats every value of
// base.
func allBetter(d metricDef, base, change []float64) bool {
	for _, c := range change {
		for _, b := range base {
			if (d.better == "lower" && c >= b) || (d.better == "higher" && c <= b) {
				return false
			}
		}
	}
	return true
}

func readResults(path string) (resultFile, error) {
	var f resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// compareFiles prints, per workload and metric, the change of b's median
// against a's, as a share of a's and signed so that positive is worse,
// next to the metric's bound and both sides' spreads.
func compareFiles(w io.Writer, pathA, pathB string) error {
	fa, err := readResults(pathA)
	if err != nil {
		return err
	}
	fb, err := readResults(pathB)
	if err != nil {
		return err
	}
	a, b := collect(fa.Runs), collect(fb.Runs)
	fmt.Fprintf(w, "base   %s (commit %s, seed %s)\nchange %s (commit %s, seed %s)\n",
		pathA, fa.Env["commit"], fa.Env["seed"], pathB, fb.Env["commit"], fb.Env["seed"])
	fmt.Fprintf(w, "%-16s %-36s %12s %12s %8s %8s %8s %8s  %s\n",
		"workload", "metric", "base", "change", "worse", "bound", "spreadA", "spreadB", "verdict")
	for _, wl := range a.order {
		for _, d := range declared() {
			va, vb := a.values[wl][d.name], b.values[wl][d.name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			worse, v := verdict(d, va, vb)
			bound := "-"
			if d.bound > 0 {
				bound = fmt.Sprintf("%.1f%%", 100*d.bound)
			}
			fmt.Fprintf(w, "%-16s %-36s %12.6g %12.6g %+7.2f%% %8s %7.2f%% %7.2f%%  %s\n",
				wl, d.name, median(va), median(vb), 100*worse, bound, 100*spread(va), 100*spread(vb), v)
		}
	}
	return nil
}
