// Command benchmark is the repository's wall-clock benchmark: it builds
// the shipped daemon (cmd/vpnmd), drives it over TCP loopback from one
// internal/client connection on five fixed workloads, gates correctness,
// and prints every metric by name with its unit. A traced run adds the
// per-layer ladder: the same requests replayed in-process, rung by rung,
// with spans recorded around the calls into each layer. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef declares one metric the benchmark reports. bound is the
// share of the parent's median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics have none.
// Each bound is at least three times the widest interquartile spread
// seen over three sets of ten runs per workload on the 2-core host
// (README.md has the spreads). BENCHMARK.json carries the same table
// (TestBenchmarkJSONMatches).
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_rps", "req/s", "higher", 0.15},
	{"latency_p50_us", "us", "lower", 0.15},
	{"latency_p99_us", "us", "lower", 0.25},
	{"cpu_us_per_req", "us", "lower", 0.20},
	{"daemon_rss_mb", "MB", "lower", 0.25},
}

var perLayer = []metricDef{
	{name: "driver.sched_lag_p99_us", unit: "us", better: "lower"},
	{name: "driver.cpu_s", unit: "s", better: "lower"},
	{name: "driver.latency_samples", unit: "count", better: "higher"},
	{name: "driver.trace_overhead_ratio", unit: "ratio", better: "lower"},
	{name: "client.issue_ns_per_req", unit: "ns", better: "lower"},
	{name: "client.window_occupancy", unit: "ratio", better: "lower"},
	{name: "client.retries_per_req", unit: "ratio", better: "lower"},
	{name: "client.stalls", unit: "count", better: "lower"},
	{name: "client.latency_p999_us", unit: "us", better: "lower"},
	{name: "client.fixed_d_violations", unit: "count", better: "lower"},
	{name: "wire.encode_req_ns_per_req", unit: "ns", better: "lower"},
	{name: "wire.decode_req_ns_per_req", unit: "ns", better: "lower"},
	{name: "wire.encode_comp_ns_per_req", unit: "ns", better: "lower"},
	{name: "wire.decode_comp_ns_per_req", unit: "ns", better: "lower"},
	{name: "wire.bytes_per_req", unit: "B", better: "lower"},
	{name: "wire.pool_miss_ratio", unit: "ratio", better: "lower"},
	{name: "server.cycles_per_s", unit: "1/s", better: "higher"},
	{name: "server.req_per_cycle", unit: "req/cycle", better: "higher"},
	{name: "server.channel_busy_retries_per_req", unit: "ratio", better: "lower"},
	{name: "server.stall_retries_per_req", unit: "ratio", better: "lower"},
	{name: "server.pipe_ns_per_req", unit: "ns", better: "lower"},
	{name: "server.pipe_req_per_cycle", unit: "req/cycle", better: "higher"},
	{name: "server.pipe_allocs_per_req", unit: "count", better: "lower"},
	{name: "server.self_ns_per_req", unit: "ns", better: "lower"},
	{name: "multichannel.tick_ns", unit: "ns", better: "lower"},
	{name: "multichannel.issue_ns_per_req", unit: "ns", better: "lower"},
	{name: "multichannel.req_per_cycle", unit: "req/cycle", better: "higher"},
	{name: "multichannel.ooo_hol_bypass_per_req", unit: "ratio", better: "higher"},
	{name: "core.tick_ns", unit: "ns", better: "lower"},
	{name: "core.issue_ns_per_req", unit: "ns", better: "lower"},
	{name: "core.merged_read_ratio", unit: "ratio", better: "higher"},
	{name: "core.stalls", unit: "count", better: "lower"},
	{name: "coded.decodes_per_req", unit: "ratio", better: "lower"},
	{name: "coded.grants_per_cycle_mean", unit: "count", better: "higher"},
	{name: "hash.ns_per_req", unit: "ns", better: "lower"},
	{name: "vpnmd.ready_s", unit: "s", better: "lower"},
	{name: "vpnmd.cpu_s", unit: "s", better: "lower"},
	{name: "vpnmd.cpu_util", unit: "ratio", better: "lower"},
	{name: "vpnmd.transport_ns_per_req", unit: "ns", better: "lower"},
}

// metricDefs indexes both tables by name.
var metricDefs = func() map[string]metricDef {
	m := make(map[string]metricDef)
	for _, d := range endToEnd {
		m[d.name] = d
	}
	for _, d := range perLayer {
		m[d.name] = d
	}
	return m
}()

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Env  map[string]string `json:"env"`
	Runs []runResult       `json:"runs"`
}

// driverLine is the one-object summary the benchmark driver parses from
// the last line of standard output.
type driverLine struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errIncorrect is returned when every run completed but a correctness
// check failed; the details are already printed.
var errIncorrect = errors.New("a correctness check failed")

func run() error {
	var (
		workloadName = flag.String("workload", "", "run only this workload and end with the driver's one-line JSON summary (default: all five)")
		seed         = flag.Uint64("seed", 1, "workload seed: the same seed gives the same requests")
		seconds      = flag.Int("seconds", 12, "length of each workload's timed phase")
		trace        = flag.Int("trace", 0, "1: traced run — per-layer metrics and out/trace-<workload>.json instead of end-to-end metrics")
		repeat       = flag.Int("repeat", 1, "run the whole set this many times (seed, seed+1, ...) and report median and quartiles")
		out          = flag.String("out", "", "also write every run's results to this JSON file, for -compare")
		compare      = flag.String("compare", "", "compare two result files: -compare a.json b.json")
		expectD      = flag.Uint64("expect-d", 0, "assert this fixed delay D instead of the one the daemon advertises (a wrong value must fail the run)")
	)
	flag.Parse()

	if *compare != "" {
		if flag.NArg() != 1 {
			return errors.New("usage: -compare a.json b.json")
		}
		return compareFiles(os.Stdout, *compare, flag.Arg(0))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds < 1 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("-seconds and -repeat must be at least 1, -trace 0 or 1")
	}
	set := workloads
	if *workloadName != "" {
		w, ok := findWorkload(*workloadName)
		if !ok {
			return fmt.Errorf("unknown workload %q", *workloadName)
		}
		set = []workload{w}
	}

	// SIGINT/SIGTERM cancel the context, which kills the daemon child.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	repo, err := findRoot()
	if err != nil {
		return err
	}
	bin, buildTime, err := buildDaemon(ctx, repo, filepath.Join(repo, ".bench_build"))
	if err != nil {
		return err
	}
	env := environment(repo, *seed)
	for _, k := range sortedKeys(env) {
		fmt.Printf("env %s %s\n", k, env[k])
	}
	fmt.Printf("env build_s %.3f\n", buildTime.Seconds())

	cfg := runConfig{
		daemonBin: bin,
		outDir:    filepath.Join(repo, "benchmark", "out"),
		seconds:   time.Duration(*seconds) * time.Second,
		trace:     *trace == 1,
		expectD:   *expectD,
		log:       os.Stdout,
	}
	file := resultFile{Env: env}
	allCorrect := true
	for rep := 0; rep < *repeat; rep++ {
		cfg.seed = *seed + uint64(rep)
		for _, w := range set {
			res, err := runWorkload(ctx, cfg, w)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			printRun(res)
			file.Runs = append(file.Runs, res)
			allCorrect = allCorrect && res.Correct
		}
	}
	if *repeat > 1 {
		printSummary(os.Stdout, file.Runs)
	}
	if *out != "" {
		b, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if *workloadName != "" {
		// The driver reads the last line of standard output.
		last := file.Runs[len(file.Runs)-1]
		b, err := json.Marshal(driverLine{last.Correct, last.Attempted, last.Failed, last.Metrics})
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	}
	if !allCorrect {
		return errIncorrect
	}
	return nil
}

// printRun prints one run as "workload metric value unit" lines, in the
// declared order.
func printRun(r runResult) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if m, ok := r.Metrics[d.name]; ok {
				fmt.Printf("%s %s %.6g %s\n", r.Workload, d.name, m.Value, m.Unit)
			}
		}
	}
	fmt.Printf("%s fail_ratio %.6g ratio (%d failed of %d attempted)\n",
		r.Workload, ratio(float64(r.Failed), float64(r.Attempted)), r.Failed, r.Attempted)
}

// findRoot locates the repository — the directory that holds cmd/vpnmd —
// by walking up from the working directory, so the command works from
// the root and from benchmark/ alike.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "vpnmd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("cannot find the repository: no cmd/vpnmd/main.go in the working directory or above it")
		}
		dir = parent
	}
}

// environment describes the host and the build, for the record printed
// with every run and stored in result files.
func environment(repo string, seed uint64) map[string]string {
	env := map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"kernel":     "unknown",
		"commit":     "unknown",
		"seed":       fmt.Sprint(seed),
		"link":       "host loopback, not a real link",
		"load":       "one process, one internal/client connection, one issuing goroutine",
		"gap":        "no workload for qos or multi-session: at nproc=2 a second connection measures the scheduler",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env["kernel"] = strings.TrimSpace(string(b))
	}
	// Only a checkout that is itself a git repository has a commit; git
	// would otherwise answer for whatever repository encloses it.
	if _, err := os.Stat(filepath.Join(repo, ".git")); err == nil {
		cmd := exec.Command("git", "rev-parse", "HEAD")
		cmd.Dir = repo
		if b, err := cmd.Output(); err == nil {
			env["commit"] = strings.TrimSpace(string(b))
		}
	}
	return env
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
