package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/wire"
)

// setupRepeats is how many times a run sets the system up (spawn a
// daemon, first Stats reply, warm-up); setup_s is the median, so one
// slow spawn does not decide it. The last set-up's daemon serves the
// timed phase. A traced run sets up once: it does not report setup_s.
const setupRepeats = 3

// drainBudget bounds the daemon's SIGINT drain.
const drainBudget = 15 * time.Second

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every run of one invocation shares.
type runConfig struct {
	daemonBin string
	outDir    string // traces land here
	seed      uint64
	seconds   time.Duration
	trace     bool
	expectD   uint64 // 0: whatever the daemon's Stats reply advertises
	log       io.Writer
}

// liveRun is everything measured against the daemon.
type liveRun struct {
	setupS, readyS []float64
	timed          phase
	latNs          []int64 // sorted
	ctr0, ctr1     client.Counters
	snap0, snap1   server.Snapshot
	met0, met1     map[string]float64
	daemonCPU      float64
	driverCPU      float64
	rssMB          float64
	pool           wire.PoolStats // client buffer pool, over the whole connection
	led            ledger
	problems       []string
}

// runWorkload measures w once: set-up (repeated), the timed phase against
// a fresh daemon, the correctness gate, and in a traced run the
// in-process ladder.
func runWorkload(ctx context.Context, cfg runConfig, w workload) (runResult, error) {
	// The per-workload timeout: when it expires the context kills the
	// daemon child and fails every blocked client call.
	ctx, cancel := context.WithTimeout(ctx, cfg.seconds+150*time.Second)
	defer cancel()

	res := runResult{Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, Metrics: make(map[string]metric)}
	live, err := runLive(ctx, cfg, w)
	if err != nil {
		return res, err
	}
	if !supported(len(live.latNs), 99) {
		live.problems = append(live.problems, fmt.Sprintf("%d latency samples cannot support a p99", len(live.latNs)))
	}
	res.Attempted = live.led.Attempted
	res.Failed = live.led.failed()

	if !cfg.trace {
		endToEndMetrics(res.Metrics, live)
	} else if err := runTraced(ctx, cfg, w, live, res.Metrics); err != nil {
		return res, err
	}
	res.Correct = len(live.problems) == 0

	if !res.Correct {
		fmt.Fprintf(cfg.log, "%s CORRECTNESS GATE FAILED:\n", w.name)
		for _, p := range live.problems {
			fmt.Fprintf(cfg.log, "%s   - %s\n", w.name, p)
		}
		b, _ := json.MarshalIndent(live.led, "", "  ") //nolint:errcheck // plain struct of integers
		fmt.Fprintf(cfg.log, "%s ledger: %s\n", w.name, b)
	}
	return res, nil
}

// runTraced replays the workload's first timed requests through the
// in-process ladder, with spans (written to the trace file) and again
// without, and fills in the per-layer metrics.
func runTraced(ctx context.Context, cfg runConfig, w workload, live *liveRun, m map[string]metric) error {
	reqs := make([]request, ladderRequests)
	g := newGenerator(w, cfg.seed, streamTimed)
	for i := range reqs {
		reqs[i] = g.next()
	}
	var tf traceFile
	traced, err := runLadder(ctx, w, cfg.seed, reqs, true, &tf)
	if err != nil {
		return fmt.Errorf("traced ladder: %w", err)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, "trace-"+w.name+".json")
	if err := tf.write(path); err != nil {
		return err
	}
	fmt.Fprintf(cfg.log, "%s trace_file %s\n", w.name, path)
	plain, err := runLadder(ctx, w, cfg.seed, reqs, false, nil)
	if err != nil {
		return fmt.Errorf("untraced ladder: %w", err)
	}
	if traced.mcCycles != plain.mcCycles || traced.pipeCycles != plain.pipeCycles {
		live.problems = append(live.problems, fmt.Sprintf(
			"simulated counts differ between the traced and untraced ladder: multichannel %d vs %d cycles, pipe %d vs %d",
			traced.mcCycles, plain.mcCycles, traced.pipeCycles, plain.pipeCycles))
	}
	perLayerMetrics(m, w, live, traced, plain)
	return nil
}

// runLive spawns the daemon (setupRepeats times), drives the timed phase
// against the last one and collects everything measured from outside.
func runLive(ctx context.Context, cfg runConfig, w workload) (*liveRun, error) {
	live := &liveRun{}
	repeats := setupRepeats
	if cfg.trace {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		last := i == repeats-1
		if err := live.setupAndMaybeMeasure(ctx, cfg, w, last); err != nil {
			return nil, err
		}
	}
	return live, nil
}

// setupAndMaybeMeasure performs one full set-up — spawn, connect, first
// Stats reply, warm-up — and, on the last repeat, the timed phase. The
// daemon is stopped on every path out.
func (live *liveRun) setupAndMaybeMeasure(ctx context.Context, cfg runConfig, w workload, measure bool) error {
	d, err := spawnDaemon(ctx, cfg.daemonBin, w.daemonFlags)
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()
	c, err := client.Dial(d.addr, client.Config{Window: w.window, MaxBatch: w.batch})
	if err != nil {
		return fmt.Errorf("dial daemon: %w", err)
	}
	defer c.Close()
	st, err := c.Stats(ctx)
	if err != nil {
		return fmt.Errorf("first Stats: %w", err)
	}
	live.readyS = append(live.readyS, time.Since(d.spawned).Seconds())

	expectD := cfg.expectD
	if expectD == 0 {
		expectD = st.Delay
	}
	s := &session{c: c, w: w, seed: cfg.seed, chk: newChecker(cfg.seed, expectD, w.window)}
	warm, err := s.warmup(ctx, newGenerator(w, cfg.seed, streamWarmup), warmupRequests)
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	live.setupS = append(live.setupS, time.Since(d.spawned).Seconds())

	attempted, issueErrs := warm.attempted, warm.issueErrs
	var problems []string
	if measure {
		terr, err := live.measure(ctx, cfg, d, s)
		if err != nil {
			return err
		}
		if terr != nil {
			// A failed issue or flush is a correctness failure, reported
			// with whatever the ledger holds.
			problems = append(problems, "timed phase: "+terr.Error())
		}
		attempted += live.timed.attempted
		issueErrs += live.timed.issueErrs
	}

	// The ledger is taken after Flush, over the whole connection.
	snap, err := d.statszSnapshot()
	if err != nil {
		return err
	}
	led := newLedger(attempted, issueErrs, c.Counters(), s.chk, st.Delay, snap)
	problems = append(problems, led.problems()...)

	c.Close()
	stopped = true
	if err := d.stop(drainBudget); err != nil {
		problems = append(problems, err.Error())
	}
	// A set-up repeat that fails its gate fails the run, with its ledger.
	if measure || len(problems) > 0 {
		live.led = led
	}
	for _, p := range problems {
		if !measure {
			p = "set-up repeat: " + p
		}
		live.problems = append(live.problems, p)
	}
	return nil
}

// measure runs the timed phase against d and collects what is read from
// outside the daemon before and after it. terr is the timed phase's own
// failure (an issue or flush error); err is a failure to measure.
func (live *liveRun) measure(ctx context.Context, cfg runConfig, d *daemon, s *session) (terr, err error) {
	// Latency samples belong to the timed phase only.
	s.chk.latNs = make([]int64, 0, 1<<20)
	if live.snap0, err = d.statszSnapshot(); err != nil {
		return nil, err
	}
	if live.met0, err = d.metricsz(); err != nil {
		return nil, err
	}
	live.ctr0 = s.c.Counters()
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	self0 := selfCPUSeconds()

	live.timed, terr = s.timed(ctx, newGenerator(s.w, cfg.seed, streamTimed), cfg.seconds)

	live.driverCPU = selfCPUSeconds() - self0
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return terr, err
	}
	live.daemonCPU = cpu1 - cpu0
	live.ctr1 = s.c.Counters()
	if live.snap1, err = d.statszSnapshot(); err != nil {
		return terr, err
	}
	if live.met1, err = d.metricsz(); err != nil {
		return terr, err
	}
	if live.rssMB, err = d.peakRSSMB(); err != nil {
		return terr, err
	}
	live.pool = s.c.PoolStats()
	live.latNs = sortedCopy(s.chk.latNs)
	return terr, nil
}

// put records one metric.
func put(m map[string]metric, name string, v float64) {
	def, ok := metricDefs[name]
	if !ok {
		panic("benchmark: metric " + name + " is not declared")
	}
	m[name] = metric{Value: v, Unit: def.unit}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// resolved is the number of requests the timed phase resolved: read
// completions plus write accepts.
func (live *liveRun) resolved() float64 {
	return float64(live.ctr1.Completions - live.ctr0.Completions +
		live.ctr1.AcceptedWrites - live.ctr0.AcceptedWrites)
}

func endToEndMetrics(m map[string]metric, live *liveRun) {
	res := live.resolved()
	put(m, "setup_s", median(live.setupS))
	put(m, "throughput_rps", ratio(res, live.timed.wall.Seconds()))
	put(m, "latency_p50_us", float64(percentile(live.latNs, 50))/1e3)
	put(m, "latency_p99_us", float64(percentile(live.latNs, 99))/1e3)
	put(m, "cpu_us_per_req", ratio((live.daemonCPU+live.driverCPU)*1e6, res))
	put(m, "daemon_rss_mb", live.rssMB)
}

func perLayerMetrics(m map[string]metric, w workload, live *liveRun, traced, plain ladderOut) {
	res := live.resolved()
	wall := live.timed.wall.Seconds()
	rps := ratio(res, wall)
	dm := func(name string) float64 { return live.met1[name] - live.met0[name] }
	cycles := float64(live.snap1.Cycle - live.snap0.Cycle)
	n := float64(traced.n)

	// driver
	put(m, "driver.sched_lag_p99_us", float64(percentile(sortedCopy(live.timed.lagsNs), 99))/1e3)
	put(m, "driver.cpu_s", live.driverCPU)
	put(m, "driver.latency_samples", float64(len(live.latNs)))
	put(m, "driver.trace_overhead_ratio", ratio(traced.wall().Seconds(), plain.wall().Seconds()))

	// client
	stalls := live.ctr1.Stalls.Total() - live.ctr0.Stalls.Total()
	put(m, "client.issue_ns_per_req", ratio(float64(traced.pipe[kClientEnqueue].total), n))
	put(m, "client.window_occupancy", ratio(rps*mean(live.latNs)/1e9, float64(w.window)))
	put(m, "client.retries_per_req", ratio(float64(live.ctr1.Retries-live.ctr0.Retries), res))
	put(m, "client.stalls", float64(stalls))
	put(m, "client.latency_p999_us", float64(percentile(live.latNs, 99.9))/1e3)
	put(m, "client.fixed_d_violations", float64(max(live.led.Client.LatencyViolations, live.led.WrongD)))

	// wire
	wireNs := 0.0
	for _, k := range traced.wire {
		wireNs += float64(k.total)
	}
	put(m, "wire.encode_req_ns_per_req", ratio(float64(traced.wire[kEncReq].total), n))
	put(m, "wire.decode_req_ns_per_req", ratio(float64(traced.wire[kDecReq].total), n))
	put(m, "wire.encode_comp_ns_per_req", ratio(float64(traced.wire[kEncComp].total), n))
	put(m, "wire.decode_comp_ns_per_req", ratio(float64(traced.wire[kDecComp].total), n))
	put(m, "wire.bytes_per_req", ratio(float64(traced.wireBytes), n))
	put(m, "wire.pool_miss_ratio", ratio(float64(live.pool.Misses), float64(live.pool.Gets)))

	// server
	pipeNs := ratio(float64(traced.pipeWall.Nanoseconds()), n)
	mcNs := ratio(float64(traced.mc[kMcBatch].total), n)
	put(m, "server.cycles_per_s", ratio(cycles, wall))
	put(m, "server.req_per_cycle", ratio(res, cycles))
	put(m, "server.channel_busy_retries_per_req", ratio(float64(live.snap1.Busy-live.snap0.Busy), res))
	put(m, "server.stall_retries_per_req", ratio(float64(live.snap1.StallRetries-live.snap0.StallRetries), res))
	put(m, "server.pipe_ns_per_req", pipeNs)
	put(m, "server.pipe_req_per_cycle", ratio(n, float64(traced.pipeCycles)))
	put(m, "server.pipe_allocs_per_req", ratio(float64(plain.pipeMallocs), n))
	put(m, "server.self_ns_per_req", pipeNs-ratio(wireNs, n)-mcNs)

	// multichannel
	put(m, "multichannel.tick_ns", ratio(float64(traced.mc[kMcTick].total), float64(traced.mc[kMcTick].count)))
	put(m, "multichannel.issue_ns_per_req", ratio(float64(traced.mc[kMcBatch].self+traced.mc[kMcSweep].total), n))
	put(m, "multichannel.req_per_cycle", ratio(n, float64(traced.mcCycles)))
	put(m, "multichannel.ooo_hol_bypass_per_req", ratio(dm("vpnm_ooo_hol_bypass_total"), res))

	// core
	put(m, "core.tick_ns", ratio(float64(traced.core[kCoreTick].total), float64(traced.core[kCoreTick].count)))
	put(m, "core.issue_ns_per_req", ratio(float64(traced.core[kCoreBatch].self), n))
	put(m, "core.merged_read_ratio", ratio(dm("vpnm_merged_reads_total"), dm("vpnm_reads_total")))
	put(m, "core.stalls", dm("vpnm_stalls_total"))

	// coded
	put(m, "coded.decodes_per_req", ratio(dm("vpnm_coded_decodes_total"), res))
	put(m, "coded.grants_per_cycle_mean", ratio(dm("vpnm_coded_grants_per_cycle_sum"), dm("vpnm_coded_grants_per_cycle_count")))

	// hash
	put(m, "hash.ns_per_req", ratio(float64(traced.hash[0].total), n))

	// vpnmd
	put(m, "vpnmd.ready_s", median(live.readyS))
	put(m, "vpnmd.cpu_s", live.daemonCPU)
	put(m, "vpnmd.cpu_util", ratio(live.daemonCPU, wall))
	put(m, "vpnmd.transport_ns_per_req", ratio(1e9, rps)-pipeNs)
}
