// Command vpnmload is a closed-loop load generator for vpnmd: it keeps
// a configurable window of pipelined requests in flight against a live
// server, then reports requests per second and the completion latency
// distribution in interface cycles — which, this being a virtually
// pipelined memory, must be a single spike at exactly D. Any completion
// whose cycle stamps disagree with the server's advertised D counts as
// a fixed-D violation and fails the run, so vpnmload doubles as the
// end-to-end verifier for the service's headline invariant.
//
//	vpnmd -addr :7450 &
//	vpnmload -addr localhost:7450 -duration 5s -window 512
//
// With -shards the load rides shard.Router over an N-shard fleet
// instead of one daemon: requests route by address over the
// deterministic ring, the fixed-D check runs per shard, and the report
// gains a per-shard breakdown. Any shard violating its fixed D fails
// the run, exactly as a single daemon would:
//
//	vpnmload -shards host1:7450,host2:7450 -duration 5s
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"os/signal"
	"sort"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/recovery"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// summary is the -json run report: one object on stdout, machine-ready.
type summary struct {
	Requests        uint64                      `json:"requests"`
	Reads           uint64                      `json:"reads"`
	Writes          uint64                      `json:"writes"`
	ElapsedSeconds  float64                     `json:"elapsed_seconds"`
	ReqPerSecond    float64                     `json:"req_per_second"`
	Cycles          uint64                      `json:"cycles"`
	ReqPerCycle     float64                     `json:"req_per_cycle"`
	Delay           uint64                      `json:"delay_cycles"`
	LatencyP50      uint64                      `json:"latency_p50_cycles"`
	LatencyP99      uint64                      `json:"latency_p99_cycles"`
	LatencyP100     uint64                      `json:"latency_p100_cycles"`
	Completions     uint64                      `json:"completions"`
	Uncorrectable   uint64                      `json:"uncorrectable"`
	Retries         uint64                      `json:"retries"`
	Drops           uint64                      `json:"drops"`
	Violations      uint64                      `json:"fixed_d_violations"`
	DeadlineExpired uint64                      `json:"deadline_exceeded"`
	Reconnects      uint64                      `json:"reconnects"`
	Retransmits     uint64                      `json:"retransmits"`
	StallsSurfaced  uint64                      `json:"stalls_surfaced"`
	ChannelBusy     uint64                      `json:"channel_busy_retries"`
	LatencyCycles   map[uint64]uint64           `json:"latency_histogram_cycles"`
	IssueRatePerSec telemetry.HistogramSnapshot `json:"issue_rate_per_second"`
	Shards          []shardSummary              `json:"shards,omitempty"`
}

// shardSummary is one shard's slice of the -shards -json breakdown.
type shardSummary struct {
	Name           string `json:"name"`
	Delay          uint64 `json:"delay_cycles"`
	Cycles         uint64 `json:"cycles"`
	Issued         uint64 `json:"issued"`
	Reads          uint64 `json:"reads"`
	Writes         uint64 `json:"writes"`
	Completions    uint64 `json:"completions"`
	AcceptedWrites uint64 `json:"accepted_writes"`
	Retries        uint64 `json:"retries"`
	Drops          uint64 `json:"drops"`
	Violations     uint64 `json:"fixed_d_violations"`
	Reconnects     uint64 `json:"reconnects"`
	StallsSurfaced uint64 `json:"stalls_surfaced"`
	ChannelBusy    uint64 `json:"channel_busy_retries"`
}

func main() {
	var (
		addr       = flag.String("addr", "localhost:7450", "vpnmd address")
		shardsList = flag.String("shards", "", "comma-separated fleet as addr or name=addr; load rides the shard router over every member instead of -addr")
		duration   = flag.Duration("duration", 5*time.Second, "load duration")
		window     = flag.Int("window", 512, "in-flight request window (closed loop)")
		batch      = flag.Int("batch", 256, "max requests per frame")
		writeFrac  = flag.Float64("writefrac", 0.1, "fraction of requests that are writes")
		addrSpace  = flag.Uint64("addrspace", 1<<20, "address space to spray requests over")
		seed       = flag.Uint64("seed", 1, "workload PRNG seed")
		policy     = flag.String("policy", "retry", "stall policy: retry | drop | backpressure")
		timeout    = flag.Duration("timeout", time.Minute, "overall run budget; on expiry the run exits nonzero with a partial ledger dump (0 disables)")
		tenant     = flag.String("tenant", "", "tenant name presented in the Hello (the server-side QoS principal)")
		session    = flag.Uint64("session", 0, "nonzero session id: reconnect with backoff on transport failure and resume the in-flight window")
		reqTimeout = flag.Duration("reqtimeout", 0, "per-request deadline; expiries resolve locally as ErrDeadlineExceeded (0 disables)")
		jsonOut    = flag.Bool("json", false, "emit the final run summary as one JSON object on stdout (human output moves to stderr)")
	)
	flag.Parse()

	// With -json, stdout carries exactly one JSON object; everything a
	// human reads goes to stderr so pipelines stay parseable.
	human := os.Stdout
	if *jsonOut {
		human = os.Stderr
	}

	pol, err := recovery.ParsePolicy(*policy)
	if err != nil {
		fatal(err)
	}
	ccfg := client.Config{
		Window:         *window,
		MaxBatch:       *batch,
		Policy:         pol,
		Tenant:         *tenant,
		SessionID:      *session,
		RequestTimeout: *reqTimeout,
	}
	// target is what the issue loop talks to: one client, or the fleet
	// router (which satisfies the same Read/Write/Flush shape).
	type target interface {
		Read(ctx context.Context, addr uint64, cb func(client.Completion)) error
		Write(ctx context.Context, addr uint64, data []byte) error
		Flush(ctx context.Context) error
	}
	var (
		c      *client.Client // single-daemon mode
		router *shard.Router  // -shards fleet mode
		tgt    target
	)
	if *shardsList != "" {
		specs, err := parseShards(*shardsList)
		if err != nil {
			fatal(err)
		}
		rctx, rcancel := context.WithTimeout(context.Background(), 30*time.Second)
		router, err = shard.NewRouter(rctx, shard.RouterConfig{Client: ccfg}, specs)
		rcancel()
		if err != nil {
			fatal(err)
		}
		defer router.Close()
		tgt = router
	} else {
		if c, err = client.Dial(*addr, ccfg); err != nil {
			fatal(err)
		}
		defer c.Close()
		tgt = c
	}
	counters := func() client.Counters {
		if router != nil {
			return router.Counters().Total
		}
		return c.Counters()
	}

	// fatalPartial is the -timeout escape hatch: whatever the ledger
	// holds right now goes out before the nonzero exit, so a wedged
	// server still yields a diagnosable report instead of a hung pipe.
	fatalPartial := func(err error) {
		ctr := counters()
		fmt.Fprintln(os.Stderr, "vpnmload:", err)
		fmt.Fprintf(os.Stderr, "vpnmload: PARTIAL ledger: issued=%d completions=%d accepted-writes=%d drops=%d stalls=%d retries=%d deadline-expiries=%d reconnects=%d retransmits=%d fixed-D-violations=%d\n",
			ctr.Issued, ctr.Completions, ctr.AcceptedWrites, ctr.Drops, ctr.Stalls.Total(),
			ctr.Retries, ctr.DeadlineExceeded, ctr.Reconnects, ctr.Retransmits, ctr.LatencyViolations)
		if *jsonOut {
			json.NewEncoder(os.Stdout).Encode(map[string]any{ //nolint:errcheck // already failing
				"partial": true, "error": err.Error(), "counters": ctr,
			})
		}
		os.Exit(1)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	// The overall budget bounds every blocking call — issue (which can
	// park on the window), flush and stats — so a server that stops
	// completing cannot hang the run.
	var wall time.Time
	runCtx := ctx
	if *timeout > 0 {
		wall = time.Now().Add(*timeout)
		var tcancel context.CancelFunc
		runCtx, tcancel = context.WithDeadline(ctx, wall)
		defer tcancel()
	}
	// budgeted derives a per-call context that never outlives the wall.
	budgeted := func(d time.Duration) (context.Context, context.CancelFunc) {
		if !wall.IsZero() {
			if r := time.Until(wall); r < d {
				d = r
			}
		}
		if d <= 0 {
			return context.WithCancel(runCtx) // already expired; fail fast
		}
		return context.WithTimeout(context.Background(), d)
	}

	// The opening Stats call teaches the client the server's D and arms
	// its per-completion fixed-D check (the router already did this per
	// shard at attach; here it snapshots the starting cycle counts).
	var before, after wire.Stats
	var beforeShards, afterShards map[string]wire.Stats
	sctx, scancel := budgeted(30 * time.Second)
	if router != nil {
		beforeShards, err = router.Stats(sctx)
	} else {
		before, err = c.Stats(sctx)
	}
	scancel()
	if err != nil {
		fatal(err)
	}
	if router != nil {
		for _, name := range router.Members() {
			st := beforeShards[name]
			fmt.Fprintf(human, "vpnmload: shard %s D=%d cycles, %d channels, cycle=%d\n",
				name, st.Delay, st.Channels, st.Cycle)
		}
	} else {
		fmt.Fprintf(human, "vpnmload: server D=%d cycles, %d channels, cycle=%d\n",
			before.Delay, before.Channels, before.Cycle)
	}

	// Latency histogram in cycles, owned by the receive goroutine (all
	// callbacks run there); read only after Flush has quiesced it.
	hist := make(map[uint64]uint64)
	var flagged, dropped uint64
	cb := func(comp client.Completion) {
		if comp.Err != nil {
			if comp.Err == core.ErrUncorrectable {
				flagged++
				hist[comp.DeliveredAt-comp.IssuedAt]++
			} else {
				dropped++
			}
			return
		}
		hist[comp.DeliveredAt-comp.IssuedAt]++
	}

	rng := rand.New(rand.NewPCG(*seed, 0x9e3779b97f4a7c15))
	word := make([]byte, 8)
	var issued uint64
	// Issue-rate histogram: requests per second, sampled over ~100ms
	// windows — the client-side view of how evenly load was offered.
	issueRate := telemetry.NewHistogram(telemetry.ExponentialBounds(1000, 2, 16))
	var windowIssued uint64
	windowStart := time.Now()
	start := time.Now()
	deadline := start.Add(*duration)
	for {
		// Check the clock (and the signal context) every 1024 requests.
		if issued%1024 == 0 {
			now := time.Now()
			if w := now.Sub(windowStart); w >= 100*time.Millisecond {
				issueRate.Observe(uint64(float64(windowIssued) / w.Seconds()))
				windowIssued = 0
				windowStart = now
			}
			if now.After(deadline) || runCtx.Err() != nil {
				break
			}
		}
		a := rng.Uint64N(*addrSpace)
		if *writeFrac > 0 && rng.Float64() < *writeFrac {
			for i := range word {
				word[i] = byte(rng.Uint64())
			}
			err = tgt.Write(runCtx, a, word)
		} else {
			err = tgt.Read(runCtx, a, cb)
		}
		if err != nil {
			if runCtx.Err() == context.DeadlineExceeded && ctx.Err() == nil {
				fatalPartial(fmt.Errorf("overall -timeout %v expired with the issue window wedged", *timeout))
			}
			if runCtx.Err() != nil {
				break
			}
			fatal(err)
		}
		issued++
		windowIssued++
	}
	if runCtx.Err() == context.DeadlineExceeded && ctx.Err() == nil {
		fatalPartial(fmt.Errorf("overall -timeout %v expired during issue", *timeout))
	}
	fctx, fcancel := budgeted(30 * time.Second)
	err = tgt.Flush(fctx)
	fcancel()
	elapsed := time.Since(start)
	if err != nil {
		fatalPartial(fmt.Errorf("flush: %w", err))
	}
	sctx, scancel = budgeted(30 * time.Second)
	if router != nil {
		afterShards, err = router.Stats(sctx)
	} else {
		after, err = c.Stats(sctx)
	}
	scancel()
	if err != nil {
		fatalPartial(fmt.Errorf("stats: %w", err))
	}

	ctr := counters()
	// Fleet mode folds the per-shard views into the run aggregates: the
	// cycle span is the widest shard's (shards tick independently), the
	// stall/busy deltas sum, and the headline D is the common one (0 if
	// the shards disagree — per-shard Ds are in the breakdown).
	var perShard []shardSummary
	cycles := after.Cycle - before.Cycle
	stallsSurfaced := after.Stalls - before.Stalls
	channelBusy := after.Busy - before.Busy
	delay := after.Delay
	if router != nil {
		cycles, stallsSurfaced, channelBusy, delay = 0, 0, 0, 0
		fc := router.Counters()
		common := true
		for _, sc := range fc.Shards {
			b, a := beforeShards[sc.Name], afterShards[sc.Name]
			span := a.Cycle - b.Cycle
			if sc.Retired { // drained mid-run: no after snapshot
				span = 0
			}
			if span > cycles {
				cycles = span
			}
			stallsSurfaced += a.Stalls - b.Stalls
			channelBusy += a.Busy - b.Busy
			if delay == 0 {
				delay = sc.Delay
			} else if sc.Delay != delay {
				common = false
			}
			perShard = append(perShard, shardSummary{
				Name:           sc.Name,
				Delay:          sc.Delay,
				Cycles:         span,
				Issued:         sc.Issued,
				Reads:          sc.Reads,
				Writes:         sc.Writes,
				Completions:    sc.Completions,
				AcceptedWrites: sc.AcceptedWrites,
				Retries:        sc.Retries,
				Drops:          sc.Drops,
				Violations:     sc.LatencyViolations,
				Reconnects:     sc.Reconnects,
				StallsSurfaced: a.Stalls - b.Stalls,
				ChannelBusy:    a.Busy - b.Busy,
			})
		}
		if !common {
			delay = 0
		}
	}
	rate := float64(issued) / elapsed.Seconds()
	fmt.Fprintf(human, "vpnmload: %d requests (%d reads, %d writes) in %.2fs = %.0f req/s\n",
		issued, ctr.Reads, ctr.Writes, elapsed.Seconds(), rate)
	fmt.Fprintf(human, "vpnmload: server advanced %d cycles (%.3f req/cycle), %d stall(s) surfaced, %d channel-busy retried\n",
		cycles, float64(issued)/float64(max(cycles, 1)), stallsSurfaced, channelBusy)
	for _, ss := range perShard {
		fmt.Fprintf(human, "vpnmload: shard %s: issued=%d completions=%d accepted-writes=%d retries=%d drops=%d reconnects=%d fixed-D-violations=%d\n",
			ss.Name, ss.Issued, ss.Completions, ss.AcceptedWrites, ss.Retries, ss.Drops, ss.Reconnects, ss.Violations)
	}
	p50, p99, p100 := percentiles(hist)
	fmt.Fprintf(human, "vpnmload: latency cycles p50=%d p99=%d p100=%d (D=%d)\n", p50, p99, p100, delay)
	printLatencyHistogram(human, hist)
	irs := issueRate.Snapshot()
	if irs.Count > 0 {
		fmt.Fprintf(human, "vpnmload: issue rate per 100ms window: p50<=%d/s p99<=%d/s over %d windows\n",
			irs.Quantile(0.5), irs.Quantile(0.99), irs.Count)
	}
	fmt.Fprintf(human, "vpnmload: completions=%d uncorrectable=%d retries=%d drops=%d deadline-expiries=%d reconnects=%d fixed-D violations=%d\n",
		ctr.Completions, flagged, ctr.Retries, dropped, ctr.DeadlineExceeded, ctr.Reconnects, ctr.LatencyViolations)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(summary{
			Requests:        issued,
			Reads:           ctr.Reads,
			Writes:          ctr.Writes,
			ElapsedSeconds:  elapsed.Seconds(),
			ReqPerSecond:    rate,
			Cycles:          cycles,
			ReqPerCycle:     float64(issued) / float64(max(cycles, 1)),
			Delay:           delay,
			LatencyP50:      p50,
			LatencyP99:      p99,
			LatencyP100:     p100,
			Completions:     ctr.Completions,
			Uncorrectable:   flagged,
			Retries:         ctr.Retries,
			Drops:           dropped,
			Violations:      ctr.LatencyViolations,
			DeadlineExpired: ctr.DeadlineExceeded,
			Reconnects:      ctr.Reconnects,
			Retransmits:     ctr.Retransmits,
			StallsSurfaced:  stallsSurfaced,
			ChannelBusy:     channelBusy,
			LatencyCycles:   hist,
			IssueRatePerSec: irs,
			Shards:          perShard,
		}); err != nil {
			fatal(err)
		}
	}
	if ctr.LatencyViolations > 0 {
		for _, ss := range perShard {
			if ss.Violations > 0 {
				fmt.Fprintf(os.Stderr, "vpnmload: shard %s: %d fixed-D violations\n", ss.Name, ss.Violations)
			}
		}
		fmt.Fprintln(os.Stderr, "vpnmload: FIXED-D INVARIANT VIOLATED")
		os.Exit(1)
	}
	fmt.Fprintln(human, "vpnmload: fixed-D invariant held for every completion")
}

// printLatencyHistogram dumps the cycle histogram, which for a healthy
// run is a single line: every completion at exactly D.
func printLatencyHistogram(w *os.File, hist map[uint64]uint64) {
	if len(hist) == 0 {
		return
	}
	keys := make([]uint64, 0, len(hist))
	for k := range hist {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	fmt.Fprintln(w, "vpnmload: latency histogram (cycles: completions):")
	for _, k := range keys {
		fmt.Fprintf(w, "vpnmload:   %6d: %d\n", k, hist[k])
	}
}

// percentiles walks the cycle histogram for p50/p99/p100.
func percentiles(hist map[uint64]uint64) (p50, p99, p100 uint64) {
	if len(hist) == 0 {
		return 0, 0, 0
	}
	keys := make([]uint64, 0, len(hist))
	var total uint64
	for k, n := range hist {
		keys = append(keys, k)
		total += n
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var cum uint64
	for _, k := range keys {
		cum += hist[k]
		if p50 == 0 && cum*2 >= total {
			p50 = k
		}
		if p99 == 0 && cum*100 >= total*99 {
			p99 = k
		}
	}
	return p50, p99, keys[len(keys)-1]
}

// parseShards turns "-shards a:7450,b=host:7450" into router specs:
// each element is an address (doubling as the shard name) or an
// explicit name=addr pair. Names must match the daemons' -shard-name
// flags if those are set.
func parseShards(list string) ([]shard.Spec, error) {
	var specs []shard.Spec
	for _, part := range strings.Split(list, ",") {
		name, addr, ok := strings.Cut(part, "=")
		if !ok {
			name, addr = part, part
		}
		if name == "" || addr == "" {
			return nil, fmt.Errorf("bad -shards element %q: want addr or name=addr", part)
		}
		dialAddr := addr
		specs = append(specs, shard.Spec{Name: name, Dial: func() (net.Conn, error) {
			return net.Dial("tcp", dialAddr)
		}})
	}
	return specs, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vpnmload:", err)
	os.Exit(1)
}
