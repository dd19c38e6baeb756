// Command vpnmd serves a virtually pipelined network memory over TCP:
// the daemon the paper's line cards would talk to. It stripes the
// configured geometry across C independent VPNM channels
// (internal/multichannel), multiplexes every client connection onto
// them through the vpnmd engine (internal/server), and speaks the
// length-prefixed binary protocol of internal/wire.
//
//	vpnmd -addr :7450 -channels 4 -banks 32 -statsz :7451
//
// Clients (cmd/vpnmload, or anything built on internal/client) issue
// pipelined reads and writes; every read completes exactly D interface
// cycles after it issued, no matter the access pattern. The -statsz
// address serves the observability suite: /statsz (engine ledger as
// JSON), /metricsz (engine plus per-channel controller metrics as
// Prometheus text, including the live MTS estimate), /tracez
// (start/stop/download a cycle-stamped Chrome trace window), and
// /debug/pprof.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/coded"
	"repro/internal/core"
	"repro/internal/multichannel"
	"repro/internal/qos"
	"repro/internal/recovery"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// limitsFlag parses repeated -qos tenant=rate[:burst] flags into a
// per-tenant limit map (rate in requests per interface cycle, burst in
// requests).
type limitsFlag struct {
	m map[string]qos.Limit
}

func (f *limitsFlag) String() string {
	if f == nil || len(f.m) == 0 {
		return ""
	}
	parts := make([]string, 0, len(f.m))
	for name, l := range f.m {
		parts = append(parts, fmt.Sprintf("%s=%g:%g", name, l.Rate, l.Burst))
	}
	return strings.Join(parts, ",")
}

func (f *limitsFlag) Set(v string) error {
	name, spec, ok := strings.Cut(v, "=")
	if !ok || name == "" {
		return fmt.Errorf("want tenant=rate[:burst], got %q", v)
	}
	l, err := parseLimit(spec)
	if err != nil {
		return err
	}
	if f.m == nil {
		f.m = make(map[string]qos.Limit)
	}
	f.m[name] = l
	return nil
}

// parseLimit parses "rate" or "rate:burst" into a qos.Limit.
func parseLimit(spec string) (qos.Limit, error) {
	rs, bs, hasBurst := strings.Cut(spec, ":")
	var l qos.Limit
	var err error
	if l.Rate, err = strconv.ParseFloat(rs, 64); err != nil {
		return l, fmt.Errorf("bad rate %q: %v", rs, err)
	}
	if hasBurst {
		if l.Burst, err = strconv.ParseFloat(bs, 64); err != nil {
			return l, fmt.Errorf("bad burst %q: %v", bs, err)
		}
	}
	return l, l.Validate()
}

func main() {
	var (
		addr     = flag.String("addr", ":7450", "TCP listen address for the memory service")
		statsz   = flag.String("statsz", "", "HTTP listen address for /statsz, /metricsz, /tracez and /debug/pprof (empty disables)")
		traceCap = flag.Int("trace-events", 1<<16, "event trace ring capacity (events kept for /tracez downloads)")
		channels = flag.Int("channels", 4, "channel count (power of two); up to this many requests are accepted per cycle")
		banks    = flag.Int("banks", core.DefaultBanks, "banks per channel B")
		latency  = flag.Int("latency", core.DefaultAccessLatency, "bank occupancy L in memory cycles")
		queue    = flag.Int("queue", core.DefaultQueueDepth, "bank access queue depth Q")
		rows     = flag.Int("rows", core.DefaultDelayRows, "delay storage buffer rows K")
		word     = flag.Int("word", 8, "word size W in bytes")
		codedStr = flag.String("coded", "", "XOR-parity coded bank groups per channel, e.g. group=4,k=2 (empty/off = disabled)")
		ratio    = flag.Float64("ratio", 1.3, "bus scaling ratio R")
		seed     = flag.Uint64("seed", 1, "universal hash seed (keep secret in anger)")
		window   = flag.Int("window", server.DefaultWindow, "per-connection request window before TCP backpressure")
		policy   = flag.String("policy", "backpressure", "stall policy: retry | drop | backpressure (drop surfaces stalls to clients)")
		attempts = flag.Int("attempts", 0, "max hold-and-retry attempts per stalled request (0: default)")
		ooo      = flag.Bool("ooo", false, "out-of-order cross-channel issue: park blocked heads per channel and issue the oldest issuable request on every channel each cycle")
		oooDepth = flag.Int("ooo-depth", 0, "per-channel pending ring depth for -ooo (0: default)")
		quiet    = flag.Bool("q", false, "suppress connection lifecycle logging")

		qosDefault = flag.String("qos-default", "", "default tenant token bucket as rate[:burst] in req/cycle (empty: unlimited)")
		wtimeout   = flag.Duration("write-timeout", 10*time.Second, "per-frame write deadline to a client; a peer that stops reading is detached (0 disables)")
		drainT     = flag.Duration("drain", 30*time.Second, "graceful-drain budget on SIGINT/SIGTERM before forced shutdown")

		shardName    = flag.String("shard-name", "", "this daemon's name in a sharded fleet; arms the /statsz shard block (requires -shard-members)")
		shardMembers = flag.String("shard-members", "", "comma-separated fleet membership (must include -shard-name and match the router's)")
		shardVNodes  = flag.Int("shard-vnodes", 0, "ring virtual nodes per member (0: library default; must match the router's)")
		shardSeed    = flag.Uint64("shard-seed", 0, "ring permutation seed (0: library default; must match the router's)")
	)
	var qosLimits limitsFlag
	flag.Var(&qosLimits, "qos", "per-tenant token bucket as tenant=rate[:burst], repeatable")
	flag.Parse()

	pol, err := recovery.ParsePolicy(*policy)
	if err != nil {
		fatal(err)
	}
	num, den := ratioFrac(*ratio)
	geo, err := coded.ParseFlag(*codedStr)
	if err != nil {
		fatal(err)
	}
	cfg := core.Config{
		Banks:         *banks,
		AccessLatency: *latency,
		QueueDepth:    *queue,
		DelayRows:     *rows,
		WordBytes:     *word,
		RatioNum:      num,
		RatioDen:      den,
		Coded:         geo,
	}
	// Telemetry: one probe (and MTS estimator) per channel publishing
	// into a shared registry, and one event trace ring shared by every
	// channel's tracer. On the clock a probe only feeds its per-cycle
	// histograms (one weighted observation per idle span); its gauges
	// and counters are published when /metricsz is scraped. The disarmed
	// trace costs a single atomic load per event.
	reg := telemetry.NewRegistry()
	trace := telemetry.NewEventTrace(*traceCap)
	trace.SetRatio(num, den)
	mem, err := multichannel.New(cfg, *channels, *seed,
		multichannel.WithProbes(func(ch int) telemetry.Probe {
			label := strconv.Itoa(ch)
			p := telemetry.NewMemProbe(reg, label, *banks, *queue, *banks**rows)
			if geo.Enabled() {
				p.EnableCoded(reg, label, geo.ReadPorts())
			}
			est := telemetry.NewMTSEstimator(*queue)
			est.Model(*banks, *latency, float64(num)/float64(den))
			p.AttachEstimator(reg, est, label)
			return p
		}),
		multichannel.WithTracers(func(ch int) core.Tracer { return trace.ForChannel(ch) }),
	)
	if err != nil {
		fatal(err)
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	if *quiet {
		logf = nil
	}
	// QoS: one regulator shared by every session, publishing per-tenant
	// vpnm_tenant_* series into the same registry /metricsz serves. It
	// is built whenever any limit is configured; without limits every
	// tenant is unlimited and the engine skips regulation entirely.
	var regulator *qos.Regulator
	if *qosDefault != "" || len(qosLimits.m) > 0 {
		qcfg := qos.Config{Limits: qosLimits.m, Registry: reg}
		if *qosDefault != "" {
			l, err := parseLimit(*qosDefault)
			if err != nil {
				fatal(fmt.Errorf("-qos-default: %w", err))
			}
			qcfg.Default = l
		}
		if regulator, err = qos.NewRegulator(qcfg); err != nil {
			fatal(err)
		}
	}
	eng, err := server.New(server.Config{
		Mem:          mem,
		Window:       *window,
		Policy:       pol,
		MaxAttempts:  *attempts,
		QoS:          regulator,
		OOO:          *ooo,
		OOODepth:     *oooDepth,
		Metrics:      reg,
		WriteTimeout: *wtimeout,
		Logf:         logf,
	})
	if err != nil {
		fatal(err)
	}

	// Shard identity: a fleet member daemon computes its ring view once
	// (membership is static from flags; cmd/vpnmfleet installs a live
	// provider instead) and serves it as the /statsz "shard" block.
	if *shardName != "" {
		members := strings.Split(*shardMembers, ",")
		ring, err := shard.NewRing(shard.RingConfig{VNodes: *shardVNodes, Seed: *shardSeed}, members)
		if err != nil {
			fatal(fmt.Errorf("-shard-members: %w", err))
		}
		found := false
		for _, m := range ring.Members() {
			found = found || m == *shardName
		}
		if !found {
			fatal(fmt.Errorf("-shard-name %q is not in -shard-members %q", *shardName, *shardMembers))
		}
		state := shard.Node(ring, *shardName)
		eng.SetShardState(func() any { return state })
	} else if *shardMembers != "" {
		fatal(fmt.Errorf("-shard-members requires -shard-name"))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	codedNote := ""
	if geo.Enabled() {
		codedNote = fmt.Sprintf(", coded %s (%d read ports/cycle)", geo, mem.Ports())
	}
	fmt.Printf("vpnmd: serving %d channels x %d banks, D=%d cycles, word=%dB, policy=%s%s on %s\n",
		*channels, *banks, mem.Delay(), *word, pol, codedNote, ln.Addr())

	if *statsz != "" {
		mux := http.NewServeMux()
		mux.Handle("/healthz", eng.HealthzHandler())
		mux.Handle("/statsz", eng.StatszHandler())
		mux.Handle("/metricsz", eng.MetricsHandler(reg))
		mux.Handle("/tracez", telemetry.TraceHandler(trace, eng.Cycle))
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		srv := &http.Server{Addr: *statsz, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "vpnmd: statsz:", err)
			}
		}()
		fmt.Printf("vpnmd: /statsz /metricsz /tracez /debug/pprof on %s\n", *statsz)
	}

	// First signal: graceful drain — stop accepting, refuse new work
	// with CodeDraining, run everything admitted to completion, report
	// the final ledger. Second signal (or an expired -drain budget):
	// forced shutdown.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-sig
		fmt.Printf("vpnmd: draining (budget %v; signal again to force shutdown)\n", *drainT)
		go func() {
			<-sig
			fmt.Println("vpnmd: forced shutdown")
			eng.Close()
		}()
		dctx, dcancel := context.WithTimeout(context.Background(), *drainT)
		snap, err := eng.Drain(dctx)
		dcancel()
		if err != nil {
			fmt.Fprintln(os.Stderr, "vpnmd: drain:", err)
		} else {
			fmt.Printf("vpnmd: drained clean: %d completions, 0 outstanding, %d refused during drain\n",
				snap.Completions, snap.DrainRefused)
		}
		eng.Close()
	}()

	if err := eng.Serve(ln); err != nil {
		fatal(err)
	}
	<-shutdownDone // Serve returns at drain start; the ledger below is final
	s := eng.Snapshot()
	fmt.Printf("vpnmd: served %d reads, %d writes, %d completions (%d throttled) over %d cycles\n",
		s.Reads, s.Writes, s.Completions, s.Throttled, s.Cycle)
}

// ratioFrac turns a decimal R into a small fraction (R >= 1, two
// decimal places are plenty for the paper's 1.0-1.5 range).
func ratioFrac(r float64) (num, den int) {
	den = 100
	num = int(r*float64(den) + 0.5)
	for num%10 == 0 && den%10 == 0 {
		num /= 10
		den /= 10
	}
	return num, den
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vpnmd:", err)
	os.Exit(1)
}
