package sim

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/multichannel"
	"repro/internal/qos"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// NetChaosOptions configures an end-to-end tenant-isolation run over a
// real TCP loopback with wire-level fault injection: a well-behaved
// "victim" tenant shares the engine with an adversarial "attacker"
// hammering one bank, both riding FlakyConn-wrapped transports, while
// the regulator is expected to keep the victim's latency and ledger
// untouched.
type NetChaosOptions struct {
	// Core configures the controller geometry. Zero selects the small
	// test geometry (8 banks, depth 16, 64 delay rows, 8-byte words).
	Core core.Config
	// Channels is the multichannel fan-out (power of two, default 2).
	Channels int
	// Net configures the wire fault injector applied to every dial of
	// both clients. Zero selects a default storm of short reads,
	// fragmented writes, injected latency, mid-frame cuts and resets.
	Net fault.NetConfig
	// AttackerLimit is the attacker tenant's token bucket. Zero
	// (unlimited) selects {Rate: 0.05, Burst: 4} — without a limit the
	// run would measure nothing.
	AttackerLimit qos.Limit
	// Writes is the victim's write-phase footprint (default 256 words);
	// Reads its verified read count (default 512); AttackerReads the
	// adversary's same-bank hammer volume (default 1024).
	Writes, Reads, AttackerReads int
	// Window is both clients' in-flight window (default 128).
	Window int
	// RequestTimeout arms each client's per-request deadline. It must
	// be generous: an expiry on the victim is a violation. Default 30s.
	RequestTimeout time.Duration
	// Timeout bounds the whole run including drain (default 120s).
	Timeout time.Duration
	// MaxVictimP99 bounds the victim tenant's p99 enqueue-to-delivery
	// latency in engine cycles (default 8192 — generous next to the
	// attacker's self-inflicted five-figure queue wait, tight next to
	// an unregulated engine).
	MaxVictimP99 uint64
	// Seed keys every PRNG in the run (default 1).
	Seed uint64
	// MaxViolations caps recorded invariant violations (default 16).
	MaxViolations int
}

// NetChaosResult aggregates a net-chaos run. As with ChaosResult, the
// run is judged by Violations: empty means every invariant held.
type NetChaosResult struct {
	// Victim and Attacker are the two client-side ledgers; the tenant
	// counters are the regulator's view of the same principals.
	Victim, Attacker             client.Counters
	VictimTenant, AttackerTenant qos.Counters
	// VictimP99 and AttackerP99 are per-tenant p99 enqueue-to-delivery
	// latencies in engine cycles (histogram upper-bound estimates).
	VictimP99, AttackerP99 uint64
	// Server is the engine ledger after a full drain.
	Server server.Snapshot
	// Net sums the fault counters across every connection both dialers
	// produced.
	Net fault.NetCounters
	// Delay is the fixed D the engine advertised.
	Delay int
	// Violations lists every invariant breach, capped at MaxViolations.
	Violations []string
}

// Ok reports whether the run upheld every invariant.
func (r *NetChaosResult) Ok() bool { return len(r.Violations) == 0 }

// String renders a multi-line report.
func (r *NetChaosResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "netchaos: D=%d cycle=%d victim{issued=%d comps=%d accw=%d drops=%d ddl=%d stalls=%d reconns=%d rexmit=%d latviol=%d}\n",
		r.Delay, r.Server.Cycle, r.Victim.Issued, r.Victim.Completions, r.Victim.AcceptedWrites,
		r.Victim.Drops, r.Victim.DeadlineExceeded, r.Victim.Stalls.Total(),
		r.Victim.Reconnects, r.Victim.Retransmits, r.Victim.LatencyViolations)
	fmt.Fprintf(&b, "attacker{issued=%d comps=%d drops=%d ddl=%d reconns=%d rexmit=%d latviol=%d}\n",
		r.Attacker.Issued, r.Attacker.Completions, r.Attacker.Drops, r.Attacker.DeadlineExceeded,
		r.Attacker.Reconnects, r.Attacker.Retransmits, r.Attacker.LatencyViolations)
	fmt.Fprintf(&b, "qos: victim{issued=%d throttled=%d p99=%d} attacker{issued=%d throttled=%d p99=%d}\n",
		r.VictimTenant.Issued, r.VictimTenant.Throttled, r.VictimP99,
		r.AttackerTenant.Issued, r.AttackerTenant.Throttled, r.AttackerP99)
	fmt.Fprintf(&b, "server: reads=%d writes=%d comps=%d throttled=%d dropped=%d outstanding=%d replays{served=%d deduped=%d}\n",
		r.Server.Reads, r.Server.Writes, r.Server.Completions, r.Server.Throttled,
		r.Server.Dropped, r.Server.Outstanding, r.Server.ReplaysServed, r.Server.ReplaysDeduped)
	fmt.Fprintf(&b, "net: reads=%d writes=%d partial=%d frag=%d delays=%d drops=%d resets=%d\n",
		r.Net.Reads, r.Net.Writes, r.Net.PartialReads, r.Net.Fragments,
		r.Net.Delays, r.Net.Drops, r.Net.Resets)
	if r.Ok() {
		fmt.Fprintf(&b, "invariants: all held")
	} else {
		fmt.Fprintf(&b, "invariants: %d VIOLATIONS\n", len(r.Violations))
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  - %s\n", v)
		}
	}
	return b.String()
}

// chaosDialer dials the engine's TCP address and wraps every conn in a
// freshly seeded FlakyConn, remembering them all so the run can sum
// fault counters, stop injecting for the drain phase, and sever the
// current transport on demand.
type chaosDialer struct {
	addr string
	cfg  fault.NetConfig
	calm atomic.Bool

	mu    sync.Mutex
	dials uint64
	cur   *fault.FlakyConn
	conns []*fault.FlakyConn
}

func (d *chaosDialer) dial() (net.Conn, error) {
	nc, err := net.Dial("tcp", d.addr)
	if err != nil {
		return nil, err
	}
	cfg := d.cfg
	d.mu.Lock()
	d.dials++
	cfg.Seed = d.cfg.Seed + d.dials*0x9e3779b97f4a7c15
	d.mu.Unlock()
	if d.calm.Load() {
		cfg = fault.NetConfig{Seed: cfg.Seed}
	}
	fc, err := fault.NewFlakyConn(nc, cfg)
	if err != nil {
		nc.Close()
		return nil, err
	}
	d.mu.Lock()
	d.cur = fc
	d.conns = append(d.conns, fc)
	d.mu.Unlock()
	return fc, nil
}

// calmDown stops injection on every conn, past and future: the drain
// phase must reconcile ledgers, not fight the weather.
func (d *chaosDialer) calmDown() {
	d.calm.Store(true)
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, fc := range d.conns {
		fc.StopInjecting()
	}
}

// cut severs the current transport, forcing a reconnect.
func (d *chaosDialer) cut() {
	d.mu.Lock()
	cur := d.cur
	d.mu.Unlock()
	if cur != nil {
		cur.Close()
	}
}

func (d *chaosDialer) counters() fault.NetCounters {
	var sum fault.NetCounters
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, fc := range d.conns {
		c := fc.Counters()
		sum.Reads += c.Reads
		sum.Writes += c.Writes
		sum.PartialReads += c.PartialReads
		sum.Fragments += c.Fragments
		sum.Delays += c.Delays
		sum.Drops += c.Drops
		sum.Resets += c.Resets
	}
	return sum
}

// RunNetChaos drives the full robustness stack end to end: a regulated
// two-tenant engine behind a real TCP listener, both tenants on
// fault-injected transports, the attacker hammering a single bank while
// the victim writes then verifies its own footprint. One transport cut
// is forced mid-read-phase so the resume path always runs. After the
// weather calms, both windows flush, the engine drains, and the
// invariants are checked:
//
//   - every victim read resolves exactly once with the data it wrote,
//     no drops, no deadline expiries, no surfaced stalls;
//   - zero fixed-D violations on delivered completions, both tenants;
//   - the victim tenant is never throttled; the attacker tenant is;
//   - the victim's p99 enqueue-to-delivery latency stays under
//     MaxVictimP99 despite the attacker's queue being pinned at its
//     token rate;
//   - client, regulator and server ledgers (including throttle, replay
//     and retry counters) reconcile exactly after drain.
//
// Violations are recorded, not fatal, so tests can assert on them.
func RunNetChaos(opts NetChaosOptions) (*NetChaosResult, error) {
	cfg := opts.Core
	if cfg.Banks == 0 {
		cfg = core.Config{Banks: 8, QueueDepth: 16, DelayRows: 64, WordBytes: 8}
	}
	channels := opts.Channels
	if channels <= 0 {
		channels = 2
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	weather := opts.Net
	if weather == (fault.NetConfig{}) {
		// Rates are per syscall, and batching keeps syscall counts low —
		// a few dozen per run — so the rates are high enough that a run
		// without a single injected fault is vanishingly unlikely.
		weather = fault.NetConfig{
			PartialReadRate:   0.25,
			FragmentWriteRate: 0.25,
			LatencyRate:       0.05,
			MaxLatency:        100 * time.Microsecond,
			DropRate:          0.01,
			ResetRate:         0.01,
		}
	}
	if weather.Seed == 0 {
		weather.Seed = seed
	}
	limit := opts.AttackerLimit
	if limit.Unlimited() {
		limit = qos.Limit{Rate: 0.05, Burst: 4}
	}
	writes, reads, hammer := opts.Writes, opts.Reads, opts.AttackerReads
	if writes <= 0 {
		writes = 256
	}
	if reads <= 0 {
		reads = 512
	}
	if hammer <= 0 {
		hammer = 1024
	}
	window := opts.Window
	if window <= 0 {
		window = 128
	}
	reqTimeout := opts.RequestTimeout
	if reqTimeout <= 0 {
		reqTimeout = 30 * time.Second
	}
	budget := opts.Timeout
	if budget <= 0 {
		budget = 120 * time.Second
	}
	maxP99 := opts.MaxVictimP99
	if maxP99 == 0 {
		maxP99 = 8192
	}
	maxV := opts.MaxViolations
	if maxV <= 0 {
		maxV = 16
	}

	res := &NetChaosResult{}
	violate := func(format string, a ...any) {
		if len(res.Violations) < maxV {
			res.Violations = append(res.Violations, fmt.Sprintf(format, a...))
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()

	// Engine: regulated, hold-policy (throttled and bank-stalled heads
	// wait in the queue, still completing at fixed D once issued), with
	// a telemetry registry so per-tenant latency histograms exist.
	mem, err := multichannel.New(cfg, channels, seed)
	if err != nil {
		return nil, err
	}
	reg, err := qos.NewRegulator(qos.Config{
		Limits:   map[string]qos.Limit{"attacker": limit},
		Registry: telemetry.NewRegistry(),
	})
	if err != nil {
		return nil, err
	}
	eng, err := server.New(server.Config{Mem: mem, QoS: reg, Window: window})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	go eng.Serve(ln) //nolint:errcheck // exits with the engine

	vicDial := &chaosDialer{addr: ln.Addr().String(), cfg: weather}
	atkCfg := weather
	atkCfg.Seed = weather.Seed ^ 0xa77ac4
	atkDial := &chaosDialer{addr: ln.Addr().String(), cfg: atkCfg}

	newClient := func(id uint64, tenant string, d *chaosDialer) (*client.Client, error) {
		nc, err := d.dial()
		if err != nil {
			return nil, err
		}
		return client.New(nc, client.Config{
			SessionID:      id,
			Tenant:         tenant,
			Dialer:         d.dial,
			Window:         window,
			RequestTimeout: reqTimeout,
			MaxReconnects:  -1, // the weather cuts repeatedly; the listener is always up
			BackoffBase:    time.Millisecond,
			BackoffMax:     20 * time.Millisecond,
			Seed:           int64(seed + id),
		}), nil
	}
	victim, err := newClient(1, "victim", vicDial)
	if err != nil {
		return nil, err
	}
	defer victim.Close()
	attacker, err := newClient(2, "attacker", atkDial)
	if err != nil {
		return nil, err
	}
	defer attacker.Close()

	// Arm both clients' fixed-D checks before any data moves.
	st, err := victim.Stats(ctx)
	if err != nil {
		return nil, fmt.Errorf("sim: netchaos stats: %w", err)
	}
	res.Delay = int(st.Delay)
	if _, err := attacker.Stats(ctx); err != nil {
		return nil, fmt.Errorf("sim: netchaos stats: %w", err)
	}

	// Victim write phase: a private write-once footprint.
	word := func(i uint64) []byte {
		b := make([]byte, cfg.WordBytes)
		for j := range b {
			b[j] = byte(i + uint64(j)*131 + seed)
		}
		return b
	}
	for i := uint64(0); i < uint64(writes); i++ {
		if err := victim.Write(ctx, i, word(i)); err != nil {
			violate("victim write %d failed: %v", i, err)
			break
		}
	}
	if err := victim.Flush(ctx); err != nil {
		violate("victim write flush failed: %v", err)
	}

	// Concurrent phase: the attacker hammers one address — one bank —
	// as fast as its window allows, while the victim reads its own
	// footprint back and verifies every word. Halfway through, the
	// victim's transport is cut to force the resume path.
	var atkErrs atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < hammer; i++ {
			err := attacker.Read(ctx, 0, func(cm client.Completion) {
				if cm.Err != nil {
					atkErrs.Add(1)
				}
			})
			if err != nil {
				atkErrs.Add(1)
				return
			}
		}
	}()

	var resolved atomic.Uint64
	var corrupt atomic.Uint64
	for i := 0; i < reads; i++ {
		if i == reads/2 {
			vicDial.cut()
		}
		addr := uint64(i % writes)
		want := word(addr)
		err := victim.Read(ctx, addr, func(cm client.Completion) {
			resolved.Add(1)
			if cm.Err != nil || !bytes.Equal(cm.Data, want) {
				corrupt.Add(1)
			}
		})
		if err != nil {
			violate("victim read %d failed: %v", i, err)
			break
		}
	}
	wg.Wait()

	// Calm the weather, then flush both windows: every request issued
	// above must resolve before the ledgers are read.
	vicDial.calmDown()
	atkDial.calmDown()
	if err := victim.Flush(ctx); err != nil {
		violate("victim final flush failed: %v", err)
	}
	if err := attacker.Flush(ctx); err != nil {
		violate("attacker final flush failed: %v", err)
	}

	res.Victim = victim.Counters()
	res.Attacker = attacker.Counters()
	vt, at := reg.Tenant("victim"), reg.Tenant("attacker")
	res.VictimTenant, res.AttackerTenant = vt.Counters(), at.Counters()
	res.VictimP99 = vt.Latency().Quantile(0.99)
	res.AttackerP99 = at.Latency().Quantile(0.99)

	snap, err := eng.Drain(ctx)
	if err != nil {
		violate("drain failed: %v", err)
		snap = eng.Snapshot()
	}
	res.Server = snap
	res.Net = vicDial.counters()
	atk := atkDial.counters()
	res.Net.Reads += atk.Reads
	res.Net.Writes += atk.Writes
	res.Net.PartialReads += atk.PartialReads
	res.Net.Fragments += atk.Fragments
	res.Net.Delays += atk.Delays
	res.Net.Drops += atk.Drops
	res.Net.Resets += atk.Resets

	// --- Invariants ---------------------------------------------------

	// The victim's service contract: every read resolved exactly once,
	// with the right data, no drops, no expiries, no surfaced stalls.
	if got := resolved.Load(); got != uint64(reads) {
		violate("victim resolved %d of %d reads", got, reads)
	}
	if n := corrupt.Load(); n != 0 {
		violate("%d victim reads returned wrong data or errors", n)
	}
	vc, ac := res.Victim, res.Attacker
	if vc.Drops != 0 || vc.DeadlineExceeded != 0 || vc.Stalls.Total() != 0 {
		violate("victim saw drops=%d deadline-expiries=%d stalls=%d, want all zero",
			vc.Drops, vc.DeadlineExceeded, vc.Stalls.Total())
	}
	if vc.LatencyViolations != 0 || ac.LatencyViolations != 0 {
		violate("fixed-D violated on delivered completions: victim=%d attacker=%d",
			vc.LatencyViolations, ac.LatencyViolations)
	}
	if vc.Reconnects == 0 {
		violate("forced transport cut produced no victim reconnect")
	}

	// Regulation: the attacker is throttled, the victim never is, and
	// the attacker's issue total respects its token bucket.
	if res.VictimTenant.Throttled != 0 {
		violate("victim tenant throttled %d times", res.VictimTenant.Throttled)
	}
	if res.AttackerTenant.Throttled == 0 {
		violate("attacker tenant was never throttled — regulation did not engage")
	}
	if cap := limit.Rate*float64(snap.Cycle) + limit.Burst + 1; float64(res.AttackerTenant.Issued) > cap {
		violate("attacker issued %d, over its bucket's %v-cycle budget %.0f",
			res.AttackerTenant.Issued, snap.Cycle, cap)
	}
	if res.VictimP99 > maxP99 {
		violate("victim p99 latency %d cycles exceeds bound %d", res.VictimP99, maxP99)
	}

	// Ledger reconciliation, exact after drain.
	if vc.Completions+vc.AcceptedWrites+vc.Drops+vc.DeadlineExceeded != vc.Issued {
		violate("victim ledger leaks: comps=%d + accw=%d + drops=%d + ddl=%d != issued=%d",
			vc.Completions, vc.AcceptedWrites, vc.Drops, vc.DeadlineExceeded, vc.Issued)
	}
	if ac.Completions+ac.AcceptedWrites+ac.Drops+ac.DeadlineExceeded != ac.Issued {
		violate("attacker ledger leaks: comps=%d + accw=%d + drops=%d + ddl=%d != issued=%d",
			ac.Completions, ac.AcceptedWrites, ac.Drops, ac.DeadlineExceeded, ac.Issued)
	}
	if n := atkErrs.Load(); n != 0 || ac.Drops != 0 || ac.DeadlineExceeded != 0 {
		violate("attacker saw %d errors, drops=%d deadline-expiries=%d — hold policy must surface none",
			n, ac.Drops, ac.DeadlineExceeded)
	}
	if vc.Retries != 0 || ac.Retries != 0 {
		violate("stall retries victim=%d attacker=%d, want zero under the hold policy", vc.Retries, ac.Retries)
	}
	if snap.Reads != vc.Completions+ac.Completions || snap.Completions != snap.Reads {
		violate("server executed reads=%d completions=%d, clients delivered %d+%d — replay dedup leaked",
			snap.Reads, snap.Completions, vc.Completions, ac.Completions)
	}
	if snap.Writes != vc.AcceptedWrites+ac.AcceptedWrites {
		violate("server executed writes=%d, clients had %d+%d accepted",
			snap.Writes, vc.AcceptedWrites, ac.AcceptedWrites)
	}
	if snap.Throttled != res.VictimTenant.Throttled+res.AttackerTenant.Throttled {
		violate("server throttle count %d != tenant sum %d+%d",
			snap.Throttled, res.VictimTenant.Throttled, res.AttackerTenant.Throttled)
	}
	if res.VictimTenant.Issued != vc.Issued || res.AttackerTenant.Issued != ac.Issued {
		violate("regulator issue counts victim=%d attacker=%d != client issue counts %d/%d",
			res.VictimTenant.Issued, res.AttackerTenant.Issued, vc.Issued, ac.Issued)
	}
	if res.VictimTenant.Queued != 0 || res.AttackerTenant.Queued != 0 {
		violate("tenant queues not empty after drain: victim=%d attacker=%d",
			res.VictimTenant.Queued, res.AttackerTenant.Queued)
	}
	if snap.Outstanding != 0 || snap.Stalls != 0 || snap.Dropped != 0 || snap.DrainRefused != 0 {
		violate("drained engine not clean: outstanding=%d stalls=%d dropped=%d drain-refused=%d",
			snap.Outstanding, snap.Stalls, snap.Dropped, snap.DrainRefused)
	}
	if res.Net.PartialReads+res.Net.Fragments+res.Net.Delays+res.Net.Drops+res.Net.Resets == 0 {
		violate("fault injector never fired — the run proved nothing")
	}
	return res, nil
}
