// Package server implements the vpnmd engine: it serves a striped
// multichannel.Memory to N concurrent network clients over the wire
// protocol, turning the in-process VPNM controller into the
// deterministic-latency memory *service* the paper describes — line
// cards on one side of a link, the memory system on the other.
//
// One engine goroutine owns the memory and its clock. Client state is
// split in two: a *session* is the durable half (request queue,
// in-flight window, replay cache, staged output) and a *conn* is the
// disposable transport half (one net.Conn plus its reader and writer
// goroutines). A client that announces a nonzero SessionID in a Hello
// frame can lose its transport and reconnect: the new conn attaches to
// the old session, parked output flushes, still-queued work keeps
// executing, and replayed requests are answered from the replay cache
// instead of re-executing — so a flaky network changes *when* verdicts
// arrive, never *how many times* they are counted.
//
// Every interface cycle the engine drains as many queued requests as
// the channels can accept — round-robin across sessions for fairness,
// FIFO within a session so the VPNM ordering contract (reads see prior
// writes to the same address) survives the network — then ticks the
// memory and routes the cycle's completions, still stamped with their
// IssuedAt/DeliveredAt cycles, back to whichever session issued them.
//
// Backpressure maps onto the paper's stall semantics at four levels:
//
//   - a tenant over its provisioned rate (Config.QoS) has its queue
//     head refused a token: under DropWithAccounting the refusal
//     surfaces as StatusStall/CodeThrottled, otherwise the head is held
//     until the bucket refills — the adversary pays, the victims don't
//     (the paper's provisioning argument turned into an enforced
//     contract);
//   - a channel that already accepted a request this cycle
//     (multichannel.ErrChannelBusy) holds the session's queue head for
//     one cycle — the interface-level analogue of a bank conflict,
//     absorbed invisibly;
//   - a controller stall (core.ErrStall*) is handled by the configured
//     recovery policy: hold-and-retry ("stall the device") or a
//     StatusStall reply that surfaces the stall to the client's own
//     recovery policy ("drop the packet", with the client free to
//     re-issue);
//   - a full per-session queue stops the reader, so TCP flow control
//     pushes the stall all the way back to the remote device.
//
// ErrUncorrectable crosses the wire as a completion flag: the word is
// on time — the pipeline never skips a beat — but untrusted.
//
// Drain (the graceful half of fault tolerance) flips the engine into a
// refuse-new/finish-old mode: Serve stops accepting, new reads and
// writes come back StatusDropped/CodeDraining, flushes and stats still
// work so clients can collect what they are owed, and Drain returns the
// final ledger once the pipeline is provably empty.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/multichannel"
	"repro/internal/qos"
	"repro/internal/recovery"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// DefaultWindow bounds the per-session queue of decoded-but-unissued
// requests when Config.Window is zero.
const DefaultWindow = 1024

// DefaultOOODepth bounds each channel's out-of-order pending queue when
// Config.OOO is on and Config.OOODepth is zero.
const DefaultOOODepth = multichannel.DefaultStageDepth

// Config tunes an Engine.
type Config struct {
	// Mem is the striped memory to serve. Required. The engine owns its
	// clock: nothing else may call Tick/Read/Write while the engine runs.
	Mem *multichannel.Memory
	// Window bounds the per-session queue of requests decoded but not
	// yet issued. When the queue is full the reader stops draining the
	// socket, so backpressure propagates to the client through TCP flow
	// control. Zero selects DefaultWindow.
	Window int
	// Policy maps controller stalls onto the connection.
	// DropWithAccounting surfaces every stall as a StatusStall reply and
	// lets the client's recovery policy decide; RetryNextCycle and
	// Backpressure (the default) hold the stalled request at the queue
	// head and re-present it each cycle, up to MaxAttempts.
	Policy recovery.Policy
	// MaxAttempts bounds hold-and-retry before the request is dropped
	// with a StatusDropped reply. Zero selects
	// recovery.DefaultMaxAttempts.
	MaxAttempts int
	// QoS, when non-nil, regulates tenants: every session's Hello tenant
	// name maps to a token bucket, and a queue head is only presented to
	// the memory once its tenant holds a token. The regulator's clock is
	// the engine clock — buckets refill one interface cycle at a time
	// (idle skips included), so rate limits are in requests per
	// interface cycle, the same unit the paper provisions banks in.
	// With OOO on, the token is charged at ADMISSION into the
	// out-of-order stage, so a throttled tenant's held queue head never
	// occupies a channel slot another tenant could use.
	QoS *qos.Regulator
	// OOO enables the out-of-order issue stage: instead of blocking a
	// session's whole queue on one channel's same-cycle collision, the
	// engine admits queue heads into per-channel pending rings and
	// issues the oldest issuable request on EVERY channel each cycle,
	// lifting req/cycle from the in-order collision expectation (~1.82
	// at 4 channels) toward the channel count. Fixed-D is untouched
	// (the contract is per-request) and same-address ordering is
	// preserved structurally — see multichannel.Stage. The in-order
	// sweep remains the default.
	OOO bool
	// OOODepth bounds each channel's pending ring in the out-of-order
	// stage. Zero selects DefaultOOODepth. Ignored without OOO.
	OOODepth int
	// Metrics, when non-nil alongside OOO, registers the vpnm_ooo_*
	// series (reorder-depth histogram, per-channel pending occupancy
	// gauges, head-of-line-bypass counter) on the given registry.
	Metrics *telemetry.Registry
	// WriteTimeout, when positive, bounds each frame write to a client.
	// A peer that stops reading trips the deadline; the conn detaches
	// and the session keeps the undelivered output for resume.
	WriteTimeout time.Duration
	// DedupWindow bounds the per-session replay cache of positive
	// verdicts (write accepts and read completions). Zero selects
	// DefaultDedupWindow.
	DedupWindow int
	// Lockstep, when true, makes throughput deterministic: the engine
	// admits request frames one at a time in arrival order and fully
	// drains each frame (every request issued, flush barriers resolved)
	// before admitting the next, and it never ticks while idle. Given a
	// deterministic frame stream, the cycle counter is a pure function
	// of the request sequence — the mode the gated loopback benchmark
	// and differential tests use. Clients must size their in-flight
	// window so they never block waiting for a completion that only a
	// future frame's ticks (or an OpFlush) would deliver.
	Lockstep bool
	// PoolCheck arms the buffer pool's leak/double-put detector: every
	// pooled buffer (request payloads, completion payloads, outgoing
	// frames) is tracked by identity, and PoolClean reports whether the
	// pool drained back to empty. The chaos harness asserts this after
	// every run; it costs a map operation per pooled Get/Put, so leave
	// it off outside tests.
	PoolCheck bool
	// Logf, when non-nil, receives connection lifecycle diagnostics.
	Logf func(format string, args ...any)
}

// Snapshot is the engine's ledger, exposed on /statsz and used by the
// loopback tests to reconcile against client-side counters.
type Snapshot struct {
	Cycle uint64 `json:"cycle"`
	Delay int    `json:"delay"`
	// Channels is the stripe width; Ports is the per-cycle read
	// admission ceiling (Channels times the coded read-port count).
	// CodedGroup/CodedK advertise the coded-bank geometry, omitted when
	// XOR-parity bank groups are off.
	Channels       int    `json:"channels"`
	Ports          int    `json:"ports"`
	CodedGroup     int    `json:"coded_group,omitempty"`
	CodedK         int    `json:"coded_k,omitempty"`
	Conns          int    `json:"conns"`
	Sessions       int    `json:"sessions"`
	Draining       bool   `json:"draining"`
	Reads          uint64 `json:"reads"`
	Writes         uint64 `json:"writes"`
	Stalls         uint64 `json:"stalls_surfaced"`
	StallRetries   uint64 `json:"stall_retries"`
	Busy           uint64 `json:"channel_busy_retries"`
	Throttled      uint64 `json:"throttled"`
	Dropped        uint64 `json:"dropped"`
	DrainRefused   uint64 `json:"drain_refused"`
	Completions    uint64 `json:"completions"`
	Uncorrectable  uint64 `json:"uncorrectable"`
	Flushes        uint64 `json:"flushes"`
	Outstanding    uint64 `json:"outstanding"`
	OOODepth       int    `json:"ooo_depth,omitempty"`
	OOOPending     uint64 `json:"ooo_pending,omitempty"`
	ReplaysServed  uint64 `json:"replays_served"`
	ReplaysDeduped uint64 `json:"replays_deduped"`
	MemReads       uint64 `json:"mem_reads"`
	MemWrites      uint64 `json:"mem_writes"`
	MemStalls      uint64 `json:"mem_stalls"`
	MemBusy        uint64 `json:"mem_channel_busy"`
}

type counters struct {
	reads, writes, stalls, stallRetries, busy    atomic.Uint64
	dropped, completions, uncorrectable, flushes atomic.Uint64
	throttled, drainRefused                      atomic.Uint64
	replaysServed, replaysDeduped                atomic.Uint64
}

// route remembers which session issued the read behind a memory tag,
// and at which cycle the request was enqueued (for tenant latency
// accounting). Routes live in a flat preallocated ring indexed by the
// tag's channel and per-channel tag bits — see recordRoute — so the
// steady-state data plane never touches a map. tagp is the full tag
// plus one; zero marks a free slot.
type route struct {
	s    *session
	seq  uint64
	enq  uint64
	tagp uint64
}

// oooSlot is the engine-side state of one request parked in the
// out-of-order stage: which session owns it, its wire seq, its enqueue
// cycle (for tenant latency), and the hold-and-retry attempt count.
// The stage's Pending.Cookie is the slot index; slots are preallocated
// for the stage's full capacity and recycled through a freelist.
type oooSlot struct {
	s        *session
	seq      uint64
	enq      uint64
	attempts int
}

// inFrame is one decoded request frame awaiting lockstep admission.
type inFrame struct {
	s    *session
	reqs []pendingReq
}

// pendingReq is one queued request; attempts counts hold-and-retry
// re-presentations of a stalled queue head, paid records that its
// tenant's token has already been charged (a head held by a memory
// stall is not re-charged on re-presentation), enq is the enqueue
// cycle.
type pendingReq struct {
	op       byte
	seq      uint64
	addr     uint64
	enq      uint64
	data     []byte
	attempts int
	paid     bool
}

// Engine multiplexes client sessions onto one multichannel.Memory.
type Engine struct {
	cfg   Config
	mem   *multichannel.Memory
	reg   *qos.Regulator
	delay uint64
	ports int // per-cycle read admission ceiling (mem.Ports(), cached)

	mu       sync.Mutex // guards sessions and sessByID
	sessions []*session
	sessByID map[uint64]*session
	rr       int

	// Lock order: a goroutine may take s.mu then e.mu (statsFor does),
	// never the reverse. The engine loop snapshots the session list
	// under e.mu, releases it, and only then touches per-session state.

	// routeTab is the per-channel route ring, flat over channels:
	// channel ch's slots occupy routeTab[ch<<routeBits : (ch+1)<<routeBits].
	// Within a channel the controller's tags are dense and delivered
	// FIFO, so at most nextPow2(ports*Delay) are ever live at once and
	// the low tag bits index uniquely. Engine-goroutine private.
	routeTab  []route
	routeBits uint
	routeMask uint64

	// Out-of-order issue stage (nil unless Config.OOO). oooSlots and
	// oooFree are engine-goroutine private; stageTot mirrors the
	// stage's occupancy for the loop/drain/snapshot paths.
	ooo      *multichannel.Stage
	oooSlots []oooSlot
	oooFree  []uint32
	stageTot atomic.Int64

	cycle       atomic.Uint64
	outstanding atomic.Int64 // reads accepted, completion not yet routed
	pendingTot  atomic.Int64 // queued requests across all sessions
	attached    atomic.Int64 // sessions currently holding a transport
	ctr         counters

	// Snapshot seqlock. step() bumps snapSeq to odd on entry and back to
	// even on exit, publishing the memory's ledger into the mem* atomics
	// just before the closing bump. Snapshot spins until it reads the
	// same even value on both sides of its field reads, so every
	// published snapshot is a point-in-time view from a step boundary —
	// the only instants at which the engine's invariants (for one,
	// reads == completions + outstanding) hold. The memory itself is
	// never touched from the scrape goroutine: multichannel.Memory is
	// single-owner and the engine goroutine is that owner.
	snapSeq                                atomic.Uint64
	memReads, memWrites, memBusy, memStall atomic.Uint64

	// Scrape handshake (publishProbes). The probes' gauges and counters
	// are filled only on request: a /metricsz scrape sets pubReq and
	// wakes the loop, and the engine goroutine — the memory's only owner
	// — publishes every channel's ledger at its next step boundary (the
	// end of step, or either parked branch of loop) and signals pubDone.
	// pubMu serializes scrapes, so at most one request is in flight.
	pubMu   sync.Mutex
	pubReq  atomic.Bool
	pubDone chan struct{}

	work     chan struct{}
	frames   chan inFrame
	done     chan struct{}
	loopDone chan struct{}
	closed   atomic.Bool

	draining   atomic.Bool
	drainStart chan struct{} // closed when drain begins (stops Serve)
	drainDone  chan struct{} // closed when the pipeline is empty
	drainOnce  sync.Once
	pruneReq   atomic.Bool

	// pool backs every transient buffer on the data plane: request
	// payloads (reader → verdict), completion payloads (deliver →
	// writer) and outgoing frame images (writer). Steady state runs
	// entirely on recycled buffers — the zero-alloc invariant the
	// loopback benchmarks gate.
	pool wire.Pool

	sessBuf []*session // engine-goroutine scratch
	touched []*session // sessions with output staged this step

	// shardState, when set, is called at /statsz scrape time and its
	// value served as the snapshot's "shard" block — the daemon's view
	// of fleet membership (ring position, owned ranges, migration
	// state). The engine does not interpret it.
	shardMu    sync.Mutex
	shardState func() any
}

// New builds an engine around cfg.Mem and starts its clock goroutine.
// Call Close to stop it.
func New(cfg Config) (*Engine, error) {
	if cfg.Mem == nil {
		return nil, fmt.Errorf("server: Config.Mem is required")
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = recovery.DefaultMaxAttempts
	}
	if cfg.DedupWindow <= 0 {
		cfg.DedupWindow = DefaultDedupWindow
	}
	e := &Engine{
		cfg:        cfg,
		mem:        cfg.Mem,
		reg:        cfg.QoS,
		delay:      uint64(cfg.Mem.Delay()),
		ports:      cfg.Mem.Ports(),
		sessByID:   make(map[uint64]*session),
		work:       make(chan struct{}, 1),
		pubDone:    make(chan struct{}, 1),
		frames:     make(chan inFrame, 16),
		done:       make(chan struct{}),
		loopDone:   make(chan struct{}),
		drainStart: make(chan struct{}),
		drainDone:  make(chan struct{}),
	}
	// Per-channel route ring: a channel's controller delivers its reads
	// FIFO within at most ReadPorts()*Delay cycles of issue (the due
	// ring's capacity), so live per-channel tags span a window no wider
	// than that and their low bits index uniquely into a power-of-two
	// ring.
	chanCap := uint64(1)
	for chanCap < uint64(cfg.Mem.Coded().ReadPorts())*e.delay {
		chanCap <<= 1
	}
	e.routeMask = chanCap - 1
	for uint64(1)<<e.routeBits < chanCap {
		e.routeBits++
	}
	e.routeTab = make([]route, chanCap*uint64(cfg.Mem.Channels()))
	if cfg.OOO {
		if cfg.OOODepth <= 0 {
			cfg.OOODepth = DefaultOOODepth
			e.cfg.OOODepth = DefaultOOODepth
		}
		n := cfg.Mem.Channels() * cfg.OOODepth
		e.oooSlots = make([]oooSlot, n)
		e.oooFree = make([]uint32, n)
		for i := range e.oooFree {
			e.oooFree[i] = uint32(n - 1 - i)
		}
		e.ooo = multichannel.NewStage(cfg.Mem, cfg.OOODepth, e.oooSink, cfg.Metrics)
	}
	e.pool.SetCheck(cfg.PoolCheck)
	go e.loop()
	return e, nil
}

// PoolStats snapshots the engine's buffer pool ledger.
func (e *Engine) PoolStats() wire.PoolStats { return e.pool.Stats() }

// PoolClean reports buffer-pool hygiene: nil when nothing is live and
// no double put was ever recorded. Meaningful only under
// Config.PoolCheck, and only at quiescent points (after a drain).
func (e *Engine) PoolClean() error { return e.pool.CheckClean() }

// Close stops the clock and closes every session and connection. The
// memory is left intact (the caller owns it).
func (e *Engine) Close() error {
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(e.done)
	<-e.loopDone
	// Return the pooled payloads of lockstep frames the loop never
	// admitted. Best effort: a reader blocked on the hand-off select
	// takes its done branch and releases its own batch.
	for {
		select {
		case fr := <-e.frames:
			fr.s.releaseBatch(fr.reqs)
			continue
		default:
		}
		break
	}
	// Return the pooled payloads still parked in the out-of-order stage.
	// The loop goroutine is gone, so the stage is ours to drain.
	if e.ooo != nil {
		e.ooo.Drain(func(p *multichannel.Pending) {
			if p.Data != nil {
				e.pool.Put(p.Data)
				p.Data = nil
			}
		})
	}
	e.mu.Lock()
	sessions := append([]*session(nil), e.sessions...)
	e.mu.Unlock()
	for _, s := range sessions {
		s.shutdown()
	}
	return nil
}

// ServeConn starts serving nc. The connection binds to a session on its
// first frame (a Hello resumes the named session; anything else gets an
// anonymous one). It returns immediately; the connection lives until it
// fails or the engine closes or drains.
func (e *Engine) ServeConn(nc net.Conn) error {
	if e.closed.Load() || e.draining.Load() {
		nc.Close()
		return fmt.Errorf("server: engine not accepting connections")
	}
	c := &conn{e: e, nc: nc}
	go c.readLoop()
	return nil
}

// Serve accepts connections from ln until the engine closes, drains, or
// the listener fails, handing each to ServeConn.
func (e *Engine) Serve(ln net.Listener) error {
	go func() {
		select {
		case <-e.done:
		case <-e.drainStart:
		}
		ln.Close()
	}()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if e.closed.Load() || e.draining.Load() {
				return nil
			}
			return err
		}
		e.ServeConn(nc)
	}
}

// adopt resolves the session named by h — creating it, or resuming the
// one a previous connection left behind — and attaches c as its
// transport. A zero SessionID yields an anonymous session that dies
// with its conn. It reports false when the engine is closed or the
// session cannot accept a transport.
func (e *Engine) adopt(c *conn, h wire.Hello) bool {
	if e.closed.Load() {
		return false
	}
	var s *session
	e.mu.Lock()
	if h.SessionID != 0 {
		s = e.sessByID[h.SessionID]
		if s == nil {
			s = newSession(e, h.SessionID, h.Tenant)
			e.sessByID[h.SessionID] = s
			e.sessions = append(e.sessions, s)
		}
	} else {
		s = newSession(e, 0, h.Tenant)
		e.sessions = append(e.sessions, s)
	}
	e.mu.Unlock()
	return s.attach(c)
}

// Drain flips the engine into graceful-shutdown mode: Serve stops
// accepting connections, new reads and writes are refused with
// StatusDropped/CodeDraining, and everything already admitted runs to
// completion. It blocks until the pipeline is provably empty (no
// queued requests, no outstanding reads) and returns the final ledger,
// or ctx's error. Safe to call from multiple goroutines; all of them
// wait for the same drain.
func (e *Engine) Drain(ctx context.Context) (Snapshot, error) {
	if e.closed.Load() {
		return Snapshot{}, fmt.Errorf("server: engine closed")
	}
	if e.draining.CompareAndSwap(false, true) {
		close(e.drainStart)
	}
	e.wake()
	select {
	case <-e.drainDone:
		return e.Snapshot(), nil
	case <-ctx.Done():
		return Snapshot{}, ctx.Err()
	case <-e.done:
		return Snapshot{}, fmt.Errorf("server: engine closed during drain")
	}
}

// Draining reports whether the engine is refusing new work.
func (e *Engine) Draining() bool { return e.draining.Load() }

// Snapshot returns a point-in-time copy of the engine's ledger, taken
// at a step (cycle) boundary: the seqlock retries until a read lands
// entirely between steps, so the counters in one Snapshot are mutually
// consistent — reads always equal completions plus outstanding — even
// while the engine is running flat out. Safe from any goroutine.
func (e *Engine) Snapshot() Snapshot {
	for {
		seq := e.snapSeq.Load()
		if seq&1 != 0 {
			continue // a step is in flight; its counters are mid-mutation
		}
		s := e.readSnapshot()
		if e.snapSeq.Load() == seq {
			return s
		}
	}
}

// readSnapshot reads the ledger fields with no consistency guard. The
// engine goroutine uses it directly (it cannot race itself, and
// spinning on the seqlock mid-step would deadlock); everyone else goes
// through Snapshot.
func (e *Engine) readSnapshot() Snapshot {
	e.mu.Lock()
	nsess := len(e.sessions)
	e.mu.Unlock()
	out := e.outstanding.Load()
	if out < 0 {
		out = 0
	}
	stage := e.stageTot.Load()
	if stage < 0 {
		stage = 0
	}
	geo := e.mem.Coded()
	return Snapshot{
		Cycle:          e.cycle.Load(),
		Delay:          int(e.delay),
		Channels:       e.mem.Channels(),
		Ports:          e.ports,
		CodedGroup:     geo.Group,
		CodedK:         geo.K,
		Conns:          int(e.attached.Load()),
		Sessions:       nsess,
		Draining:       e.draining.Load(),
		Reads:          e.ctr.reads.Load(),
		Writes:         e.ctr.writes.Load(),
		Stalls:         e.ctr.stalls.Load(),
		StallRetries:   e.ctr.stallRetries.Load(),
		Busy:           e.ctr.busy.Load(),
		Throttled:      e.ctr.throttled.Load(),
		Dropped:        e.ctr.dropped.Load(),
		DrainRefused:   e.ctr.drainRefused.Load(),
		Completions:    e.ctr.completions.Load(),
		Uncorrectable:  e.ctr.uncorrectable.Load(),
		Flushes:        e.ctr.flushes.Load(),
		Outstanding:    uint64(out),
		OOODepth:       e.cfg.OOODepth,
		OOOPending:     uint64(stage),
		ReplaysServed:  e.ctr.replaysServed.Load(),
		ReplaysDeduped: e.ctr.replaysDeduped.Load(),
		MemReads:       e.memReads.Load(),
		MemWrites:      e.memWrites.Load(),
		MemStalls:      e.memStall.Load(),
		MemBusy:        e.memBusy.Load(),
	}
}

// Cycle reports the current interface cycle.
func (e *Engine) Cycle() uint64 { return e.cycle.Load() }

// SetShardState installs (or, with nil, removes) the provider for the
// "shard" block in /statsz: a daemon serving as a fleet member exposes
// its ring position, key-range ownership and migration state through
// it. The provider is called on the scrape goroutine and must be safe
// for concurrent use.
func (e *Engine) SetShardState(fn func() any) {
	e.shardMu.Lock()
	e.shardState = fn
	e.shardMu.Unlock()
}

// StatszHandler serves the Snapshot as JSON — mount it at /statsz. A
// daemon with shard state installed (SetShardState) serves it with an
// extra "shard" block alongside the engine fields.
func (e *Engine) StatszHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		e.shardMu.Lock()
		provider := e.shardState
		e.shardMu.Unlock()
		if provider == nil {
			enc.Encode(e.Snapshot()) //nolint:errcheck // best-effort diagnostics
			return
		}
		enc.Encode(struct { //nolint:errcheck // best-effort diagnostics
			Snapshot
			Shard any `json:"shard"`
		}{e.Snapshot(), provider()})
	})
}

// HealthzHandler serves readiness: 200 while the engine accepts work,
// 503 once it is draining, drained, or closed — mount it at /healthz so
// a load balancer stops routing to an instance the moment Drain begins.
func (e *Engine) HealthzHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		switch {
		case e.closed.Load():
			http.Error(w, "closed", http.StatusServiceUnavailable)
		case e.draining.Load():
			select {
			case <-e.drainDone:
				http.Error(w, "drained", http.StatusServiceUnavailable)
			default:
				http.Error(w, "draining", http.StatusServiceUnavailable)
			}
		default:
			fmt.Fprintln(w, "ok")
		}
	})
}

func (e *Engine) logf(format string, args ...any) {
	if e.cfg.Logf != nil {
		e.cfg.Logf(format, args...)
	}
}

func (e *Engine) wake() {
	select {
	case e.work <- struct{}{}:
	default:
	}
}

// checkDrained closes drainDone once a requested drain has emptied the
// pipeline. Engine goroutine only.
func (e *Engine) checkDrained() {
	if e.draining.Load() && e.pendingTot.Load() == 0 && e.outstanding.Load() == 0 && e.stageTot.Load() == 0 {
		e.drainOnce.Do(func() { close(e.drainDone) })
	}
}

// loop is the engine's clock: one iteration per interface cycle, as fast
// as the host allows while work is pending, parked when idle.
func (e *Engine) loop() {
	defer close(e.loopDone)
	for {
		if e.cfg.Lockstep {
			// Admit the next frame only once the previous one's queue is
			// fully admitted; never tick while idle. Work parked in the
			// out-of-order stage (or in flight) intentionally does NOT
			// keep the clock running — cycles advance only while a frame
			// is draining, so the cycle counter stays a pure function of
			// the frame sequence; a later frame's steps (or an OpFlush)
			// sweep the residue. The one exception is a drain: no future
			// frame will ever arrive, so step until the stage and the
			// pipeline are empty.
			if e.pendingTot.Load() == 0 &&
				!(e.draining.Load() && (e.stageTot.Load() > 0 || e.outstanding.Load() > 0)) {
				e.checkDrained()
				e.servePublish()
				select {
				case fr := <-e.frames:
					e.admit(fr)
				case <-e.work:
				case <-e.done:
					return
				}
				continue // re-check: the frame may target a closed session
			}
		} else if e.pendingTot.Load() == 0 && e.outstanding.Load() == 0 && e.stageTot.Load() == 0 {
			e.checkDrained()
			e.servePublish()
			select {
			case <-e.work:
			case <-e.done:
				return
			}
			continue
		}
		e.step()
		select {
		case <-e.done:
			return
		default:
		}
	}
}

// admit moves one lockstep frame into its session's queue and returns
// the hand-off slice to the reader's freelist.
func (e *Engine) admit(fr inFrame) {
	s := fr.s
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.releaseBatch(fr.reqs)
		return
	}
	n := s.ingestLocked(fr.reqs)
	s.freeBatches = append(s.freeBatches, fr.reqs[:0])
	s.mu.Unlock()
	e.pendingTot.Add(int64(n))
}

// step advances one interface cycle: issue as many queued requests as
// the channels accept, tick the memory, route the completions.
func (e *Engine) step() {
	e.snapSeq.Add(1) // odd: counters are in motion
	defer func() {
		reads, writes, busy, stalls := e.mem.Stats()
		e.memReads.Store(reads)
		e.memWrites.Store(writes)
		e.memBusy.Store(busy)
		e.memStall.Store(stalls)
		e.snapSeq.Add(1) // even: boundary reached, snapshot away
	}()

	e.mu.Lock()
	sessions := append(e.sessBuf[:0], e.sessions...)
	e.sessBuf = sessions
	rr := e.rr
	e.rr++
	e.mu.Unlock()

	if n := len(sessions); n > 0 {
		// Up to Ports() requests can be accepted per cycle (one per
		// channel, times the coded read-port count when XOR-parity bank
		// groups are on). In order they are spent here: round-robin across
		// sessions, FIFO within one, sweeping again while somebody makes
		// progress. Out of order the Stage's sweep spends them; the
		// sessions only park queue heads in the per-channel pending rings
		// first — one pass, since nothing frees ring room before the
		// sweep, quota-bounded so no session can squat the whole stage.
		budget, quota := e.ports, 1
		if e.ooo != nil {
			quota = max(e.ooo.Cap()/n, e.ports)
		}
		for {
			progress := false
			for i := 0; i < n && budget > 0; i++ {
				if e.issueFrom(sessions[(rr+i)%n], &budget, quota) {
					progress = true
				}
			}
			if !progress || budget == 0 || e.ooo != nil {
				break
			}
		}
		if e.ooo != nil {
			e.ooo.Sweep()
		}
	}

	comps := e.mem.Tick()
	e.cycle.Add(1)
	if e.reg != nil {
		e.reg.Advance(1)
	}
	if len(comps) > 0 {
		// One batched counter update per cycle, not one per completion,
		// and one session-lock acquisition per run of same-session
		// completions: the deliver loop is the hottest edge of the data
		// plane.
		e.outstanding.Add(-int64(len(comps)))
		e.ctr.completions.Add(uint64(len(comps)))
		var cur *session
		for i := range comps {
			rt := e.takeRoute(comps[i].Tag)
			if rt.s != cur {
				if cur != nil {
					cur.mu.Unlock()
				}
				cur = rt.s
				cur.mu.Lock()
			}
			e.deliverLocked(rt, &comps[i])
		}
		if cur != nil {
			cur.mu.Unlock()
		}
	}
	// Wake each touched session's writer exactly once, now that every
	// verdict of the step is staged: the writer drains the whole step's
	// output in one vectored write instead of being signalled (and
	// making a syscall) per record.
	for i, s := range e.touched {
		s.mu.Lock()
		s.outDirty = false
		s.mu.Unlock()
		s.wcond.Signal()
		e.touched[i] = nil
	}
	e.touched = e.touched[:0]
	e.skipIdleSpan(sessions)
	if e.pruneReq.CompareAndSwap(true, false) {
		e.prune(sessions)
	}
	e.checkDrained()
	e.servePublish()
}

// servePublish answers a pending scrape handshake: publish every
// channel's probe ledger, then release the scraper. Engine goroutine
// only, at a step boundary; one atomic load when nobody is scraping.
func (e *Engine) servePublish() {
	if e.pubReq.Load() {
		e.pubReq.Store(false)
		e.mem.PublishProbes()
		e.pubDone <- struct{}{}
	}
}

// publishProbes has the memory's probes publish their scrape-time
// ledgers and returns once they have. While the engine runs, the engine
// goroutine does it at a step boundary (servePublish) — the memory is
// single-owner, and reading its plain fields from here would race. Once
// the loop has exited, the memory has no other owner and is published
// directly. Called with pubMu held.
func (e *Engine) publishProbes() {
	if !e.closed.Load() {
		e.pubReq.Store(true)
		e.wake()
		select {
		case <-e.pubDone:
			return
		case <-e.loopDone:
		}
	}
	<-e.loopDone
	e.mem.PublishProbes()
}

// noteOut marks s as having staged output this step; the end-of-step
// sweep signals each marked session once. Engine goroutine only, called
// with s.mu held.
func (e *Engine) noteOut(s *session) {
	if !s.outDirty {
		s.outDirty = true
		e.touched = append(e.touched, s)
	}
}

// skipIdleSpan fast-forwards the clock across cycles in which the
// engine provably cannot make progress: completions are outstanding,
// but every session's queue is empty or parked at a flush barrier that
// only a completion can release, so the cycles between now and the
// memory's next scheduled delivery are dead time. The memory skips them
// in O(1) (SkipIdle is cycle-exact — every skipped cycle is an ordinary
// interface cycle, just not paid for one Tick at a time), which turns
// the D-cycle drain behind every flush barrier and end-of-burst wait
// from D engine iterations into one. Tenant buckets refill across the
// skip exactly as if the cycles had been ticked one at a time.
//
// A stalled, throttled or retryable queue head means the next cycle
// could accept work, so nothing is skipped (hold-and-retry
// re-presentation still happens every cycle, keeping MaxAttempts and
// refill accounting exact).
func (e *Engine) skipIdleSpan(sessions []*session) {
	if e.outstanding.Load() == 0 || e.stageTot.Load() != 0 {
		return
	}
	for _, s := range sessions {
		s.mu.Lock()
		blocked := s.head >= len(s.pending) ||
			(s.pending[s.head].op == wire.OpFlush && s.outstanding > 0)
		s.mu.Unlock()
		if !blocked {
			return
		}
	}
	k := e.mem.IdleCycles()
	if k == 0 || k == ^uint64(0) {
		return
	}
	e.mem.SkipIdle(k)
	e.cycle.Add(k)
	if e.reg != nil {
		e.reg.Advance(k)
	}
}

// prune forgets sessions that can never produce or receive anything
// again (closed, detached, empty). Engine goroutine only.
func (e *Engine) prune(sessions []*session) {
	var dead []*session
	for _, s := range sessions {
		if s.prunable() {
			dead = append(dead, s)
		}
	}
	if len(dead) == 0 {
		return
	}
	e.mu.Lock()
	for _, d := range dead {
		for i, x := range e.sessions {
			if x == d {
				e.sessions = append(e.sessions[:i], e.sessions[i+1:]...)
				break
			}
		}
		if d.id != 0 {
			delete(e.sessByID, d.id)
		}
	}
	e.mu.Unlock()
}

// issueFrom drains the head of one session's queue until the queue
// empties, the head must wait for a later cycle (a flush barrier, a
// throttle hold, a busy channel or a full channel ring), or the cycle's
// budget runs out. The two issue modes differ in one branch: in order a
// read or write is presented to the memory here and spends budget when
// accepted; out of order it is parked in the Stage, whose sweep presents
// it (oooSink hears the answer), and the session stops at its quota of
// parked requests — the fairness rule: a session can reorder ahead of
// its own later requests, never squat the whole stage and starve another
// session's channels. It reports whether the queue moved.
func (e *Engine) issueFrom(s *session, budget *int, quota int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	progress := false
	for *budget > 0 && s.head < len(s.pending) && s.inStage < quota {
		req := &s.pending[s.head]
		switch req.op {
		case wire.OpStats:
			s.stageStats(e.statsFor(req.seq))
			e.noteOut(s)
		case wire.OpFlush:
			if s.inStage > 0 || s.outstanding > 0 {
				return progress // barrier: wait for the stage and completions
			}
			e.ctr.flushes.Add(1)
			s.stageReply(wire.Reply{Status: wire.StatusFlushed, Seq: req.seq})
			e.noteOut(s)
		case wire.OpRead, wire.OpWrite:
			write := req.op == wire.OpWrite
			var tag uint64
			var err error
			if s.tenant != nil && !req.paid {
				// Tenant admission gate: one token per request, charged once
				// (a head later held by a memory stall is not re-charged),
				// refused once per cycle however often the sweep revisits
				// the session. A refusal consumes no channel budget and no
				// stage slot — a throttled tenant cannot congest the cycle
				// for anyone else.
				cyc := e.cycle.Load()
				if s.thrCycle == cyc && s.thrSeq == req.seq {
					return progress // already refused this cycle; hold
				}
				if req.paid = s.tenant.TryIssue(); !req.paid {
					s.thrCycle, s.thrSeq = cyc, req.seq
					err = qos.ErrThrottled
				}
			}
			switch {
			case err != nil:
				// Refused at the gate: nothing to present.
			case e.ooo != nil:
				if !e.ooo.Room(e.mem.Channel(req.addr)) {
					return progress // channel ring full; re-offer after a sweep
				}
				idx := e.oooFree[len(e.oooFree)-1]
				e.oooFree = e.oooFree[:len(e.oooFree)-1]
				e.oooSlots[idx] = oooSlot{s: s, seq: req.seq, enq: req.enq, attempts: req.attempts}
				e.ooo.Admit(multichannel.Pending{
					Addr:   req.addr,
					Data:   req.data,
					Cookie: uint64(idx),
					Write:  write,
				})
				req.data = nil
				s.inStage++
				e.stageTot.Add(1)
				s.popLocked()
				progress = true
				continue
			case write:
				err = e.mem.Write(req.addr, req.data)
			default:
				tag, err = e.mem.Read(req.addr)
			}
			switch {
			case err == nil:
				e.acceptedLocked(s, req.seq, req.enq, tag, req.data, write)
				*budget--
			case err == multichannel.ErrChannelBusy:
				// Same-cycle channel collision — the interface analogue of a
				// bank conflict. Absorb it: retry next cycle, no accounting
				// toward the stall budget.
				e.ctr.busy.Add(1)
				return progress
			default:
				rep, terminal := e.verdict(err, &req.attempts, req.seq)
				if !terminal {
					return progress
				}
				e.retireLocked(s, req.seq, req.data, rep)
			}
			req.data = nil
		default:
			// The decoder validates opcodes; anything else is a bug.
			panic(fmt.Sprintf("server: unknown queued opcode %d", req.op))
		}
		s.popLocked()
		progress = true
	}
	return progress
}

// oooSink receives every issue outcome from the out-of-order stage's
// sweep. Engine goroutine only (it runs inside step's e.ooo.Sweep()).
func (e *Engine) oooSink(p *multichannel.Pending, tag uint64, err error) bool {
	slot := &e.oooSlots[p.Cookie]
	s := slot.s
	s.mu.Lock()
	if err == nil {
		e.acceptedLocked(s, slot.seq, slot.enq, tag, p.Data, p.Write)
	} else {
		rep, terminal := e.verdict(err, &slot.attempts, slot.seq)
		if !terminal {
			s.mu.Unlock()
			return false // held at its channel head for next cycle
		}
		e.retireLocked(s, slot.seq, p.Data, rep)
	}
	s.inStage--
	s.mu.Unlock()
	*slot = oooSlot{}
	e.oooFree = append(e.oooFree, uint32(p.Cookie))
	e.stageTot.Add(-1)
	return true
}

// acceptedLocked books a request the memory accepted: a read's tag is
// routed back to (s, seq) for delivery D cycles on, a write is
// acknowledged at once. Called with s.mu held.
func (e *Engine) acceptedLocked(s *session, seq, enq, tag uint64, data []byte, write bool) {
	if !write {
		e.recordRoute(tag, s, seq, enq)
		s.outstanding++
		e.outstanding.Add(1)
		e.ctr.reads.Add(1)
		return
	}
	e.ctr.writes.Add(1)
	if s.resumable() {
		s.rememberLocked(seq, doneEntry{write: true})
	}
	// The controller copied the payload on accept; the pooled buffer's
	// work is done.
	e.retireLocked(s, seq, data, wire.Reply{Status: wire.StatusAccepted, Seq: seq})
}

// verdict is the one refusal table: a tenant throttle, a controller
// stall or a malformed request, crossed with the stall policy, yields
// either the terminal reply to stage or (terminal false) a hold — the
// request stays where it is and is re-presented next cycle, attempts
// counting toward MaxAttempts. Under DropWithAccounting a stall or
// throttle surfaces immediately as StatusStall and the client's recovery
// policy decides. Throttle refusals count as throttled only, never as
// memory stalls or stall retries.
func (e *Engine) verdict(err error, attempts *int, seq uint64) (rep wire.Reply, terminal bool) {
	throttle := err == qos.ErrThrottled
	code := wire.CodeThrottled
	switch {
	case throttle:
		e.ctr.throttled.Add(1)
	case core.IsStall(err):
		code = wire.CodeOf(err)
	default:
		// Malformed request (e.g. data wider than the memory word):
		// drop it with accounting rather than kill the connection.
		e.logf("server: dropping request seq %d: %v", seq, err)
		e.ctr.dropped.Add(1)
		return wire.Reply{Status: wire.StatusDropped, Code: wire.CodeOther, Seq: seq}, true
	}
	if e.cfg.Policy == recovery.DropWithAccounting {
		if !throttle {
			e.ctr.stalls.Add(1)
		}
		return wire.Reply{Status: wire.StatusStall, Code: code, Seq: seq}, true
	}
	*attempts++
	if *attempts >= e.cfg.MaxAttempts {
		e.ctr.dropped.Add(1)
		return wire.Reply{Status: wire.StatusDropped, Code: code, Seq: seq}, true
	}
	if !throttle {
		e.ctr.stallRetries.Add(1)
	}
	return wire.Reply{}, false
}

// retireLocked ends a request with a reply: forget the live seq, return
// the pooled payload, stage the verdict. Called with s.mu held.
func (e *Engine) retireLocked(s *session, seq uint64, data []byte, rep wire.Reply) {
	if s.resumable() {
		s.resolveLocked(seq)
	}
	e.pool.Put(data)
	s.stageReply(rep)
	e.noteOut(s)
}

// recordRoute stores the (session, seq, enq) behind an accepted read's
// tag in the preallocated route ring. Engine goroutine only.
func (e *Engine) recordRoute(tag uint64, s *session, seq, enq uint64) {
	ch, chanTag := e.mem.SplitTag(tag)
	rt := &e.routeTab[uint64(ch)<<e.routeBits|(chanTag&e.routeMask)]
	if rt.tagp != 0 {
		panic(fmt.Sprintf("server: route ring slot for tag %d still live (tag %d)", tag, rt.tagp-1))
	}
	*rt = route{s: s, seq: seq, enq: enq, tagp: tag + 1}
}

// takeRoute resolves and clears the route ring entry behind a
// completion's tag. Engine goroutine only.
func (e *Engine) takeRoute(tag uint64) route {
	ch, chanTag := e.mem.SplitTag(tag)
	rtp := &e.routeTab[uint64(ch)<<e.routeBits|(chanTag&e.routeMask)]
	if rtp.tagp != tag+1 {
		panic(fmt.Sprintf("server: completion for unrouted tag %d", tag))
	}
	rt := *rtp
	*rtp = route{}
	return rt
}

// deliverLocked routes one memory completion back to its session. The
// caller (step) holds rt.s.mu — and keeps holding it across runs of
// consecutive same-session completions, so a cycle's worth of
// deliveries costs one lock acquisition per session, not one per
// completion — and has already batched the outstanding/completions
// counter updates for the whole cycle.
func (e *Engine) deliverLocked(rt route, comp *core.Completion) {
	var flags byte
	if comp.Err != nil && errors.Is(comp.Err, core.ErrUncorrectable) {
		flags |= wire.FlagUncorrectable
		e.ctr.uncorrectable.Add(1)
	}
	s := rt.s
	s.outstanding--
	if s.tenant != nil {
		s.tenant.NoteLatency(comp.DeliveredAt - rt.enq)
	}
	if s.closed && s.cur == nil {
		// Orphaned anonymous session: nobody will ever read this output.
		// The completion is still counted — it happened — but the bytes
		// are dropped, and once the last one lands the session can go.
		if s.outstanding == 0 {
			e.pruneReq.Store(true)
		}
		return
	}
	out := wire.Completion{
		Seq:         rt.seq,
		Addr:        comp.Addr,
		IssuedAt:    comp.IssuedAt,
		DeliveredAt: comp.DeliveredAt,
		Flags:       flags,
	}
	if s.resumable() {
		s.resolveLocked(rt.seq)
		// The replay cache owns plain heap copies: cached verdicts live
		// until FIFO eviction, far past the staging slab's next reuse.
		cached := out
		cached.Data = append([]byte(nil), comp.Data...)
		s.rememberLocked(rt.seq, doneEntry{comp: cached})
	}
	s.stageComp(out, comp.Data)
	e.noteOut(s)
}

func (e *Engine) statsFor(seq uint64) wire.Stats {
	// Engine goroutine, mid-step: the seqlock is odd, so use the direct
	// read (which is exact here — nothing races the engine with itself).
	s := e.readSnapshot()
	return wire.Stats{
		Seq:           seq,
		Cycle:         s.Cycle,
		Delay:         uint64(s.Delay),
		Channels:      uint64(s.Channels),
		Conns:         uint64(s.Conns),
		Reads:         s.Reads,
		Writes:        s.Writes,
		Stalls:        s.Stalls,
		Busy:          s.Busy,
		Dropped:       s.Dropped,
		Completions:   s.Completions,
		Uncorrectable: s.Uncorrectable,
		Outstanding:   s.Outstanding,
	}
}
