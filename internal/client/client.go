// Package client is the device side of the vpnmd wire protocol: a
// batching, pipelining VPNM client. Reads and writes are queued,
// batched into one request frame per flush of the send queue, and kept
// in flight up to a configurable window — the network analogue of the
// deeply pipelined interface the paper's line card drives. Each read
// carries a completion callback that fires when the word arrives,
// stamped with the server cycles that prove it landed exactly D cycles
// after issue.
//
// Stalls surfaced by the server (StatusStall replies) are handled with
// the same policies an in-process device uses (internal/recovery):
// RetryNextCycle and Backpressure re-enqueue the request into the next
// batch, DropWithAccounting abandons it, and either way the counters
// ledger reconciles against the server's /statsz snapshot. Dropped
// requests resolve their callback with an error wrapping
// recovery.ErrDropped and the stall cause, so errors.Is works across
// the wire exactly as it does in-process.
//
// # Fault tolerance
//
// With the zero Config the client is a thin wrapper over one
// connection: the first transport error is terminal and resolves
// everything pending. Three knobs arm the resilient path:
//
//   - SessionID/Tenant send a Hello frame before any request, naming
//     the server-side session to (re)bind and the QoS principal whose
//     token bucket regulates it.
//   - Dialer (which requires a nonzero SessionID) turns transport
//     errors into reconnects: the client redials under capped
//     exponential backoff with seeded jitter, re-sends its Hello, and
//     retransmits every unresolved request. The server's session layer
//     deduplicates replays by seq, so a request executes once no
//     matter how many times the wire made the client send it.
//   - RequestTimeout bounds each request's wall-clock lifetime;
//     overdue requests resolve with ErrDeadlineExceeded — deliberately
//     NOT a stall, so recovery policies and SLA accounting can tell
//     "the memory pushed back" from "the network went away".
//
// In any of these modes the client tolerates duplicate or stray
// verdicts (a resumed server transport may re-send records that were
// already on the wire when it died); in the strict zero-Config mode a
// stray verdict is still a protocol error.
package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/recovery"
	"repro/internal/wire"
)

// Defaults for Config zero values.
const (
	DefaultWindow        = 1024
	DefaultMaxBatch      = 512
	DefaultMaxReconnects = 8
	DefaultBackoffBase   = 5 * time.Millisecond
	DefaultBackoffMax    = time.Second
)

// ErrClosed reports use of a closed client.
var ErrClosed = errors.New("client: closed")

// ErrDeadlineExceeded resolves a request that outlived
// Config.RequestTimeout. It is distinct from the stall taxonomy —
// errors.Is(ErrDeadlineExceeded, core.ErrStall) is false — because a
// deadline says nothing about the memory: the request may be parked
// behind a dead transport, lost, or simply slow.
var ErrDeadlineExceeded = errors.New("client: request deadline exceeded")

// Completion is the outcome of one read. Data aliases the receive
// buffer and is valid only during the callback; copy to keep it.
type Completion struct {
	Addr        uint64
	Data        []byte
	IssuedAt    uint64 // server interface cycle the read issued
	DeliveredAt uint64 // server interface cycle the word arrived; always IssuedAt+D
	Err         error  // nil, core.ErrUncorrectable, or a recovery.ErrDropped wrap
}

// Config tunes a Client.
type Config struct {
	// Window bounds requests in flight (issued, not yet resolved by an
	// accept, completion or drop). Read and Write block while the window
	// is full — the closed-loop backpressure path. Zero selects
	// DefaultWindow.
	Window int
	// MaxBatch bounds requests per frame. Zero selects DefaultMaxBatch;
	// values above wire.MaxBatch are clamped.
	MaxBatch int
	// Policy reacts to StatusStall replies: RetryNextCycle and
	// Backpressure (and the zero value) re-enqueue the request,
	// DropWithAccounting abandons it immediately.
	Policy recovery.Policy
	// MaxAttempts bounds stall retries per request. Zero selects
	// recovery.DefaultMaxAttempts.
	MaxAttempts int
	// ManualBatch disables the background flusher: queued requests are
	// sent only by Kick (or a Flush barrier). With deterministic Kick
	// points the frame stream — and so, against a Lockstep server, the
	// cycle count — is deterministic; the gated loopback benchmark runs
	// this way.
	ManualBatch bool

	// SessionID names the server-side session this client binds to. A
	// nonzero id makes the client send a Hello frame before any request
	// and lets a reconnect resume the same session — parked output,
	// in-flight window and replay dedup included. Zero keeps the
	// anonymous pre-Hello protocol.
	SessionID uint64
	// Tenant is the QoS principal named in the Hello; empty selects the
	// server's default tenant limit.
	Tenant string
	// Dialer, when non-nil, arms reconnection: a transport error closes
	// the old conn and redials through this function under capped
	// exponential backoff instead of failing the client. Requires a
	// nonzero SessionID — resuming the in-flight window against a fresh
	// anonymous session would re-execute requests.
	Dialer func() (net.Conn, error)
	// MaxReconnects caps consecutive failed dial attempts per outage
	// before the client fails terminally. Zero selects
	// DefaultMaxReconnects; negative means retry forever.
	MaxReconnects int
	// BackoffBase and BackoffMax shape the reconnect backoff: attempt n
	// waits about BackoffBase<<n, jittered, capped at BackoffMax. Zeros
	// select DefaultBackoffBase and DefaultBackoffMax.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed seeds the backoff jitter so failure schedules are
	// reproducible; zero selects 1.
	Seed int64
	// RequestTimeout bounds each request's wall-clock lifetime from
	// issue to resolution. Overdue requests resolve locally with
	// ErrDeadlineExceeded (reads via their callback) and free their
	// window slot; a verdict that arrives later is ignored. Zero
	// disables deadlines.
	RequestTimeout time.Duration
}

// pending is one in-flight request. Instances are recycled through a
// freelist: the request path pops one, the terminal verdict pushes it
// back, so the steady-state hot path never allocates a tracking node.
type pending struct {
	write    bool
	addr     uint64
	data     []byte // writes: a copy of the payload, in a buffer the node owns for life
	cb       func(Completion)
	attempts int
	deadline time.Time // zero when RequestTimeout is unset
}

// pendTable tracks in-flight requests by seq. Seqs are dense and
// monotone and the window bounds how many are live at once, so the
// table is a power-of-two ring indexed by the low seq bits — the
// steady-state hot path (insert on issue, lookup and remove on the
// verdict) never hashes — with a small map behind it for the rare
// collision: a slot whose previous occupant is still unresolved a full
// ring-span of seqs later, which takes thousands of barrier/stats seqs
// interleaved around one stuck request. All methods run under
// Client.mu.
type pendTable struct {
	ring []pendSlot
	mask uint64
	over map[uint64]*pending
	n    int
}

type pendSlot struct {
	seq uint64
	p   *pending
}

func (t *pendTable) init(window int) {
	size := 1
	for size < 4*window {
		size <<= 1
	}
	t.ring = make([]pendSlot, size)
	t.mask = uint64(size - 1)
	t.over = make(map[uint64]*pending)
}

func (t *pendTable) put(seq uint64, p *pending) {
	sl := &t.ring[seq&t.mask]
	if sl.p == nil {
		sl.seq, sl.p = seq, p
	} else {
		t.over[seq] = p
	}
	t.n++
}

func (t *pendTable) get(seq uint64) (*pending, bool) {
	sl := &t.ring[seq&t.mask]
	if sl.p != nil && sl.seq == seq {
		return sl.p, true
	}
	if len(t.over) != 0 {
		p, ok := t.over[seq]
		return p, ok
	}
	return nil, false
}

// del forgets seq. Only call after get reported it present.
func (t *pendTable) del(seq uint64) {
	sl := &t.ring[seq&t.mask]
	if sl.p != nil && sl.seq == seq {
		sl.p = nil
		t.n--
		return
	}
	if _, ok := t.over[seq]; ok {
		delete(t.over, seq)
		t.n--
	}
}

func (t *pendTable) len() int { return t.n }

// forEach visits every tracked request, in no particular order. The
// callback may delete the entry it is visiting (and no other).
func (t *pendTable) forEach(f func(seq uint64, p *pending)) {
	for i := range t.ring {
		if p := t.ring[i].p; p != nil {
			f(t.ring[i].seq, p)
		}
	}
	for seq, p := range t.over {
		f(seq, p)
	}
}

// Counters is the client's ledger.
type Counters struct {
	// Issued counts Read/Write calls accepted into the send queue;
	// Reads/Writes partition it.
	Issued, Reads, Writes uint64
	// AcceptedWrites counts StatusAccepted write replies. Reads have no
	// accept reply; Completions is their terminal count.
	AcceptedWrites uint64
	// Completions counts read completions; Uncorrectable the subset
	// flagged by ECC.
	Completions, Uncorrectable uint64
	// Stalls counts StatusStall replies by cause; Retries the
	// re-enqueues they triggered.
	Stalls recoveryStallCounts
	// Retries counts re-enqueued requests; Drops counts abandoned ones
	// (policy drops, exhausted retries, and server-side drops);
	// Exhausted is the subset dropped for running out of attempts
	// client-side.
	Retries, Drops, Exhausted uint64
	// LatencyViolations counts completions whose DeliveredAt-IssuedAt
	// differed from the server's advertised delay D — the end-to-end
	// fixed-D check. Zero delay knowledge (no Stats call yet) skips the
	// check.
	LatencyViolations uint64
	// Reconnects counts transports successfully re-established after a
	// failure; Retransmits counts unresolved requests re-queued across
	// those reconnects. DeadlineExceeded counts requests resolved
	// locally by RequestTimeout — deliberately not folded into Drops,
	// because the server may still have executed them.
	Reconnects, Retransmits, DeadlineExceeded uint64
}

// recoveryStallCounts mirrors core.StallCounts across the wire, plus
// the server-side causes (QoS throttling) that have no in-process
// analogue.
type recoveryStallCounts struct {
	DelayBuffer, BankQueue, WriteBuffer, Counter, Throttled, Other uint64
}

// Total sums the stall causes.
func (s recoveryStallCounts) Total() uint64 {
	return s.DelayBuffer + s.BankQueue + s.WriteBuffer + s.Counter + s.Throttled + s.Other
}

// Client is a connection to a vpnmd server. All methods are safe for
// concurrent use. Completion callbacks run on the receive goroutine:
// they must not block, and may only issue new requests if the window
// cannot be full (or they will deadlock the receive loop).
type Client struct {
	wmu  sync.Mutex // serializes frame writes (and transport swaps)
	wbuf []byte     // reused frame-build buffer; guarded by wmu

	mu           sync.Mutex
	nc           net.Conn
	gen          uint64 // bumps per transport; ties errors to the conn they came from
	reconnecting bool
	sendq        []wire.Request
	pend         pendTable
	freePend     []*pending // recycled tracking nodes
	flushW       map[uint64]chan struct{}
	statsW       map[uint64]chan wire.Stats
	next         uint64
	ctr          Counters
	delay        uint64 // learned from the first Stats reply; 0 = unknown
	err          error
	closed       bool
	readerDone   chan struct{} // current transport's reader; swapped per conn

	policy      recovery.Policy
	maxAttempts int
	maxBatch    int
	manual      bool

	sessionID  uint64
	tenant     string
	dialer     func() (net.Conn, error)
	maxReconn  int
	backBase   time.Duration
	backMax    time.Duration
	reqTimeout time.Duration
	rng        *rand.Rand // jitter; only the (single) reconnect goroutine uses it
	lenient    bool       // tolerate duplicate/stray verdicts

	// The window is a count under mu: Read and Write take a slot, each
	// verdict frees one. An issuer that finds the window full parks on
	// room; the receive goroutine sends at most one wake per decoded
	// frame, and a woken issuer passes it on while room remains.
	window   int
	inflight int // requests holding a slot
	parked   int // issuers waiting on room
	room     chan struct{}

	kick chan struct{} // background flusher doorbell
	dead chan struct{} // closed when the client fails terminally
}

// New wraps an established connection (TCP, net.Pipe, ...).
func New(nc net.Conn, cfg Config) *Client {
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.MaxBatch > wire.MaxBatch {
		cfg.MaxBatch = wire.MaxBatch
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = recovery.DefaultMaxAttempts
	}
	if cfg.Dialer != nil && cfg.SessionID == 0 {
		panic("client: Config.Dialer requires a nonzero SessionID (a reconnect resumes a server session)")
	}
	if cfg.MaxReconnects == 0 {
		cfg.MaxReconnects = DefaultMaxReconnects
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = DefaultBackoffBase
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = DefaultBackoffMax
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	c := &Client{
		nc:          nc,
		flushW:      make(map[uint64]chan struct{}),
		statsW:      make(map[uint64]chan wire.Stats),
		policy:      cfg.Policy,
		maxAttempts: cfg.MaxAttempts,
		maxBatch:    cfg.MaxBatch,
		manual:      cfg.ManualBatch,
		sessionID:   cfg.SessionID,
		tenant:      cfg.Tenant,
		dialer:      cfg.Dialer,
		maxReconn:   cfg.MaxReconnects,
		backBase:    cfg.BackoffBase,
		backMax:     cfg.BackoffMax,
		reqTimeout:  cfg.RequestTimeout,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		lenient:     cfg.Dialer != nil || cfg.SessionID != 0 || cfg.RequestTimeout > 0,
		window:      cfg.Window,
		room:        make(chan struct{}, 1),
		kick:        make(chan struct{}, 1),
		dead:        make(chan struct{}),
		readerDone:  make(chan struct{}),
	}
	c.pend.init(cfg.Window)
	// The window caps in-flight requests at cfg.Window, so the
	// tracking-node population can never exceed it: preallocate the whole
	// fleet as one block (and size the pending table to match) so the
	// request path never allocates a node, no matter how deep the
	// pipeline runs.
	nodes := make([]pending, cfg.Window)
	c.freePend = make([]*pending, 0, cfg.Window)
	for i := range nodes {
		c.freePend = append(c.freePend, &nodes[i])
	}
	var herr error
	if c.sessionID != 0 || c.tenant != "" {
		c.wmu.Lock()
		herr = c.sendHello(nc)
		c.wmu.Unlock()
	}
	go c.readLoop(nc, 0, c.readerDone)
	if !c.manual {
		go c.flushLoop()
	}
	if c.reqTimeout > 0 {
		go c.deadlineLoop()
	}
	if herr != nil {
		c.transportErr(0, herr)
	}
	return c
}

// Dial connects to a vpnmd server over TCP. When cfg names a session
// but no Dialer, reconnects redial the same address.
func Dial(addr string, cfg Config) (*Client, error) {
	if cfg.Dialer == nil && cfg.SessionID != 0 {
		cfg.Dialer = func() (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return New(nc, cfg), nil
}

// Close tears the connection down; in-flight reads resolve their
// callbacks with ErrClosed.
func (c *Client) Close() error {
	c.fail(ErrClosed)
	c.mu.Lock()
	done := c.readerDone
	c.mu.Unlock()
	<-done
	return nil
}

// Counters snapshots the client ledger.
func (c *Client) Counters() Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ctr
}

// Delay returns the server's normalized delay D, or 0 before the first
// Stats reply taught the client what D is.
func (c *Client) Delay() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.delay
}

// PoolStats returns the always-zero ledger of the retired frame-buffer
// pool. It stays only because the wall-clock benchmark
// (benchmark/run.go) still reads it.
func (c *Client) PoolStats() wire.PoolStats { return wire.PoolStats{} }

// sendHello writes the session-binding Hello frame. Called with wmu
// held, before any request frame reaches the same transport.
func (c *Client) sendHello(nc net.Conn) error {
	b, err := wire.AppendHello(c.wbuf[:0], wire.Hello{SessionID: c.sessionID, Tenant: c.tenant})
	c.wbuf = b
	if err != nil {
		return err
	}
	_, err = nc.Write(b)
	return err
}

// getPendLocked pops a recycled tracking node. Called with c.mu held.
func (c *Client) getPendLocked() *pending {
	if n := len(c.freePend); n > 0 {
		p := c.freePend[n-1]
		c.freePend[n-1] = nil
		c.freePend = c.freePend[:n-1]
		return p
	}
	return new(pending)
}

// retirePendLocked returns a resolved request's node to the freelist,
// keeping its payload buffer's capacity for the next write. The caller
// must already have staged any callback it needs — the node's fields
// are dead after this. Called with c.mu held.
func (c *Client) retirePendLocked(p *pending) {
	*p = pending{data: p.data[:0]}
	c.freePend = append(c.freePend, p)
}

// acquireLocked takes one window slot, parking while the window is
// full. It returns the terminal error once the client has failed, or
// ctx's error if ctx ends first. Called with c.mu held; it drops the
// lock while parked and holds it again on return.
func (c *Client) acquireLocked(ctx context.Context) error {
	for {
		if c.err != nil {
			return c.err
		}
		if c.inflight < c.window {
			c.inflight++
			c.wakeIssuerLocked() // pass a wake on while room remains
			return nil
		}
		c.parked++
		c.mu.Unlock()
		var err error
		select {
		case <-c.room:
		case <-c.dead:
		case <-ctx.Done():
			err = ctx.Err()
		}
		c.mu.Lock()
		c.parked--
		if err != nil {
			return err
		}
	}
}

// release frees one window slot. The caller wakes a parked issuer with
// wakeIssuerLocked once it has freed everything it is going to (one
// wake per decoded frame, not per slot). Called with c.mu held.
func (c *Client) release() {
	if c.inflight == 0 {
		panic("client: window release without acquire")
	}
	c.inflight--
}

// wakeIssuerLocked wakes one parked issuer if the window has room. The
// wake channel holds one token, so a wake that finds it full is already
// covered: the issuer that takes the pending token passes it on.
// Called with c.mu held.
func (c *Client) wakeIssuerLocked() {
	if c.parked > 0 && c.inflight < c.window {
		select {
		case c.room <- struct{}{}:
		default:
		}
	}
}

func (c *Client) deadErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Read queues a read of addr. cb fires exactly once — with the word and
// its cycle stamps, or with a non-nil Err if the read was dropped — on
// the receive goroutine. Read blocks while the in-flight window is
// full; ctx bounds the wait.
func (c *Client) Read(ctx context.Context, addr uint64, cb func(Completion)) error {
	c.mu.Lock()
	if err := c.acquireLocked(ctx); err != nil {
		c.mu.Unlock()
		return err
	}
	seq := c.next
	c.next++
	p := c.getPendLocked()
	p.addr, p.cb, p.deadline = addr, cb, c.deadlineFrom()
	c.pend.put(seq, p)
	c.sendq = append(c.sendq, wire.Request{Op: wire.OpRead, Seq: seq, Addr: addr})
	c.ctr.Issued++
	c.ctr.Reads++
	c.mu.Unlock()
	if !c.manual {
		c.wakeFlusher()
	}
	return nil
}

// Write queues a write of data to addr. The slot frees when the server
// accepts (or drops) the write; completion is otherwise silent, exactly
// like the in-process interface.
func (c *Client) Write(ctx context.Context, addr uint64, data []byte) error {
	if len(data) > wire.MaxData {
		return fmt.Errorf("client: write of %d bytes exceeds wire.MaxData", len(data))
	}
	c.mu.Lock()
	if err := c.acquireLocked(ctx); err != nil {
		c.mu.Unlock()
		return err
	}
	seq := c.next
	c.next++
	// The payload must survive until the verdict (retries and reconnect
	// retransmits re-send it), so copy it into the node's own buffer.
	p := c.getPendLocked()
	p.write, p.addr, p.data, p.deadline = true, addr, append(p.data[:0], data...), c.deadlineFrom()
	c.pend.put(seq, p)
	c.sendq = append(c.sendq, wire.Request{Op: wire.OpWrite, Seq: seq, Addr: addr, Data: p.data})
	c.ctr.Issued++
	c.ctr.Writes++
	c.mu.Unlock()
	if !c.manual {
		c.wakeFlusher()
	}
	return nil
}

// deadlineFrom stamps a new request's deadline. Called with c.mu held.
func (c *Client) deadlineFrom() time.Time {
	if c.reqTimeout <= 0 {
		return time.Time{}
	}
	return time.Now().Add(c.reqTimeout)
}

// Kick synchronously drains the send queue into request frames (at most
// MaxBatch requests each). With ManualBatch this is the only trigger;
// otherwise the background flusher makes it unnecessary.
func (c *Client) Kick() error { return c.flushQueue() }

// Flush is a barrier: it returns once every request issued before the
// call has resolved — reads completed or dropped, writes accepted or
// dropped. Stall retries re-enqueued behind the barrier are waited for
// too (the barrier simply re-arms until the pipeline is empty).
func (c *Client) Flush(ctx context.Context) error {
	for {
		c.mu.Lock()
		if c.err != nil {
			err := c.err
			c.mu.Unlock()
			return err
		}
		seq := c.next
		c.next++
		ch := make(chan struct{})
		c.flushW[seq] = ch
		c.sendq = append(c.sendq, wire.Request{Op: wire.OpFlush, Seq: seq})
		c.mu.Unlock()
		if err := c.flushQueue(); err != nil {
			return err
		}
		select {
		case <-ch:
		case <-c.dead:
			return c.deadErr()
		case <-ctx.Done():
			c.mu.Lock()
			delete(c.flushW, seq)
			c.mu.Unlock()
			return ctx.Err()
		}
		c.mu.Lock()
		err := c.err
		done := c.pend.len() == 0 && len(c.sendq) == 0
		c.mu.Unlock()
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
}

// Stats requests a server snapshot. The first reply also teaches the
// client the server's delay D, arming the per-completion fixed-D check.
func (c *Client) Stats(ctx context.Context) (wire.Stats, error) {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return wire.Stats{}, err
	}
	seq := c.next
	c.next++
	ch := make(chan wire.Stats, 1)
	c.statsW[seq] = ch
	c.sendq = append(c.sendq, wire.Request{Op: wire.OpStats, Seq: seq})
	c.mu.Unlock()
	if err := c.flushQueue(); err != nil {
		return wire.Stats{}, err
	}
	select {
	case s := <-ch:
		return s, nil
	case <-c.dead:
		return wire.Stats{}, c.deadErr()
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.statsW, seq)
		c.mu.Unlock()
		return wire.Stats{}, ctx.Err()
	}
}

func (c *Client) wakeFlusher() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// flushLoop is the background flusher: every doorbell ring drains the
// whole send queue, which batches naturally — requests queued while a
// frame is being written ride the next frame.
func (c *Client) flushLoop() {
	for {
		select {
		case <-c.kick:
			c.flushQueue() //nolint:errcheck // flushQueue fails the conn itself
		case <-c.dead:
			return
		}
	}
}

// flushQueue drains the whole send queue in one shot: every
// queued request is encoded — in frames of at most MaxBatch — into the
// reused write buffer, and the lot goes to the kernel as ONE write, so
// the syscall cost per flush is constant no matter how many frames the
// queue filled. It holds wmu for the whole drain, so concurrent
// flushers serialize. Lock order is wmu before mu; nothing acquires
// them the other way around.
//
// Encoding happens under c.mu: every path that retires a tracking node
// (accept, drop, expiry, failure) also holds c.mu, so no node's payload
// buffer can be refilled by a new Write while the encoder is still
// copying it. The write syscall itself runs outside c.mu, under wmu
// alone.
//
// During a reconnect it returns immediately: every queued request is
// also tracked in pend/flushW/statsW, and the reconnect rebuilds the
// send queue from those maps once the new transport is up.
func (c *Client) flushQueue() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	for {
		c.mu.Lock()
		if c.err != nil {
			err := c.err
			c.mu.Unlock()
			return err
		}
		if c.reconnecting || len(c.sendq) == 0 {
			c.mu.Unlock()
			return nil
		}
		buf := c.wbuf[:0]
		q := c.sendq
		for len(q) > 0 {
			n := wire.FitRequests(q[:min(len(q), c.maxBatch)])
			var err error
			if buf, err = wire.AppendRequests(buf, 0, q[:n]); err != nil {
				// Can't happen: Read/Write validate every record against
				// the protocol bounds before queueing it.
				c.wbuf = buf
				c.mu.Unlock()
				c.fail(err)
				return err
			}
			q = q[n:]
		}
		c.sendq = c.sendq[:0]
		c.wbuf = buf
		nc := c.nc
		gen := c.gen
		c.mu.Unlock()

		if _, err := nc.Write(buf); err != nil {
			c.transportErr(gen, err)
			if c.dialer != nil {
				return nil // the batch lives on in pend; the reconnect re-sends it
			}
			return err
		}
	}
}

// invocation is a callback staged while holding c.mu, run after.
type invocation struct {
	cb   func(Completion)
	comp Completion
}

// staged is what one decoded frame resolved under c.mu, for the
// receive goroutine to finish once it has dropped the lock: callbacks
// first, then the flush barriers the frame released, so a Flush never
// returns while a callback of the frame that resolved it is pending.
// The receive goroutine reuses one staged across frames.
type staged struct {
	cbs     []invocation
	flushed []chan struct{}
	retry   bool // a stall re-enqueued a request
}

// readLoop decodes server frames and resolves pending requests. One
// runs per transport; gen ties its errors to that transport so a stale
// reader cannot kill a healthy successor.
func (c *Client) readLoop(nc net.Conn, gen uint64, done chan struct{}) {
	defer close(done)
	dec := wire.NewDecoder(nc)
	var st staged
	for {
		f, err := dec.Next()
		if err != nil {
			c.transportErr(gen, err)
			return
		}
		st.cbs, st.flushed, st.retry = st.cbs[:0], st.flushed[:0], false
		switch f.Type {
		case wire.FrameReplies:
			err = c.handleReplies(f.Replies, &st)
		case wire.FrameCompletions:
			err = c.handleCompletions(f.Completions, &st)
		case wire.FrameStats:
			err = c.handleStats(f.Stats)
		default:
			err = fmt.Errorf("client: server sent frame type %d", f.Type)
		}
		if err != nil {
			c.fail(err)
			return
		}
		// Callbacks run outside c.mu but before the next frame decode,
		// while their Data still aliases the decoder buffer.
		for i := range st.cbs {
			st.cbs[i].cb(st.cbs[i].comp)
		}
		for _, ch := range st.flushed {
			close(ch)
		}
		if st.retry {
			if c.manual {
				// Manual mode has no background flusher; resend retries
				// here so a stalled request cannot linger forever.
				if err := c.flushQueue(); err != nil {
					return
				}
			} else {
				c.wakeFlusher()
			}
		}
	}
}

// transportErr reacts to a dead transport: terminal without a Dialer,
// otherwise the start of a reconnect. gen identifies the transport the
// error came from; errors from an already-replaced transport are noise
// and are dropped.
func (c *Client) transportErr(gen uint64, err error) {
	if c.dialer == nil {
		c.fail(err)
		return
	}
	c.mu.Lock()
	if c.closed || gen != c.gen || c.reconnecting {
		c.mu.Unlock()
		return
	}
	c.reconnecting = true
	nc := c.nc
	c.mu.Unlock()
	nc.Close()
	go c.reconnectLoop(err)
}

// reconnectLoop redials under capped exponential backoff with seeded
// jitter. Exactly one instance runs at a time (the reconnecting flag
// gates entry), so the jitter rng needs no lock.
func (c *Client) reconnectLoop(cause error) {
	for attempt := 0; ; attempt++ {
		if c.maxReconn >= 0 && attempt >= c.maxReconn {
			c.fail(fmt.Errorf("client: gave up after %d reconnect attempts: %w", attempt, cause))
			return
		}
		nc, err := c.dialer()
		if err == nil {
			c.install(nc)
			return
		}
		cause = err
		select {
		case <-time.After(c.backoff(attempt)):
		case <-c.dead:
			return
		}
	}
}

// backoff is attempt n's wait: base<<n jittered into [d/2, d], capped.
func (c *Client) backoff(attempt int) time.Duration {
	if attempt > 30 {
		attempt = 30
	}
	d := c.backBase << uint(attempt)
	if d <= 0 || d > c.backMax {
		d = c.backMax
	}
	half := d / 2
	return half + time.Duration(c.rng.Int63n(int64(half)+1))
}

// install makes nc the client's transport: Hello goes out first, then
// the send queue is rebuilt from every unresolved request so the new
// connection resumes exactly where the old one died. Holding wmu across
// the swap keeps the Hello ahead of any request frame.
func (c *Client) install(nc net.Conn) {
	c.wmu.Lock()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.wmu.Unlock()
		nc.Close()
		return
	}
	c.nc = nc
	c.gen++
	gen := c.gen
	c.reconnecting = false
	c.ctr.Reconnects++
	c.rebuildSendqLocked()
	done := make(chan struct{})
	c.readerDone = done
	c.mu.Unlock()
	herr := c.sendHello(nc)
	c.wmu.Unlock()
	go c.readLoop(nc, gen, done)
	if herr != nil {
		c.transportErr(gen, herr)
		return
	}
	if c.manual {
		go c.flushQueue() //nolint:errcheck // flushQueue fails the conn itself
	} else {
		c.wakeFlusher()
	}
}

// rebuildSendqLocked reconstructs the send queue from the unresolved
// request maps in seq order: reads and writes from pend, barriers from
// flushW, stats waiters from statsW. Anything the old transport may
// have delivered is sent again — the server's replay cache makes the
// duplicates harmless. Called with c.mu held.
func (c *Client) rebuildSendqLocked() {
	c.sendq = c.sendq[:0]
	c.pend.forEach(func(seq uint64, p *pending) {
		op := byte(wire.OpRead)
		if p.write {
			op = wire.OpWrite
		}
		c.sendq = append(c.sendq, wire.Request{Op: op, Seq: seq, Addr: p.addr, Data: p.data})
	})
	c.ctr.Retransmits += uint64(c.pend.len())
	for seq := range c.flushW {
		c.sendq = append(c.sendq, wire.Request{Op: wire.OpFlush, Seq: seq})
	}
	for seq := range c.statsW {
		c.sendq = append(c.sendq, wire.Request{Op: wire.OpStats, Seq: seq})
	}
	sort.Slice(c.sendq, func(i, j int) bool { return c.sendq[i].Seq < c.sendq[j].Seq })
}

// deadlineLoop scans for overdue requests. It keeps running across
// reconnects — a request parked behind a dead transport times out on
// the same clock as one the server is merely slow to answer.
func (c *Client) deadlineLoop() {
	period := c.reqTimeout / 4
	if period < time.Millisecond {
		period = time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case now := <-t.C:
			c.expire(now)
		case <-c.dead:
			return
		}
	}
}

// expire resolves every pending request whose deadline has passed with
// ErrDeadlineExceeded. The server may still execute the request; its
// late verdict is tolerated as a stray and ignored.
func (c *Client) expire(now time.Time) {
	c.mu.Lock()
	var cbs []invocation
	c.pend.forEach(func(seq uint64, p *pending) {
		if p.deadline.IsZero() || now.Before(p.deadline) {
			return
		}
		c.pend.del(seq)
		c.ctr.DeadlineExceeded++
		c.release()
		if !p.write && p.cb != nil {
			cbs = append(cbs, invocation{cb: p.cb, comp: Completion{Addr: p.addr, Err: ErrDeadlineExceeded}})
		}
		c.retirePendLocked(p)
	})
	c.wakeIssuerLocked()
	c.mu.Unlock()
	for i := range cbs {
		cbs[i].cb(cbs[i].comp)
	}
}

func (c *Client) noteStall(code byte) {
	switch code {
	case wire.CodeDelayBuffer:
		c.ctr.Stalls.DelayBuffer++
	case wire.CodeBankQueue:
		c.ctr.Stalls.BankQueue++
	case wire.CodeWriteBuffer:
		c.ctr.Stalls.WriteBuffer++
	case wire.CodeCounter:
		c.ctr.Stalls.Counter++
	case wire.CodeThrottled:
		c.ctr.Stalls.Throttled++
	default:
		c.ctr.Stalls.Other++
	}
}

// dropLocked resolves p as dropped. Returns the callback to stage, if
// any. Called with c.mu held.
func (c *Client) dropLocked(seq uint64, p *pending, code byte, exhausted bool) (invocation, bool) {
	c.pend.del(seq)
	c.ctr.Drops++
	if exhausted {
		c.ctr.Exhausted++
	}
	c.release()
	inv := invocation{}
	staged := false
	if !p.write && p.cb != nil {
		err := fmt.Errorf("%w: %w", recovery.ErrDropped, wire.ErrOf(code))
		inv = invocation{cb: p.cb, comp: Completion{Addr: p.addr, Err: err}}
		staged = true
	}
	c.retirePendLocked(p)
	return inv, staged
}

// strayErr reacts to a verdict with no matching pending request. In
// lenient mode (sessions, reconnects or deadlines armed) duplicates are
// expected — a resumed server transport re-sends anything that was in
// flight when the old one died, and a deadline-expired request's
// verdict can arrive after the client resolved it locally — so the
// verdict is silently ignored. In strict mode it is a protocol error.
func (c *Client) strayErr(kind string, seq uint64) error {
	if c.lenient {
		return nil
	}
	return fmt.Errorf("client: stray %s for seq %d", kind, seq)
}

// handleReplies resolves one reply frame under c.mu, staging its
// callbacks and released barriers in st, and sends the frame's one
// issuer wake before it drops the lock.
func (c *Client) handleReplies(reps []wire.Reply, st *staged) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.wakeIssuerLocked()
	for i := range reps {
		rp := &reps[i]
		switch rp.Status {
		case wire.StatusFlushed:
			if ch, ok := c.flushW[rp.Seq]; ok {
				delete(c.flushW, rp.Seq)
				st.flushed = append(st.flushed, ch)
			}
			continue
		case wire.StatusAccepted:
			p, ok := c.pend.get(rp.Seq)
			if !ok || !p.write {
				if err := c.strayErr("accept", rp.Seq); err != nil {
					return err
				}
				continue
			}
			c.pend.del(rp.Seq)
			c.ctr.AcceptedWrites++
			c.release()
			c.retirePendLocked(p)
		case wire.StatusStall:
			p, ok := c.pend.get(rp.Seq)
			if !ok {
				if err := c.strayErr("stall", rp.Seq); err != nil {
					return err
				}
				continue
			}
			c.noteStall(rp.Code)
			if c.policy == recovery.DropWithAccounting {
				if inv, ok := c.dropLocked(rp.Seq, p, rp.Code, false); ok {
					st.cbs = append(st.cbs, inv)
				}
				continue
			}
			p.attempts++
			if p.attempts >= c.maxAttempts {
				if inv, ok := c.dropLocked(rp.Seq, p, rp.Code, true); ok {
					st.cbs = append(st.cbs, inv)
				}
				continue
			}
			c.ctr.Retries++
			op := byte(wire.OpRead)
			if p.write {
				op = wire.OpWrite
			}
			c.sendq = append(c.sendq, wire.Request{Op: op, Seq: rp.Seq, Addr: p.addr, Data: p.data})
			st.retry = true
		case wire.StatusDropped:
			p, ok := c.pend.get(rp.Seq)
			if !ok {
				if err := c.strayErr("drop", rp.Seq); err != nil {
					return err
				}
				continue
			}
			if inv, ok := c.dropLocked(rp.Seq, p, rp.Code, false); ok {
				st.cbs = append(st.cbs, inv)
			}
		default:
			return fmt.Errorf("client: unknown reply status %d", rp.Status)
		}
	}
	return nil
}

// handleCompletions resolves one completion frame into st, like
// handleReplies.
func (c *Client) handleCompletions(comps []wire.Completion, st *staged) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.wakeIssuerLocked()
	for i := range comps {
		w := &comps[i]
		p, ok := c.pend.get(w.Seq)
		if !ok || p.write {
			if err := c.strayErr("completion", w.Seq); err != nil {
				return err
			}
			continue
		}
		c.pend.del(w.Seq)
		c.ctr.Completions++
		var err error
		if w.Flags&wire.FlagUncorrectable != 0 {
			c.ctr.Uncorrectable++
			err = core.ErrUncorrectable
		}
		if c.delay != 0 && w.DeliveredAt-w.IssuedAt != c.delay {
			c.ctr.LatencyViolations++
		}
		c.release()
		if p.cb != nil {
			st.cbs = append(st.cbs, invocation{cb: p.cb, comp: Completion{
				Addr:        w.Addr,
				Data:        w.Data,
				IssuedAt:    w.IssuedAt,
				DeliveredAt: w.DeliveredAt,
				Err:         err,
			}})
		}
		c.retirePendLocked(p)
	}
	return nil
}

func (c *Client) handleStats(s wire.Stats) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.delay = s.Delay
	// A missing waiter means the Stats call timed out; the late reply
	// is dropped, not fatal.
	if ch, ok := c.statsW[s.Seq]; ok {
		delete(c.statsW, s.Seq)
		ch <- s
	}
	return nil
}

// fail makes err the client's terminal error (first one wins), closes
// the connection, and resolves everything pending.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.err = err
	var cbs []invocation
	c.pend.forEach(func(seq uint64, p *pending) {
		c.pend.del(seq)
		c.release()
		if !p.write && p.cb != nil {
			cbs = append(cbs, invocation{cb: p.cb, comp: Completion{Addr: p.addr, Err: err}})
		}
		c.retirePendLocked(p)
	})
	for seq, ch := range c.flushW {
		delete(c.flushW, seq)
		close(ch)
	}
	for seq := range c.statsW {
		delete(c.statsW, seq)
	}
	c.sendq = c.sendq[:0]
	nc := c.nc
	close(c.dead)
	c.mu.Unlock()
	nc.Close()
	for i := range cbs {
		cbs[i].cb(cbs[i].comp)
	}
}
