package server

import (
	"sync"

	"repro/internal/qos"
	"repro/internal/wire"
)

// DefaultDedupWindow bounds the per-session replay cache when
// Config.DedupWindow is zero.
const DefaultDedupWindow = 4096

// doneEntry is one cached terminal verdict in the replay cache.
// Writes cache their accept; reads cache the whole completion (with an
// owned data copy). Stall and drop verdicts are deliberately NOT
// cached: they mean the request left the system, so a replay is a
// legitimate fresh attempt.
type doneEntry struct {
	write bool
	comp  wire.Completion // reads only; Data is owned by the cache
}

// session is the durable half of a connection: the request queue, the
// in-flight window, the replay cache and the output buffers all live
// here, so they survive the transport dying underneath them. A
// reconnecting client that presents the same nonzero SessionID in its
// Hello resumes exactly where the wire broke: parked output flushes to
// the new conn, still-live requests keep executing, and replayed
// requests are deduplicated by seq instead of re-executing.
//
// Sessions are single-writer on the memory side (only the engine
// goroutine issues and delivers) and single-reader on the transport
// side (one conn at a time); s.mu makes the handoffs safe.
//
// Lock order: s.mu may be taken before e.mu, never the reverse.
type session struct {
	e      *Engine
	id     uint64      // nonzero = resumable via Hello
	name   string      // tenant name, for diagnostics
	tenant *qos.Tenant // nil when the engine has no regulator

	mu  sync.Mutex
	cur *conn // attached transport; nil while detached

	// pending[head:] is the queue of requests decoded but not yet
	// issued; head-indexing keeps pops O(1) without reallocating.
	pending []pendingReq
	head    int

	outstanding int // reads issued to the memory, completion not yet routed
	inStage     int // requests parked in the out-of-order stage (OOO mode)

	// Throttle-once-per-cycle guard: the issue sweep may visit a
	// session several times per cycle, but a queue head refused a token
	// must be charged one refusal per cycle, not one per visit.
	thrCycle uint64
	thrSeq   uint64

	// live holds seqs queued or in the memory; done is the replay cache
	// of positive terminal verdicts, evicted FIFO through doneQ.
	live  map[uint64]struct{}
	done  map[uint64]doneEntry
	doneQ []uint64
	doneH int

	outReplies []wire.Reply
	outComps   []wire.Completion
	outStats   []wire.Stats
	// outData is the slab behind outComps' payloads: stageComp appends
	// each word here and points Completion.Data into it. The writer
	// swaps it out together with outComps and hands back the slab of
	// its previous batch, which it has finished writing.
	outData []byte

	// freeBatches recycles the lockstep reader's hand-off slices: the
	// reader takes one, fills it, and sends it to the engine, which
	// returns it after admission. Guarded by s.mu.
	freeBatches [][]pendingReq

	// outDirty marks the session as having staged output the engine has
	// not yet signalled; set via Engine.noteOut during a step, cleared
	// when the end-of-step sweep signals the writer. Guarded by s.mu,
	// engine goroutine only.
	outDirty bool

	rcond *sync.Cond // readers wait here for queue space
	wcond *sync.Cond // the attached conn's writer waits here for output

	closed bool // engine shut down, or anonymous session orphaned
}

func newSession(e *Engine, id uint64, tenantName string) *session {
	s := &session{
		e:        e,
		id:       id,
		name:     tenantName,
		live:     make(map[uint64]struct{}),
		done:     make(map[uint64]doneEntry),
		thrCycle: ^uint64(0),
	}
	s.rcond = sync.NewCond(&s.mu)
	s.wcond = sync.NewCond(&s.mu)
	if e.reg != nil {
		s.tenant = e.reg.Tenant(tenantName)
	}
	return s
}

func (s *session) resumable() bool { return s.id != 0 }

func (s *session) queuedLocked() int { return len(s.pending) - s.head }

// popLocked removes the queue head. Called with s.mu held.
func (s *session) popLocked() {
	s.head++
	if s.head == len(s.pending) {
		s.pending = s.pending[:0]
		s.head = 0
	} else if s.head > 256 && s.head*2 > len(s.pending) {
		n := copy(s.pending, s.pending[s.head:])
		s.pending = s.pending[:n]
		s.head = 0
	}
	s.e.pendingTot.Add(-1)
	if s.tenant != nil {
		s.tenant.NoteQueued(-1)
	}
	s.rcond.Signal()
}

// resolveLocked forgets a live seq. Called with s.mu held on every
// terminal verdict (accept, completion, stall, drop).
func (s *session) resolveLocked(seq uint64) {
	delete(s.live, seq)
}

// rememberLocked records a positive terminal verdict in the replay
// cache, evicting the oldest entry beyond the window. Called with s.mu
// held.
func (s *session) rememberLocked(seq uint64, ent doneEntry) {
	if _, dup := s.done[seq]; !dup {
		s.doneQ = append(s.doneQ, seq)
	}
	s.done[seq] = ent
	for len(s.done) > s.e.cfg.DedupWindow {
		old := s.doneQ[s.doneH]
		s.doneH++
		if s.doneH == len(s.doneQ) {
			s.doneQ = s.doneQ[:0]
			s.doneH = 0
		} else if s.doneH > 256 && s.doneH*2 > len(s.doneQ) {
			n := copy(s.doneQ, s.doneQ[s.doneH:])
			s.doneQ = s.doneQ[:n]
			s.doneH = 0
		}
		delete(s.done, old)
	}
}

// The stage* helpers append to the output buffers WITHOUT waking the
// writer. The caller decides when to signal: the engine marks the
// session touched (Engine.noteOut) and signals every touched session
// once at the end of the step — that coalescing is what lets the writer
// ship a whole step's verdicts in one vectored write — while
// conn-goroutine paths (drain refusals, replay cache hits) signal
// immediately themselves. All three are called with s.mu held.

func (s *session) stageReply(r wire.Reply) {
	s.outReplies = append(s.outReplies, r)
}

// stageComp stages comp with a copy of data, taken into the outData
// slab. A slab that has to grow moves, but the completions staged
// before keep pointing into the old array, which nothing writes again.
func (s *session) stageComp(comp wire.Completion, data []byte) {
	n := len(s.outData)
	s.outData = append(s.outData, data...)
	comp.Data = s.outData[n:len(s.outData):len(s.outData)]
	s.outComps = append(s.outComps, comp)
}

func (s *session) stageStats(st wire.Stats) {
	s.outStats = append(s.outStats, st)
}

// getBatch returns a recycled hand-off slice (lockstep mode only).
func (s *session) getBatch() []pendingReq {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.freeBatches); n > 0 {
		b := s.freeBatches[n-1]
		s.freeBatches[n-1] = nil
		s.freeBatches = s.freeBatches[:n-1]
		return b[:0]
	}
	return nil
}

// putBatch files a hand-off slice for reuse. The queued copies own any
// pooled payloads by now, so the slice is returned as bare capacity.
func (s *session) putBatch(b []pendingReq) {
	if cap(b) == 0 {
		return
	}
	s.mu.Lock()
	s.freeBatches = append(s.freeBatches, b[:0])
	s.mu.Unlock()
}

// releaseBatch abandons a filled batch that never reached the queue,
// returning its pooled payloads. Used on the reader's failure paths.
func (s *session) releaseBatch(b []pendingReq) {
	for i := range b {
		s.e.pool.Put(b[i].data)
		b[i].data = nil
	}
}

// ingestLocked screens one decoded batch through the replay cache and
// appends the survivors to the queue, returning how many were
// enqueued. Called with s.mu held.
func (s *session) ingestLocked(batch []pendingReq) int {
	cycle := s.e.cycle.Load()
	n := 0
	for i := range batch {
		req := batch[i]
		switch req.op {
		case wire.OpRead, wire.OpWrite:
			// Replay protection is a resumable-session concern: an
			// anonymous session's client can never reconnect, so a
			// repeated seq there is a deliberate retry (e.g. after a
			// surfaced stall) and must re-execute.
			if !s.resumable() {
				break
			}
			if _, alive := s.live[req.seq]; alive {
				// Still queued or in the memory: the original will
				// resolve through this session's output. Swallow the
				// replay entirely — its payload copy goes straight back.
				s.e.ctr.replaysDeduped.Add(1)
				s.e.pool.Put(req.data)
				continue
			}
			if ent, ok := s.done[req.seq]; ok {
				// Already resolved: re-emit the cached verdict without
				// touching the memory, so the ledger counts the request
				// once however many times the network made the client
				// send it.
				s.e.ctr.replaysServed.Add(1)
				s.e.pool.Put(req.data)
				if ent.write {
					s.stageReply(wire.Reply{Status: wire.StatusAccepted, Seq: req.seq})
				} else {
					s.stageComp(ent.comp, ent.comp.Data)
				}
				s.wcond.Signal()
				continue
			}
			s.live[req.seq] = struct{}{}
		}
		req.enq = cycle
		s.pending = append(s.pending, req)
		if s.tenant != nil {
			s.tenant.NoteQueued(1)
		}
		n++
	}
	return n
}

// ingest appends a decoded batch, blocking while the window is full
// (the TCP-backpressure path). It returns false when the session or
// conn died while waiting.
func (s *session) ingest(c *conn, batch []pendingReq) bool {
	s.mu.Lock()
	for !s.closed && !c.dead && s.queuedLocked() >= s.e.cfg.Window {
		s.rcond.Wait()
	}
	if s.closed || c.dead {
		s.mu.Unlock()
		return false
	}
	n := s.ingestLocked(batch)
	s.mu.Unlock()
	if n > 0 {
		s.e.pendingTot.Add(int64(n))
		s.e.wake()
	}
	return true
}

// attach makes c the session's transport, displacing any previous conn
// (the newest connection wins — the old one is presumed dead even if
// its goroutines haven't noticed yet). It starts c's writer and
// reports false when the session is closed.
func (s *session) attach(c *conn) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	if old := s.cur; old != nil && old != c {
		old.dead = true
		old.nc.Close()
	} else if s.cur == nil {
		s.e.attached.Add(1)
	}
	s.cur = c
	c.s = s
	s.rcond.Broadcast()
	s.wcond.Broadcast()
	s.mu.Unlock()
	go c.writeLoop()
	return true
}

// detach disconnects c from the session. Resumable sessions keep their
// queue, window and parked output for the next attach; anonymous ones
// can never be resumed, so they drop their queue and mark themselves
// for pruning by the engine.
func (s *session) detach(c *conn, err error) {
	s.mu.Lock()
	c.dead = true
	if s.cur == c {
		s.cur = nil
		s.e.attached.Add(-1)
	}
	dropped := 0
	if !s.resumable() && s.cur == nil && !s.closed {
		dropped = s.queuedLocked()
		if s.tenant != nil && dropped > 0 {
			s.tenant.NoteQueued(int64(-dropped))
		}
		for i := range s.pending[s.head:] {
			req := &s.pending[s.head+i]
			delete(s.live, req.seq)
			s.e.pool.Put(req.data)
			req.data = nil
		}
		s.pending = s.pending[:0]
		s.head = 0
		s.closed = true
	}
	if s.closed && s.cur == nil {
		// Nobody will ever drain this output.
		s.releaseOutputLocked()
	}
	orphaned := s.closed
	s.rcond.Broadcast()
	s.wcond.Broadcast()
	s.mu.Unlock()
	if dropped > 0 {
		s.e.pendingTot.Add(int64(-dropped))
	}
	if orphaned {
		s.e.pruneReq.Store(true)
		s.e.wake()
	}
	c.nc.Close()
	s.e.logf("server: conn detached from session %d (tenant %q): %v", s.id, s.name, err)
}

// releaseOutputLocked clears staged output that will never be
// drained. Only legal on a closed session (a resumable session parks
// its output for resume instead). Called with s.mu held.
func (s *session) releaseOutputLocked() {
	s.outReplies = s.outReplies[:0]
	s.outComps = s.outComps[:0]
	s.outStats = s.outStats[:0]
	s.outData = s.outData[:0]
}

// shutdown closes the session for engine teardown, returning the
// pooled write payloads it still queues and dropping staged output.
func (s *session) shutdown() {
	s.mu.Lock()
	s.closed = true
	if s.cur != nil {
		s.cur.dead = true
		s.cur.nc.Close()
		s.cur = nil
		s.e.attached.Add(-1)
	}
	for i := range s.pending[s.head:] {
		req := &s.pending[s.head+i]
		s.e.pool.Put(req.data)
		req.data = nil
	}
	s.releaseOutputLocked()
	s.rcond.Broadcast()
	s.wcond.Broadcast()
	s.mu.Unlock()
}

// prunable reports whether the engine can forget the session: nothing
// queued, nothing in flight, no transport, and no way to resume.
func (s *session) prunable() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed && s.cur == nil && s.queuedLocked() == 0 && s.outstanding == 0 && s.inStage == 0
}
