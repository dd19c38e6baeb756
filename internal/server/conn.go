package server

import (
	"fmt"
	"net"
	"time"

	"repro/internal/wire"
)

// conn is pure transport: one net.Conn plus the reader and writer
// goroutines that shuttle frames between it and a session. Everything
// durable — the request queue, the in-flight window, the replay cache,
// the staged output — lives in the session, so a conn dying loses
// nothing but the socket.
//
// A connection binds to its session on the first frame: a FrameHello
// resolves (or resumes) the session it names; any other frame type
// first binds an anonymous, non-resumable session, preserving the
// pre-Hello protocol exactly.
type conn struct {
	e  *Engine
	nc net.Conn
	s  *session // set at attach; nil until the first frame

	dead bool // guarded by s.mu once attached
}

// fail tears the transport down after a fatal error. The session (if
// any) survives for resume when it is resumable.
func (c *conn) fail(err error) {
	if c.s != nil {
		c.s.detach(c, err)
		return
	}
	c.nc.Close()
	c.e.logf("server: connection closed before session bind: %v", err)
}

// readLoop decodes request frames into the session queue. In
// free-running mode it appends directly (blocking when the window is
// full — that is the backpressure path); in lockstep mode it hands
// whole frames to the engine's admission queue.
//
// The copy out of the decoder's buffer is allocation-free in steady
// state: request records land in a reused batch slice (a per-session
// freelist in lockstep mode, where batches are handed off to the
// engine; a loop-local slice otherwise) and write payloads in pooled
// buffers whose ownership travels with the queued request until its
// terminal verdict releases them.
func (c *conn) readLoop() {
	dec := wire.NewDecoder(c.nc)
	var local []pendingReq // reused batch for the non-handoff path
	for {
		f, err := dec.Next()
		if err != nil {
			c.fail(err)
			return
		}
		switch f.Type {
		case wire.FrameHello:
			if c.s != nil {
				c.fail(fmt.Errorf("server: duplicate Hello on one connection"))
				return
			}
			if !c.e.adopt(c, f.Hello) {
				c.fail(fmt.Errorf("server: engine not accepting sessions"))
				return
			}
			continue
		case wire.FrameRequests:
		default:
			c.fail(fmt.Errorf("server: client sent frame type %d", f.Type))
			return
		}
		if c.s == nil {
			if !c.e.adopt(c, wire.Hello{}) {
				c.fail(fmt.Errorf("server: engine not accepting sessions"))
				return
			}
		}
		batch := local[:0]
		if c.e.cfg.Lockstep {
			batch = c.s.getBatch()
		}
		if c.e.draining.Load() {
			// Graceful degradation: refuse new work outright — before its
			// payload is even copied — but keep serving flushes and stats
			// so clients can drain what they already have in flight.
			refused := 0
			c.s.mu.Lock()
			for i := range f.Requests {
				r := &f.Requests[i]
				if r.Op == wire.OpRead || r.Op == wire.OpWrite {
					c.e.ctr.drainRefused.Add(1)
					c.s.stageReply(wire.Reply{Status: wire.StatusDropped, Code: wire.CodeDraining, Seq: r.Seq})
					refused++
					continue
				}
				batch = append(batch, pendingReq{op: r.Op, seq: r.Seq, addr: r.Addr})
			}
			c.s.mu.Unlock()
			if refused > 0 {
				c.s.wcond.Signal()
			}
		} else {
			for i := range f.Requests {
				r := &f.Requests[i]
				pr := pendingReq{op: r.Op, seq: r.Seq, addr: r.Addr}
				if len(r.Data) > 0 {
					// The queue outlives the frame: move the payload into a
					// pooled buffer the verdict path will release.
					pr.data = append(c.e.pool.Get(len(r.Data)), r.Data...)
				}
				batch = append(batch, pr)
			}
		}
		if len(batch) == 0 {
			if c.e.cfg.Lockstep {
				c.s.putBatch(batch)
			}
			continue
		}
		if c.e.cfg.Lockstep {
			select {
			case c.e.frames <- inFrame{s: c.s, reqs: batch}:
			case <-c.e.done:
				c.s.releaseBatch(batch)
				c.fail(fmt.Errorf("server: engine closed"))
				return
			}
			continue
		}
		if !c.s.ingest(c, batch) {
			c.s.releaseBatch(batch)
			c.fail(fmt.Errorf("server: session closed"))
			return
		}
		local = batch
	}
}

// writeLoop drains the session's output buffers into frames. Everything
// staged since the last wake — under load, a whole clock step's worth
// of verdicts, because the engine signals each touched session once per
// step — is encoded into pooled frame buffers and handed to the kernel
// as ONE vectored write (net.Buffers → writev on TCP), so the syscall
// cost per step per connection is constant no matter how many replies,
// completions and stats snapshots the step produced. Within each record
// kind the order is staging order, and writev preserves byte order, so
// completions reach the client in fixed-D delivery order. Across kinds
// the batch is completions, then replies, then stats (see buildFrames):
// a flush barrier's reply therefore never overtakes the completions it
// waited for.
//
// On a write error the swapped-out records are pushed back to the FRONT
// of the session buffers before detaching: a resolution is never lost
// to a dead socket, only delayed until the next transport attaches.
// Records already on the wire when the error hit may be sent again
// after resume — the client side deduplicates by seq.
func (c *conn) writeLoop() {
	s := c.s
	var reps []wire.Reply
	var comps []wire.Completion
	var data []byte // the slab behind comps' payloads
	var stats []wire.Stats
	var bufs [][]byte    // pooled frame buffers, owned until Put
	var iovBack [][]byte // reusable backing for the net.Buffers scratch
	var iov net.Buffers  // escapes via writeBatch; hoisted so it heap-allocates once
	for {
		s.mu.Lock()
		for s.cur == c && !s.closed && len(s.outReplies) == 0 && len(s.outComps) == 0 && len(s.outStats) == 0 {
			s.wcond.Wait()
		}
		if s.cur != c || s.closed {
			s.mu.Unlock()
			return
		}
		reps, s.outReplies = s.outReplies, reps[:0]
		comps, s.outComps = s.outComps, comps[:0]
		data, s.outData = s.outData, data[:0]
		stats, s.outStats = s.outStats, stats[:0]
		cycle := c.e.cycle.Load()
		s.mu.Unlock()

		bufs = c.buildFrames(bufs[:0], cycle, reps, comps, stats)
		// WriteTo consumes the net.Buffers header it is handed, so give
		// it a view over a persistent backing slice: iovBack keeps its
		// capacity across batches while bufs retains the frames for the
		// Put-back below.
		iovBack = append(iovBack[:0], bufs...)
		iov = net.Buffers(iovBack)
		err := c.writeBatch(&iov)
		for i := range bufs {
			c.e.pool.Put(bufs[i])
			bufs[i] = nil
		}
		if err != nil {
			// The pushed-back completions keep pointing into data, which
			// this writer, about to exit, never hands back for reuse.
			s.mu.Lock()
			s.outReplies = append(append([]wire.Reply(nil), reps...), s.outReplies...)
			s.outComps = append(append([]wire.Completion(nil), comps...), s.outComps...)
			s.outStats = append(append([]wire.Stats(nil), stats...), s.outStats...)
			s.wcond.Broadcast() // a resumed transport may already be waiting
			s.mu.Unlock()
			s.detach(c, err)
			return
		}
	}
}

// buildFrames encodes one drained batch into pooled buffers, one frame
// writerChunk caps the records encoded into a single egress frame.
// Deliberately far below wire.MaxBatch: the coalesced staging depth
// varies with scheduling, and letting it pick the frame size would
// spread buffer demand across many pool size classes, each missing
// (allocating) on first touch. A fixed small chunk keeps every frame
// buffer in one class that is warm after the first batch. The number of
// frames per flush grows instead, but they all leave in the same
// vectored write, so the syscall count per clock step is unchanged.
const writerChunk = 256

// buildFrames encodes one drained batch into pooled buffers, one frame
// per buffer: completion then reply frames chunked to writerChunk (and
// the protocol limits), then one stats frame per snapshot. Completions
// go first because a StatusFlushed reply is only staged once its
// session has nothing outstanding, so every completion the barrier
// covers was staged before it — possibly in this same batch. Encoding
// replies first would let the barrier overtake them, and the client
// would see its barrier resolve with reads still pending. Every buffer
// is sized exactly before encoding, so the appends never reallocate;
// encoding cannot fail because the engine only stages records it built
// within the protocol bounds.
func (c *conn) buildFrames(bufs [][]byte, cycle uint64, reps []wire.Reply, comps []wire.Completion, stats []wire.Stats) [][]byte {
	var err error
	for len(comps) > 0 {
		n := min(wire.FitCompletions(comps), writerChunk)
		b := c.e.pool.Get(wire.SizeCompletions(comps[:n]))
		if b, err = wire.AppendCompletions(b, cycle, comps[:n]); err != nil {
			panic(fmt.Sprintf("server: staged completions unencodable: %v", err))
		}
		bufs = append(bufs, b)
		comps = comps[n:]
	}
	for len(reps) > 0 {
		n := min(len(reps), writerChunk)
		b := c.e.pool.Get(wire.SizeReplies(n))
		if b, err = wire.AppendReplies(b, cycle, reps[:n]); err != nil {
			panic(fmt.Sprintf("server: staged replies unencodable: %v", err))
		}
		bufs = append(bufs, b)
		reps = reps[n:]
	}
	if len(stats) > 0 {
		b := c.e.pool.Get(len(stats) * wire.SizeStats)
		for _, st := range stats {
			if b, err = wire.AppendStats(b, cycle, st); err != nil {
				panic(fmt.Sprintf("server: staged stats unencodable: %v", err))
			}
		}
		bufs = append(bufs, b)
	}
	return bufs
}

// writeBatch sends one batch of frames as a single vectored write,
// arming the per-connection write deadline (Config.WriteTimeout) once
// for the whole batch so one wedged peer cannot park the writer forever
// — the deadline fires, the conn detaches, and the session keeps the
// undelivered output for resume.
func (c *conn) writeBatch(iov *net.Buffers) error {
	if len(*iov) == 0 {
		return nil
	}
	if c.e.cfg.WriteTimeout > 0 {
		if err := c.nc.SetWriteDeadline(time.Now().Add(c.e.cfg.WriteTimeout)); err != nil {
			return err
		}
	}
	_, err := iov.WriteTo(c.nc)
	return err
}
