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
// state: request records land in a reused batch slice (one of the
// session's hand-off slices in lockstep mode, where batches go to the
// engine; a loop-local slice otherwise), and each write payload is
// copied into the payload buffer its batch entry owns (see appendReq).
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
			select {
			case batch = <-c.s.batches:
			case <-c.e.done:
				c.fail(fmt.Errorf("server: engine closed"))
				return
			}
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
				batch = appendReq(batch, pendingReq{op: r.Op, seq: r.Seq, addr: r.Addr})
			}
			c.s.mu.Unlock()
			if refused > 0 {
				c.s.wcond.Signal()
			}
		} else {
			for i := range f.Requests {
				r := &f.Requests[i]
				batch = appendReq(batch, pendingReq{op: r.Op, seq: r.Seq, addr: r.Addr, data: r.Data})
			}
		}
		if len(batch) == 0 {
			if c.e.cfg.Lockstep {
				c.s.batches <- batch
			}
			continue
		}
		if c.e.cfg.Lockstep {
			select {
			case c.e.frames <- inFrame{s: c.s, reqs: batch}:
			case <-c.e.done:
				c.fail(fmt.Errorf("server: engine closed"))
				return
			}
			continue
		}
		if !c.s.ingest(c, batch) {
			c.fail(fmt.Errorf("server: session closed"))
			return
		}
		local = batch
	}
}

// writeLoop drains the session's output buffers into frames. Everything
// staged since the last wake — under load, a whole clock step's worth
// of verdicts, because the engine signals each touched session once per
// step — is encoded into the writer's own slab and handed to the kernel
// as ONE write, so the syscall cost per step per connection is constant
// no matter how many replies, completions and stats snapshots the step
// produced. Within each record kind the order is staging order, and
// one write preserves byte order, so completions reach the client in
// fixed-D delivery order. Across kinds the batch is completions, then
// replies, then stats (see appendFrames): a flush barrier's reply
// therefore never overtakes the completions it waited for.
//
// On a write error the swapped-out records are pushed back to the FRONT
// of the session buffers before detaching: a resolution is never lost
// to a dead socket, only delayed until the next transport attaches.
// Records already on the wire when the error hit may be sent again
// after resume — the client side deduplicates by seq.
func (c *conn) writeLoop() {
	s := c.s
	var reps []wire.Reply
	// comps and data trade places with the session's staging slice and
	// word slab at every pickup; buf holds all the frames of a pickup.
	comps := make([]wire.Completion, 0, c.e.pickup)
	data := make([]byte, 0, c.e.pickup*c.e.word)
	var stats []wire.Stats
	frames := (c.e.pickup + writerChunk - 1) / writerChunk
	buf := make([]byte, 0, frames*wire.SizeWordCompletions(writerChunk, c.e.word))
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

		buf = appendFrames(buf[:0], cycle, reps, comps, stats)
		if err := c.write(buf); err != nil {
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

// writerChunk caps the records encoded into a single egress frame. It
// fixes the frame boundaries: how many records a frame carries does not
// depend on how much output a pickup found staged, so the client's
// schedule of one issuer wake per decoded frame does not depend on the
// writer's timing. All the frames of a pickup leave in the same write,
// so the chunk adds no syscalls.
const writerChunk = 256

// appendFrames encodes one drained batch onto buf: completion then
// reply frames chunked to writerChunk (and the protocol limits), then
// one stats frame per snapshot. Completions go first because a
// StatusFlushed reply is only staged once its session has nothing
// outstanding, so every completion the barrier covers was staged before
// it — possibly in this same batch. Encoding replies first would let the
// barrier overtake them, and the client would see its barrier resolve
// with reads still pending. Encoding cannot fail because the engine only
// stages records it built within the protocol bounds.
func appendFrames(buf []byte, cycle uint64, reps []wire.Reply, comps []wire.Completion, stats []wire.Stats) []byte {
	var err error
	for len(comps) > 0 {
		n := wire.FitCompletions(comps[:min(len(comps), writerChunk)])
		if buf, err = wire.AppendCompletions(buf, cycle, comps[:n]); err != nil {
			panic(fmt.Sprintf("server: staged completions unencodable: %v", err))
		}
		comps = comps[n:]
	}
	for len(reps) > 0 {
		n := min(len(reps), writerChunk)
		if buf, err = wire.AppendReplies(buf, cycle, reps[:n]); err != nil {
			panic(fmt.Sprintf("server: staged replies unencodable: %v", err))
		}
		reps = reps[n:]
	}
	for _, st := range stats {
		if buf, err = wire.AppendStats(buf, cycle, st); err != nil {
			panic(fmt.Sprintf("server: staged stats unencodable: %v", err))
		}
	}
	return buf
}

// write sends one pickup's frames in a single write, arming the
// per-connection write deadline (Config.WriteTimeout) once for the whole
// batch so one wedged peer cannot park the writer forever — the deadline
// fires, the conn detaches, and the session keeps the undelivered output
// for resume.
func (c *conn) write(buf []byte) error {
	if c.e.cfg.WriteTimeout > 0 {
		if err := c.nc.SetWriteDeadline(time.Now().Add(c.e.cfg.WriteTimeout)); err != nil {
			return err
		}
	}
	_, err := c.nc.Write(buf)
	return err
}
