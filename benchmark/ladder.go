package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"time"

	"repro/internal/client"
	"repro/internal/coded"
	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/multichannel"
	"repro/internal/server"
	"repro/internal/wire"
)

// The traced ladder replays a workload's first requests in-process, one
// rung per layer, through public functions only. Every span is recorded
// from this file, around the call into the layer; nothing inside the
// layers is instrumented.

// Daemon defaults the rungs mirror (cmd/vpnmd flags).
const (
	daemonChannels = 4
	daemonSeed     = 1
)

// ladderBatch is the span granularity for per-request calls, and the
// frame size of the pipe rung (as in BenchmarkServerLoopback).
const ladderBatch = 64

// pipeWindow is the pipe rung's client window. A lockstep engine never
// ticks while idle, so the window must exceed everything that can be in
// flight: at most Ports() reads per cycle for D cycles (8 x 1004 with
// coded banks) plus the stage and one batch.
const pipeWindow = 32768

// Span kinds, per rung.
var (
	hashKinds = []spanKind{{"hash.H3.Hash x64", "hash"}}
	coreKinds = []spanKind{{"core.issue x64", "core"}, {"core.Tick", "core"}}
	mcKinds   = []spanKind{
		{"multichannel.issue x64", "multichannel"},
		{"multichannel.Tick", "multichannel"},
		{"multichannel.Stage.Sweep", "multichannel"},
	}
	wireKinds = []spanKind{
		{"wire.AppendRequests", "wire"},
		{"wire.DecodeFrame(requests)", "wire"},
		{"wire.AppendReplies+AppendCompletions", "wire"},
		{"wire.DecodeFrame(replies,completions)", "wire"},
	}
	pipeKinds = []spanKind{
		{"server.pipe x64", "server"},
		{"client.Read/Write x64", "client"},
		{"client.Kick", "client"},
	}
)

const (
	kCoreBatch, kCoreTick                   = 0, 1
	kMcBatch, kMcTick, kMcSweep             = 0, 1, 2
	kEncReq, kDecReq, kEncComp, kDecComp    = 0, 1, 2, 3
	kPipeBatch, kClientEnqueue, kClientKick = 0, 1, 2
)

// controllerConfig is the per-channel configuration a daemon started
// with w's flags builds: every default, the workload's word size and
// coded geometry.
func controllerConfig(w workload) (core.Config, error) {
	geo, err := coded.ParseFlag(w.coded)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{WordBytes: wordBytes, Coded: geo}, nil
}

// ladderOut is one ladder pass: per-rung wall times, the deterministic
// simulated counts, and (traced pass only) the span totals.
type ladderOut struct {
	n int // requests replayed

	hashWall, coreWall, mcWall, wireWall, pipeWall time.Duration

	hash, core, mc, wire, pipe []kindTotals

	mcCycles    uint64 // cycles until the last request issued
	pipeCycles  uint64 // engine cycles until the last request issued
	wireBytes   uint64
	pipeMallocs uint64
	sink        uint64 // keeps the hash rung's result live
}

func (o ladderOut) wall() time.Duration {
	return o.hashWall + o.coreWall + o.mcWall + o.wireWall + o.pipeWall
}

// verifier checks the completions a rung's Tick returns: fixed D and the
// read canary.
type verifier struct {
	seed, d uint64
	seen    uint64
}

func (v *verifier) check(comps []core.Completion) error {
	for i := range comps {
		c := &comps[i]
		if c.Err != nil {
			return fmt.Errorf("completion for %#x: %w", c.Addr, c.Err)
		}
		if c.DeliveredAt-c.IssuedAt != v.d {
			return fmt.Errorf("read of %#x delivered %d cycles after issue, D=%d", c.Addr, c.DeliveredAt-c.IssuedAt, v.d)
		}
		if !canaryHolds(c.Data, c.Addr, v.seed) {
			return fmt.Errorf("read of %#x returned %x: neither zeros nor the canary", c.Addr, c.Data)
		}
	}
	v.seen += uint64(len(comps))
	return nil
}

// runLadder replays reqs through every rung. With traced set it records
// spans and adds them to tf; otherwise the same code runs with spans off.
func runLadder(ctx context.Context, w workload, seed uint64, reqs []request, traced bool, tf *traceFile) (ladderOut, error) {
	out := ladderOut{n: len(reqs)}
	cfg, err := controllerConfig(w)
	if err != nil {
		return out, err
	}
	n := len(reqs)
	batches := n/ladderBatch + 1
	rungs := []struct {
		name     string
		kinds    []spanKind
		capacity int // spans to preallocate; recording grows past it if need be
		wall     *time.Duration
		totals   *[]kindTotals
		run      func(t *tracer) error
	}{
		{"hash", hashKinds, batches, &out.hashWall, &out.hash,
			func(t *tracer) error { return hashRung(t, reqs, &out) }},
		// One Tick per request when uncoded, plus a few stall retries.
		{"core", coreKinds, batches + n + n/8, &out.coreWall, &out.core,
			func(t *tracer) error { return coreRung(t, cfg, seed, reqs, &out) }},
		// At least two requests issue per cycle on four channels, and a
		// cycle records at most a Sweep and a Tick.
		{"multichannel", mcKinds, batches + n, &out.mcWall, &out.mc,
			func(t *tracer) error { return multichannelRung(t, cfg, w, seed, reqs, &out) }},
		{"wire", wireKinds, 4 * (n/w.batch + 1), &out.wireWall, &out.wire,
			func(t *tracer) error { return wireRung(t, w, seed, reqs, &out) }},
		{"server+client", pipeKinds, 3 * batches, &out.pipeWall, &out.pipe,
			func(t *tracer) error { return pipeRung(ctx, t, cfg, w, seed, reqs, &out) }},
	}
	epoch := time.Now()
	for _, r := range rungs {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		t := newTracer(traced, r.kinds, r.capacity, epoch)
		start := time.Now()
		if err := r.run(t); err != nil {
			return out, fmt.Errorf("%s rung: %w", r.name, err)
		}
		*r.wall = time.Since(start)
		if traced {
			*r.totals = t.totals()
			tf.addRung(r.name, t)
		}
	}
	return out, nil
}

// hashRung: hash.H3.Hash over every address, the universal hash each
// controller and the channel selector apply per request.
func hashRung(t *tracer, reqs []request, out *ladderOut) error {
	h := hash.NewH3(16, daemonSeed)
	var sink uint64
	for i := 0; i < len(reqs); i += ladderBatch {
		end := min(i+ladderBatch, len(reqs))
		b := t.begin(0, -1, i/ladderBatch)
		for _, r := range reqs[i:end] {
			sink ^= h.Hash(r.addr)
		}
		t.end(b)
	}
	out.sink = sink
	return nil
}

// coreRung: one core.Controller fed in order, as many requests per cycle
// as its interface accepts (one, or Coded.K reads), Tick after each.
func coreRung(t *tracer, cfg core.Config, seed uint64, reqs []request, out *ladderOut) error {
	ctl, err := core.New(cfg)
	if err != nil {
		return err
	}
	v := verifier{seed: seed, d: uint64(ctl.Delay())}
	var word [wordBytes]byte
	var reads uint64
	i := 0
	for i < len(reqs) {
		end := min(i+ladderBatch, len(reqs))
		batch := i / ladderBatch
		b := t.begin(kCoreBatch, -1, batch)
		for i < end {
			for i < end {
				r := reqs[i]
				if r.write {
					putCanary(word[:], r.addr, seed)
					err = ctl.Write(r.addr, word[:])
				} else {
					_, err = ctl.Read(r.addr)
				}
				if err != nil {
					break
				}
				if !r.write {
					reads++
				}
				i++
			}
			if err != nil && err != core.ErrSecondRequest && !core.IsStall(err) {
				return err
			}
			tk := t.begin(kCoreTick, b, batch)
			comps := ctl.Tick()
			t.end(tk)
			if err := v.check(comps); err != nil {
				return err
			}
		}
		t.end(b)
	}
	for ctl.Outstanding() > 0 {
		if err := v.check(ctl.Tick()); err != nil {
			return err
		}
	}
	if v.seen != reads {
		return fmt.Errorf("%d reads accepted, %d completions", reads, v.seen)
	}
	return nil
}

// multichannelRung: the daemon's striped memory, fed the way the engine
// feeds it — through Stage.Admit and Sweep when the daemon runs -ooo,
// otherwise in order until a channel refuses — with at most Ports()
// issues per cycle, held stalls retried next cycle (the backpressure
// policy), Tick after each cycle.
func multichannelRung(t *tracer, cfg core.Config, w workload, seed uint64, reqs []request, out *ladderOut) error {
	mem, err := multichannel.New(cfg, daemonChannels, daemonSeed)
	if err != nil {
		return err
	}
	defer mem.Close()
	ports := mem.Ports()
	v := verifier{seed: seed, d: uint64(mem.Delay())}
	var stage *multichannel.Stage
	var sinkErr error
	if w.ooo {
		stage = multichannel.NewStage(mem, 0, func(_ *multichannel.Pending, _ uint64, err error) bool {
			if err != nil && !core.IsStall(err) {
				sinkErr = err
			}
			return err == nil // hold a stalled head for the next cycle
		}, nil)
	}
	// Write payloads must stay valid while parked in the stage, so each
	// request in flight there needs its own word.
	var words [][wordBytes]byte
	if stage != nil {
		words = make([][wordBytes]byte, stage.Cap())
	} else {
		words = make([][wordBytes]byte, 1)
	}
	var reads, cycles uint64
	n := len(reqs)
	i := 0
	batch := 0
	b := t.begin(kMcBatch, -1, batch)
	for i < n || (stage != nil && stage.Len() > 0) {
		if i < n && i/ladderBatch != batch {
			t.end(b)
			batch = i / ladderBatch
			b = t.begin(kMcBatch, -1, batch)
		}
		if stage != nil {
			for i < n && stage.Len() < stage.Cap() {
				r := reqs[i]
				p := multichannel.Pending{Addr: r.addr, Write: r.write}
				if r.write {
					word := &words[i%len(words)]
					putCanary(word[:], r.addr, seed)
					p.Data = word[:]
				}
				if !stage.Admit(p) {
					break // that channel's ring is full; re-offer next cycle
				}
				if !r.write {
					reads++
				}
				i++
			}
			sw := t.begin(kMcSweep, b, batch)
			stage.Sweep()
			t.end(sw)
			if sinkErr != nil {
				return sinkErr
			}
		} else {
			for budget := ports; i < n && budget > 0; budget-- {
				r := reqs[i]
				if r.write {
					putCanary(words[0][:], r.addr, seed)
					err = mem.Write(r.addr, words[0][:])
				} else {
					_, err = mem.Read(r.addr)
				}
				if err != nil {
					if err != multichannel.ErrChannelBusy && !core.IsStall(err) {
						return err
					}
					break // head of line waits for the next cycle
				}
				if !r.write {
					reads++
				}
				i++
			}
		}
		tk := t.begin(kMcTick, b, batch)
		comps := mem.Tick()
		t.end(tk)
		cycles++
		if err := v.check(comps); err != nil {
			return err
		}
	}
	t.end(b)
	out.mcCycles = cycles
	for mem.Outstanding() > 0 {
		if err := v.check(mem.Tick()); err != nil {
			return err
		}
	}
	if v.seen != reads {
		return fmt.Errorf("%d reads issued, %d completions", reads, v.seen)
	}
	return nil
}

// wireRung: the codec over the frames the request stream produces —
// request frames of the workload's batch size, and for each the accept
// replies (writes) and completions (reads) that answer it, chunked as
// the server's writer chunks them — encoded with Append* and decoded
// with DecodeFrame, checking the round trip.
func wireRung(t *tracer, w workload, seed uint64, reqs []request, out *ladderOut) error {
	const d = 1004 // only stamps; the codec does not interpret them
	wreqs := make([]wire.Request, 0, w.batch)
	reps := make([]wire.Reply, 0, w.batch)
	comps := make([]wire.Completion, 0, w.batch)
	payload := make([]byte, w.batch*wordBytes)
	zero := make([]byte, wordBytes)
	var buf []byte
	var fr wire.Frame
	var err error
	var seq uint64
	for i := 0; i < len(reqs); i += w.batch {
		end := min(i+w.batch, len(reqs))
		frame := i / w.batch
		wreqs, reps, comps = wreqs[:0], reps[:0], comps[:0]
		for j, r := range reqs[i:end] {
			wr := wire.Request{Op: wire.OpRead, Seq: seq, Addr: r.addr}
			if r.write {
				wr.Op = wire.OpWrite
				wr.Data = payload[j*wordBytes : (j+1)*wordBytes]
				putCanary(wr.Data, r.addr, seed)
				reps = append(reps, wire.Reply{Status: wire.StatusAccepted, Seq: seq})
			} else {
				comps = append(comps, wire.Completion{Seq: seq, Addr: r.addr, IssuedAt: seq, DeliveredAt: seq + d, Data: zero})
			}
			wreqs = append(wreqs, wr)
			seq++
		}

		s := t.begin(kEncReq, -1, frame)
		buf, err = wire.AppendRequests(buf[:0], 0, wreqs)
		t.end(s)
		if err != nil {
			return err
		}
		out.wireBytes += uint64(len(buf))
		s = t.begin(kDecReq, -1, frame)
		err = wire.DecodeFrame(buf[4:], &fr)
		t.end(s)
		if err != nil {
			return err
		}
		if len(fr.Requests) != len(wreqs) || fr.Requests[0].Addr != wreqs[0].Addr {
			return errors.New("request frame did not round-trip")
		}

		s = t.begin(kEncComp, -1, frame)
		buf = buf[:0]
		var repEnd int
		if len(reps) > 0 {
			buf, err = wire.AppendReplies(buf, seq, reps)
			repEnd = len(buf)
		}
		if err == nil && len(comps) > 0 {
			buf, err = wire.AppendCompletions(buf, seq, comps)
		}
		t.end(s)
		if err != nil {
			return err
		}
		out.wireBytes += uint64(len(buf))
		s = t.begin(kDecComp, -1, frame)
		if repEnd > 0 {
			err = wire.DecodeFrame(buf[4:repEnd], &fr)
			if err == nil && len(fr.Replies) != len(reps) {
				err = errors.New("reply frame did not round-trip")
			}
		}
		if err == nil && len(comps) > 0 {
			err = wire.DecodeFrame(buf[repEnd+4:], &fr)
			if err == nil && (len(fr.Completions) != len(comps) || fr.Completions[0].Seq != comps[0].Seq) {
				err = errors.New("completion frame did not round-trip")
			}
		}
		t.end(s)
		if err != nil {
			return err
		}
	}
	return nil
}

// pipeRung: server.Engine in Lockstep with a ManualBatch client over
// net.Pipe, one Kick per 64 requests, so the cycle count is a pure
// function of the request sequence.
func pipeRung(ctx context.Context, t *tracer, cfg core.Config, w workload, seed uint64, reqs []request, out *ladderOut) error {
	// A wedged lockstep window would hang the rung; bound it instead.
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	mem, err := multichannel.New(cfg, daemonChannels, daemonSeed)
	if err != nil {
		return err
	}
	defer mem.Close()
	eng, err := server.New(server.Config{Mem: mem, Lockstep: true, OOO: w.ooo})
	if err != nil {
		return err
	}
	defer eng.Close()
	cn, sn := net.Pipe()
	if err := eng.ServeConn(sn); err != nil {
		return err
	}
	c := client.New(cn, client.Config{Window: pipeWindow, MaxBatch: ladderBatch, ManualBatch: true})
	defer c.Close()
	before, err := c.Stats(ctx)
	if err != nil {
		return err
	}
	// Every read is checked (fixed D, canary); none carries a latency
	// stamp, so the rung never reads the clock per request.
	chk := newChecker(seed, before.Delay, 0)
	var word [wordBytes]byte
	issue := func(r request) error {
		if r.write {
			putCanary(word[:], r.addr, seed)
			return c.Write(ctx, r.addr, word[:])
		}
		return c.Read(ctx, r.addr, chk.plain)
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	for i := 0; i < len(reqs); i += ladderBatch {
		end := min(i+ladderBatch, len(reqs))
		batch := i / ladderBatch
		b := t.begin(kPipeBatch, -1, batch)
		q := t.begin(kClientEnqueue, b, batch)
		for _, r := range reqs[i:end] {
			if err := issue(r); err != nil {
				return err
			}
		}
		t.end(q)
		k := t.begin(kClientKick, b, batch)
		err := c.Kick()
		t.end(k)
		t.end(b)
		if err != nil {
			return err
		}
	}
	// The cycle count is taken once every request has issued and before
	// the Flush: how many barrier round trips a Flush needs depends on
	// goroutine timing, the cycles a lockstep engine spends draining the
	// request frames do not.
	issued, err := c.Stats(ctx)
	if err != nil {
		return err
	}
	out.pipeCycles = issued.Cycle - before.Cycle
	if err := c.Flush(ctx); err != nil {
		return err
	}
	runtime.ReadMemStats(&ms)
	out.pipeMallocs = ms.Mallocs - mallocs
	// A Stats reply is handled after the last completion callbacks have
	// run (see session.drain), so chk is safe to read below.
	if _, err := c.Stats(ctx); err != nil {
		return err
	}
	ctr := c.Counters()
	if ctr.LatencyViolations != 0 || chk.failed() != 0 ||
		ctr.Completions+ctr.AcceptedWrites != uint64(len(reqs)) || chk.completions != ctr.Completions {
		return fmt.Errorf("ledger: %+v, callbacks: %d ok, %d wrong D, %d bad canary",
			ctr, chk.completions, chk.wrongD, chk.canaryBad)
	}
	return nil
}
