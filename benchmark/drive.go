package main

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/recovery"
	"repro/internal/server"
	"repro/internal/wire"
)

// checker verifies every read completion and keeps the sampled
// wall-clock latencies. Its callbacks run on the client's receive
// goroutine; the issuing goroutine reads the tallies only after
// session.drain has put that goroutine past its last callback.
type checker struct {
	seed    uint64
	expectD uint64 // DeliveredAt-IssuedAt every read must show

	// slots is a ring of latency stamps, one per sampled read in flight.
	// The client frees a read's window slot before it runs the callback,
	// so reads issued but not yet called back can exceed the window by
	// one decoded frame (at most wire.MaxBatch records); the ring is
	// sized for all of them although only one read in sampleEvery takes
	// a slot.
	slots []sampleSlot
	next  int
	plain func(client.Completion)
	latNs []int64

	completions   uint64
	drops         uint64
	deadline      uint64
	uncorrectable uint64
	wrongD        uint64
	canaryBad     uint64
}

type sampleSlot struct {
	start time.Time
	cb    func(client.Completion)
}

func newChecker(seed, expectD uint64, window int) *checker {
	k := &checker{seed: seed, expectD: expectD}
	k.plain = k.check
	k.slots = make([]sampleSlot, window+wire.MaxBatch)
	for i := range k.slots {
		slot := &k.slots[i]
		slot.cb = func(comp client.Completion) {
			k.latNs = append(k.latNs, int64(time.Since(slot.start)))
			k.check(comp)
		}
	}
	return k
}

// sampled stamps the next ring slot with start and returns its callback.
func (k *checker) sampled(start time.Time) func(client.Completion) {
	slot := &k.slots[k.next]
	k.next++
	if k.next == len(k.slots) {
		k.next = 0
	}
	slot.start = start
	return slot.cb
}

func (k *checker) check(comp client.Completion) {
	switch {
	case comp.Err == nil:
	case errors.Is(comp.Err, core.ErrUncorrectable):
		k.uncorrectable++
	case errors.Is(comp.Err, client.ErrDeadlineExceeded):
		k.deadline++
		return
	case errors.Is(comp.Err, recovery.ErrDropped):
		k.drops++
		return
	default:
		k.drops++
		return
	}
	k.completions++
	if comp.DeliveredAt-comp.IssuedAt != k.expectD {
		k.wrongD++
	}
	if comp.Err == nil && !canaryHolds(comp.Data, comp.Addr, k.seed) {
		k.canaryBad++
	}
}

// failed is the numerator of fail_ratio as far as read callbacks see it.
func (k *checker) failed() uint64 {
	return k.drops + k.deadline + k.uncorrectable + k.wrongD + k.canaryBad
}

// session drives one client connection: a closed-loop warm-up, then the
// workload's timed phase, all from the calling goroutine.
type session struct {
	c     *client.Client
	w     workload
	seed  uint64
	chk   *checker
	word  [wordBytes]byte
	reads uint64 // reads issued, for 1-in-sampleEvery sampling
}

// issue sends one request. due is the latency origin of a sampled read:
// the call time in a closed loop, the slot's due time in an open loop.
func (s *session) issue(ctx context.Context, r request, due time.Time) error {
	if r.write {
		putCanary(s.word[:], r.addr, s.seed)
		return s.c.Write(ctx, r.addr, s.word[:])
	}
	cb := s.chk.plain
	if s.reads%sampleEvery == 0 {
		if due.IsZero() {
			due = time.Now()
		}
		cb = s.chk.sampled(due)
	}
	s.reads++
	return s.c.Read(ctx, r.addr, cb)
}

// phase is what one issue loop did.
type phase struct {
	attempted uint64
	issueErrs uint64
	wall      time.Duration // first issue to the end of Flush
	lagsNs    []int64       // open loop: scheduling lag per slot
}

// warmup issues exactly n closed-loop requests and flushes.
func (s *session) warmup(ctx context.Context, g *generator, n uint64) (phase, error) {
	return s.closed(ctx, g, func(done uint64) bool { return done >= n })
}

// timed runs the workload's timed phase for d and flushes.
func (s *session) timed(ctx context.Context, g *generator, d time.Duration) (phase, error) {
	if s.w.openRate > 0 {
		return s.open(ctx, g, d)
	}
	deadline := time.Now().Add(d)
	return s.closed(ctx, g, func(done uint64) bool {
		// The clock is read once per 1024 requests.
		return done%1024 == 0 && !time.Now().Before(deadline)
	})
}

func (s *session) closed(ctx context.Context, g *generator, stop func(done uint64) bool) (phase, error) {
	var p phase
	var err error
	start := time.Now()
	for !stop(p.attempted) {
		p.attempted++
		if err := s.issue(ctx, g.next(), time.Time{}); err != nil {
			p.issueErrs++
			return p, fmt.Errorf("issue %d: %w", p.attempted, err)
		}
	}
	p.wall, err = s.drain(ctx, start)
	return p, err
}

// drain is the end of a phase: Flush until every request has resolved,
// which closes the wall-clock interval, then one Stats round trip.
// Flush can return while the receive goroutine is still running the last
// frame's callbacks; the Stats reply is handled by that goroutine after
// them, so once it is back the checker's tallies are complete and safe
// to read.
func (s *session) drain(ctx context.Context, start time.Time) (time.Duration, error) {
	err := s.c.Flush(ctx)
	wall := time.Since(start)
	if err != nil {
		return wall, fmt.Errorf("flush: %w", err)
	}
	if _, err := s.c.Stats(ctx); err != nil {
		return wall, fmt.Errorf("stats barrier: %w", err)
	}
	return wall, nil
}

func (s *session) open(ctx context.Context, g *generator, d time.Duration) (phase, error) {
	var p phase
	start := time.Now()
	pc := newPacer(start, s.w.openRate)
	for k := 0; time.Duration(k)*pc.slot < d; k++ {
		due := pc.wait(k)
		for i := 0; i < pc.perSlot; i++ {
			p.attempted++
			if err := s.issue(ctx, g.next(), due); err != nil {
				p.issueErrs++
				p.lagsNs = pc.lagsNs
				return p, fmt.Errorf("issue %d: %w", p.attempted, err)
			}
		}
	}
	p.lagsNs = pc.lagsNs
	var err error
	p.wall, err = s.drain(ctx, start)
	return p, err
}

// ledger is everything the correctness gate looks at, kept so a failure
// can print it.
type ledger struct {
	Attempted uint64          `json:"attempted"`
	IssueErrs uint64          `json:"issue_errors"`
	Client    client.Counters `json:"client"`
	AdvD      uint64          `json:"advertised_d"`
	ExpectD   uint64          `json:"expected_d"`
	// Callback-side tallies (every read, not only sampled ones).
	CbCompletions uint64 `json:"callback_completions"`
	CbDrops       uint64 `json:"callback_drops"`
	CbDeadline    uint64 `json:"callback_deadline_expiries"`
	Uncorrectable uint64 `json:"uncorrectable"`
	WrongD        uint64 `json:"fixed_d_mismatches"`
	CanaryBad     uint64 `json:"canary_mismatches"`
	// Server side, from /statsz (or the in-process Snapshot) after Flush.
	SrvReads       uint64 `json:"server_reads"`
	SrvWrites      uint64 `json:"server_writes"`
	SrvCompletions uint64 `json:"server_completions"`
	SrvDropped     uint64 `json:"server_dropped"`
	SrvOutstanding uint64 `json:"server_outstanding"`
}

// newLedger assembles the gate's inputs once the connection has been
// flushed: the client's counters, the callbacks' tallies and the
// server's ledger (from /statsz, or an in-process Snapshot).
func newLedger(attempted, issueErrs uint64, ctr client.Counters, k *checker, advD uint64, snap server.Snapshot) ledger {
	return ledger{
		Attempted:      attempted,
		IssueErrs:      issueErrs,
		Client:         ctr,
		AdvD:           advD,
		ExpectD:        k.expectD,
		CbCompletions:  k.completions,
		CbDrops:        k.drops,
		CbDeadline:     k.deadline,
		Uncorrectable:  k.uncorrectable,
		WrongD:         k.wrongD,
		CanaryBad:      k.canaryBad,
		SrvReads:       snap.Reads,
		SrvWrites:      snap.Writes,
		SrvCompletions: snap.Completions,
		SrvDropped:     snap.Dropped,
		SrvOutstanding: snap.Outstanding,
	}
}

// failed is the numerator of fail_ratio: drops, deadline expiries,
// uncorrectable words, fixed-D violations (the client's own count or the
// callbacks' check against the expected D, whichever saw more), canary
// mismatches and issue errors.
func (l ledger) failed() uint64 {
	return l.Client.Drops + l.Client.DeadlineExceeded + l.Uncorrectable +
		max(l.Client.LatencyViolations, l.WrongD) + l.CanaryBad + l.IssueErrs
}

// problems lists every gate the ledger fails; an empty list is a pass.
func (l ledger) problems() []string {
	var ps []string
	c := l.Client
	if c.LatencyViolations != 0 {
		ps = append(ps, fmt.Sprintf("%d fixed-D violations counted by the client", c.LatencyViolations))
	}
	if l.WrongD != 0 {
		ps = append(ps, fmt.Sprintf("%d reads with DeliveredAt-IssuedAt != %d", l.WrongD, l.ExpectD))
	}
	if l.AdvD != l.ExpectD {
		ps = append(ps, fmt.Sprintf("server advertises D=%d, expected %d", l.AdvD, l.ExpectD))
	}
	if l.CanaryBad != 0 {
		ps = append(ps, fmt.Sprintf("%d reads returned neither zeros nor the canary", l.CanaryBad))
	}
	if l.IssueErrs != 0 {
		ps = append(ps, fmt.Sprintf("%d issue errors", l.IssueErrs))
	}
	if n := c.Drops + c.DeadlineExceeded + l.Uncorrectable; n != 0 {
		ps = append(ps, fmt.Sprintf("%d drops, %d deadline expiries, %d uncorrectable",
			c.Drops, c.DeadlineExceeded, l.Uncorrectable))
	}
	if c.Issued != l.Attempted-l.IssueErrs {
		ps = append(ps, fmt.Sprintf("client issued %d of %d attempted", c.Issued, l.Attempted))
	}
	if got := c.Completions + c.AcceptedWrites + c.Drops + c.DeadlineExceeded; got != c.Issued {
		ps = append(ps, fmt.Sprintf("client ledger: completions+accepted+drops+expiries = %d, issued %d", got, c.Issued))
	}
	if l.CbCompletions != c.Completions {
		ps = append(ps, fmt.Sprintf("callbacks saw %d completions, client counted %d", l.CbCompletions, c.Completions))
	}
	if l.SrvCompletions != c.Completions || l.SrvWrites != c.AcceptedWrites ||
		l.SrvCompletions+l.SrvWrites+l.SrvDropped != c.Issued {
		ps = append(ps, fmt.Sprintf("server ledger: %d completions + %d writes + %d dropped, client %d + %d of %d issued",
			l.SrvCompletions, l.SrvWrites, l.SrvDropped, c.Completions, c.AcceptedWrites, c.Issued))
	}
	if l.SrvReads != l.SrvCompletions+l.SrvOutstanding || l.SrvOutstanding != 0 {
		ps = append(ps, fmt.Sprintf("server ledger: %d reads, %d completions, %d outstanding after flush",
			l.SrvReads, l.SrvCompletions, l.SrvOutstanding))
	}
	return ps
}

// sortedCopy returns xs sorted ascending without disturbing xs.
func sortedCopy(xs []int64) []int64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}
