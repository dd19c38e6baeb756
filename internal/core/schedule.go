package core

// This file is the event path's bank wake schedule: the structure that
// lets the memory side act only when a bank's state changes, the way
// each of the paper's bank controllers does, instead of asking every
// queued bank on every memory cycle whether it is free yet.
//
// A bank with queued work is either ready (free at memTime, so the
// arbiter may grant it the bus) or busy, and a busy bank becomes free
// at a memory cycle the DRAM model already knows. The schedule keeps
// the ready banks in a bitset and every busy bank that will matter when
// it frees up — one with queued work, or one with a read in flight — in
// a min-heap keyed by that cycle, at most one entry per bank. The
// arbiter grants the first ready bank at or after the round-robin
// pointer, which is exactly the bank the dense rotating scan issues on:
// the scan's visits to busy banks before it have no side effect, since
// a busy bank's in-flight read completes exactly when the bank frees up
// (doneAt == freeAt), so there is nothing for the visit to flush.
//
// Invariant between Ticks: every heap entry is due after memTime. So
// when IdleCycles reports a quiet span (nothing queued, nothing in
// flight) the heap is empty, and SkipIdle can move memTime without
// popping anything.

// wake is one schedule entry: bank becomes free at memory cycle at.
type wake struct {
	at   uint64
	bank int32
}

// wakeHeap is a binary min-heap of wakes ordered by at. Ties may pop in
// any order: every wake due at a memory cycle is popped before that
// cycle's arbitration, and the flush list is sorted by bank.
type wakeHeap []wake

func (h *wakeHeap) push(w wake) {
	*h = append(*h, w)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p].at <= w.at {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = w
}

func (h *wakeHeap) pop() wake {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s = s[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s[c+1].at < s[c].at {
			c++
		}
		if last.at <= s[c].at {
			break
		}
		s[i] = s[c]
		i = c
	}
	if n > 0 {
		s[i] = last
	}
	*h = s
	return top
}

// scheduleBank files bank id after its state changed — work was queued
// on it, or it was just issued an access: a free bank with queued work
// becomes ready, and a busy bank with queued work or a read in flight
// gets a wake at its free cycle unless it already has one.
func (c *Controller) scheduleBank(id int) {
	b := c.banks[id]
	if b.waking || c.readyBanks.has(id) {
		return
	}
	if at := c.mod.BankFreeAt(id); at > c.memTime {
		if !b.baq.Empty() || b.inflight.active {
			b.waking = true
			c.wakes.push(wake{at: at, bank: int32(id)})
		}
	} else if !b.baq.Empty() {
		c.readyBanks.add(id)
	}
}

// wakeDue pops the wakes due at memTime: a bank with queued work joins
// the ready set, and a bank with a read in flight goes on the flush
// list, whose reads complete after the memory loop.
func (c *Controller) wakeDue() {
	for len(c.wakes) > 0 && c.wakes[0].at <= c.memTime {
		id := int(c.wakes.pop().bank)
		b := c.banks[id]
		b.waking = false
		if !b.baq.Empty() {
			c.readyBanks.add(id)
		}
		if b.inflight.active {
			c.flushList = append(c.flushList, int32(id))
		}
	}
}

// flushDue completes the in-flight reads listed by wakeDue, in bank
// order — the order the dense per-bank scan flushes in — so Tracer
// event sequences match it. A bank listed twice, or one whose read the
// arbiter already flushed when it issued the bank again, is a no-op.
func (c *Controller) flushDue() {
	l := c.flushList
	for i := 1; i < len(l); i++ {
		for j := i; j > 0 && l[j] < l[j-1]; j-- {
			l[j], l[j-1] = l[j-1], l[j]
		}
	}
	for _, id := range l {
		c.banks[id].flushInflight(c.memTime)
	}
	c.flushList = l[:0]
}
