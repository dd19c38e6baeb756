package main

import "time"

// pacer releases an open-loop schedule in fixed slots: slot k is due at
// start + k*slot and carries perSlot requests, all stamped with the
// slot's due time so a late generator's delay counts against the
// requests it delayed. It sleeps to each slot edge and never spins; how
// late it woke is recorded per slot as the scheduling lag.
type pacer struct {
	start   time.Time
	slot    time.Duration
	perSlot int
	now     func() time.Time
	sleep   func(time.Duration)
	lagsNs  []int64
}

// openSlot is the open loop's release granularity.
const openSlot = time.Millisecond

func newPacer(start time.Time, rate int) *pacer {
	return &pacer{
		start:   start,
		slot:    openSlot,
		perSlot: int(int64(rate) * int64(openSlot) / int64(time.Second)),
		now:     time.Now,
		sleep:   time.Sleep,
	}
}

// wait blocks until slot k's edge and returns the slot's due time. A
// slot whose edge has already passed is released at once; either way the
// lag recorded is how far past the edge the generator was when it
// released the slot.
func (p *pacer) wait(k int) time.Time {
	due := p.start.Add(time.Duration(k) * p.slot)
	now := p.now()
	if d := due.Sub(now); d > 0 {
		p.sleep(d)
		now = p.now()
	}
	lag := now.Sub(due)
	if lag < 0 {
		lag = 0
	}
	p.lagsNs = append(p.lagsNs, int64(lag))
	return due
}
