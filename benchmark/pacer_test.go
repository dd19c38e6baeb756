package main

import (
	"testing"
	"time"
)

// fakeClock stands in for time.Now and time.Sleep: sleeping advances it
// by the requested duration plus a scripted overshoot.
type fakeClock struct {
	now       time.Time
	nowCalls  int
	sleeps    []time.Duration
	overshoot time.Duration
}

func (c *fakeClock) Now() time.Time { c.nowCalls++; return c.now }

func (c *fakeClock) Sleep(d time.Duration) {
	c.sleeps = append(c.sleeps, d)
	c.now = c.now.Add(d + c.overshoot)
}

func newFakePacer(c *fakeClock, rate int) *pacer {
	p := newPacer(c.now, rate)
	p.now, p.sleep = c.Now, c.Sleep
	return p
}

func TestPacerStampsDueTimesAndAccountsLag(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start, overshoot: 70 * time.Microsecond}
	p := newFakePacer(clk, 100000)
	if p.perSlot != 100 || p.slot != time.Millisecond {
		t.Fatalf("100000 req/s paces as %d per %v, want 100 per 1ms", p.perSlot, p.slot)
	}

	// Slot 0 is due at the start: released at once, no sleep, no lag.
	if due := p.wait(0); !due.Equal(start) {
		t.Errorf("slot 0 due %v, want %v", due, start)
	}
	if len(clk.sleeps) != 0 {
		t.Errorf("slot 0 slept %v", clk.sleeps)
	}

	// Slot 1: one sleep to the edge; the wake-up overshoot is the lag, and
	// the stamp is the edge, not the wake-up time.
	due := p.wait(1)
	if want := start.Add(time.Millisecond); !due.Equal(want) {
		t.Errorf("slot 1 due %v, want %v", due, want)
	}
	if len(clk.sleeps) != 1 || clk.sleeps[0] != time.Millisecond {
		t.Errorf("slot 1 sleeps = %v, want one of 1ms", clk.sleeps)
	}

	// The generator falls 5 ms behind (a stalled issue loop): the slots it
	// missed are released back to back with no sleep, each stamped with
	// its own due time and charged its own lateness.
	clk.now = start.Add(7 * time.Millisecond)
	sleepsBefore := len(clk.sleeps)
	for k := 2; k <= 4; k++ {
		due := p.wait(k)
		if want := start.Add(time.Duration(k) * time.Millisecond); !due.Equal(want) {
			t.Errorf("late slot %d due %v, want %v", k, due, want)
		}
	}
	if len(clk.sleeps) != sleepsBefore {
		t.Errorf("late slots slept: %v", clk.sleeps[sleepsBefore:])
	}

	want := []time.Duration{0, 70 * time.Microsecond, 5 * time.Millisecond, 4 * time.Millisecond, 3 * time.Millisecond}
	if len(p.lagsNs) != len(want) {
		t.Fatalf("%d lags recorded, want %d", len(p.lagsNs), len(want))
	}
	for i, w := range want {
		if p.lagsNs[i] != int64(w) {
			t.Errorf("lag[%d] = %v, want %v", i, time.Duration(p.lagsNs[i]), w)
		}
	}
}

// The pacer must sleep to the slot edge, never poll the clock: at most
// two clock reads and one sleep per slot, however far away the edge is.
func TestPacerNeverSpins(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	p := newFakePacer(clk, 100000)
	const slots = 50
	for k := 0; k < slots; k++ {
		p.wait(k)
	}
	if clk.nowCalls > 2*slots {
		t.Errorf("%d clock reads for %d slots: the pacer is polling", clk.nowCalls, slots)
	}
	if len(clk.sleeps) > slots {
		t.Errorf("%d sleeps for %d slots", len(clk.sleeps), slots)
	}
}
