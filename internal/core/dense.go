package core

// This file is the dense reference implementation of the controller's
// per-cycle work: the pre-event-driven O(Banks) scans, preserved behind
// Config.DenseScan. It operates on exactly the same state as the
// event-driven path in controller.go — banks, queues, rows, the due
// queue — but recomputes occupancy totals, flush candidates, arbiter
// candidates and probe samples by scanning every bank each cycle
// instead of consulting the incrementally maintained active sets.
//
// Its purpose is verification, not speed: the differential tests drive
// a dense and an event-driven controller through identical fuzzed
// workloads (faults, merges, rekeys, both arbiter modes, probes,
// tracers) and require bit-identical completions, statistics, samples
// and trace events on every cycle. Any drift between the active sets
// and the scanned truth shows up as a divergence here. The gated
// BenchmarkTickSparse/BenchmarkTickDense pair quantifies what the
// event-driven path saves.

// runMemoryDense is advanceMemory's dense reference: every memory
// cycle up to target offers its bus slot to the banks in turn — bank
// (m mod B) alone in StrictRoundRobin mode, else every bank rotating
// from rrPtr until one takes it.
func (c *Controller) runMemoryDense(target uint64) {
	nBanks := len(c.banks)
	for ; c.memTime < target; c.memTime++ {
		c.stats.MemCycles++
		m := c.memTime
		switch {
		case c.totalQueued == 0:
		case c.cfg.StrictRoundRobin:
			c.issueOn(int(m%uint64(nBanks)), m)
		default:
			for i := 0; i < nBanks; i++ {
				b := (c.rrPtr + i) % nBanks
				if c.issueOn(b, m) {
					c.rrPtr = (b + 1) % nBanks
					break
				}
			}
		}
	}
}

// tickDense is Tick's dense reference: full-bank scans for flushing,
// occupancy accounting and the probe's per-cycle sample.
func (c *Controller) tickDense() []Completion {
	c.cycle++
	c.stats.Cycles++
	c.advanceMemory() // selects the dense rotating scan via c.dense
	c.completions = c.completions[:0]
	occupied := 0
	for _, b := range c.banks {
		b.flushInflight(c.memTime)
		occupied += b.rowsInUse()
	}
	c.stats.RowOccupancySum += uint64(occupied)
	for c.dueCount > 0 && c.dueBuf[c.dueHead].at == c.cycle {
		e := c.dueBuf[c.dueHead]
		c.dueHead++
		if c.dueHead == len(c.dueBuf) {
			c.dueHead = 0
		}
		c.dueCount--
		c.deliverDue(e)
	}
	if len(c.completions) > c.maxReads {
		panic("core: more playbacks due in a single interface cycle than the read admission cap")
	}
	c.endCycle()
	if c.cfg.Probe != nil {
		// Recompute the sample's inputs from a full-bank scan instead of
		// trusting the incrementally maintained values the event path
		// observes.
		rows, maxQ := 0, 0
		for _, b := range c.banks {
			rows += b.rowsInUse()
			maxQ = max(maxQ, b.baq.Len())
		}
		c.observe(1, maxQ, rows)
	}
	return c.completions
}
