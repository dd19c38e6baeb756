package core

import "fmt"

// CheckSchedule exposes checkSchedule to the external test package.
func CheckSchedule(c *Controller) error { return c.checkSchedule() }

// checkSchedule verifies, between Ticks, that the event path's wake
// schedule and CAM tables agree with the bank state they summarise:
//
//   - only queued banks are ready, and a queued bank is ready exactly
//     when it is free at memTime;
//   - every queued bank that is not ready, and every bank with a read in
//     flight, has exactly one wake, due at its free cycle, and no other
//     bank has one;
//   - inflightReads and the ready set's count match the banks;
//   - the heap is heap-ordered, holds at most Banks entries, none of
//     them due yet, and the flush list is empty;
//   - each bank's CAM table holds exactly its allocated, address-valid
//     rows.
//
// A DenseScan controller keeps no schedule; only its CAM is checked.
func (c *Controller) checkSchedule() error {
	wakeAt := make(map[int]uint64, len(c.wakes))
	if !c.dense {
		if len(c.wakes) > len(c.banks) {
			return fmt.Errorf("wake heap holds %d entries for %d banks", len(c.wakes), len(c.banks))
		}
		for i, w := range c.wakes {
			if _, dup := wakeAt[int(w.bank)]; dup {
				return fmt.Errorf("bank %d has two wakes", w.bank)
			}
			wakeAt[int(w.bank)] = w.at
			if i > 0 && c.wakes[(i-1)/2].at > w.at {
				return fmt.Errorf("wake heap out of order at %d", i)
			}
			if w.at <= c.memTime {
				return fmt.Errorf("bank %d wake at %d still queued at memTime %d", w.bank, w.at, c.memTime)
			}
		}
		if len(c.flushList) != 0 {
			return fmt.Errorf("flush list holds %v between Ticks", c.flushList)
		}
	}
	inflight, ready := 0, 0
	for id, b := range c.banks {
		if err := b.checkCAM(); err != nil {
			return err
		}
		if b.inflight.active {
			inflight++
		}
		if c.readyBanks.has(id) {
			ready++
		}
		if c.dense {
			continue
		}
		queued := !b.baq.Empty()
		freeAt := c.mod.BankFreeAt(id)
		free := freeAt <= c.memTime
		ready := c.readyBanks.has(id)
		if ready != (queued && free) {
			return fmt.Errorf("bank %d: ready %v with queued %v, free at %d, memTime %d", id, ready, queued, freeAt, c.memTime)
		}
		at, has := wakeAt[id]
		if want := (queued && !free) || b.inflight.active; has != want || b.waking != has {
			return fmt.Errorf("bank %d: wake present %v (flag %v), want %v (queued %v, free %v, inflight %v)",
				id, has, b.waking, want, queued, free, b.inflight.active)
		}
		if has && at != freeAt {
			return fmt.Errorf("bank %d: wake at %d, bank free at %d", id, at, freeAt)
		}
	}
	if inflight != c.inflightReads {
		return fmt.Errorf("%d banks have a read in flight, inflightReads %d", inflight, c.inflightReads)
	}
	if !c.dense && ready != c.readyBanks.len() {
		return fmt.Errorf("%d ready banks, readyBanks counts %d", ready, c.readyBanks.len())
	}
	return nil
}

// checkCAM verifies that byAddr indexes exactly the allocated,
// address-valid rows.
func (b *bankController) checkCAM() error {
	valid := 0
	for i := range b.rows {
		r := &b.rows[i]
		if !r.allocated || !r.addrValid {
			continue
		}
		valid++
		if got, ok := b.byAddr.Get(r.addr); !ok || int(got) != i {
			return fmt.Errorf("bank %d: CAM maps %#x to %d (%v), row %d holds it", b.id, r.addr, got, ok, i)
		}
	}
	if n := b.byAddr.Len(); n != valid {
		return fmt.Errorf("bank %d: CAM holds %d entries for %d valid rows", b.id, n, valid)
	}
	return nil
}
