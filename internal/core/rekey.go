package core

import (
	"errors"

	"repro/internal/hash"
)

// Re-keying (Section 4 of the paper): if an adversary ever managed to
// observe enough stalls to reconstruct colliding address sets, the
// defence is to "change the universal mapping function and reorder the
// data on the occurrence of multiple stalls (an expensive operation,
// but certainly possible with frequency on the order of once a day)".
//
// The controller supports this with a stall-rate trigger (Config's
// RekeyWindow/RekeyThreshold feed NeedsRekey) and an explicit Rekey
// operation that drains the pipeline, swaps the universal hash for one
// drawn from a fresh seed, and charges the relocation traffic: every
// populated word must be read under the old mapping and rewritten under
// the new one, two interface slots per word.

// ErrRekeyCustomHash reports a Rekey attempt on a controller built with
// an externally supplied hash function, whose keying the controller
// cannot manage.
var ErrRekeyCustomHash = errors.New("vpnm: cannot rekey a controller with a custom hash")

// NeedsRekey reports whether the stall rate has exceeded the configured
// threshold: at least RekeyThreshold stalls within roughly the last
// RekeyWindow interface cycles (a standard two-bucket sliding window,
// so a burst straddling a bucket boundary is still seen). It is always
// false when the policy is disabled (either field zero).
func (c *Controller) NeedsRekey() bool {
	if c.cfg.RekeyWindow == 0 || c.cfg.RekeyThreshold == 0 {
		return false
	}
	c.rollRekeyWindow()
	return c.windowStalls+c.prevWindowStalls >= c.cfg.RekeyThreshold
}

// rollRekeyWindow advances the two stall buckets to cover the current
// cycle: the just-finished bucket becomes the previous one, and any
// fully skipped quiet windows clear both.
func (c *Controller) rollRekeyWindow() {
	w := c.cfg.RekeyWindow
	elapsed := c.cycle - c.windowStart
	if elapsed < w {
		return
	}
	steps := elapsed / w
	if steps >= 2 {
		c.prevWindowStalls = 0
		c.windowStalls = 0
	} else {
		c.prevWindowStalls = c.windowStalls
		c.windowStalls = 0
	}
	c.windowStart += steps * w
}

// RekeyCost returns the relocation cost in interface cycles for a
// memory holding the given number of populated words: one read and one
// write per word at one request per cycle.
func RekeyCost(words int) uint64 { return 2 * uint64(words) }

// Rekey drains the controller, replaces the universal hash with a new
// H3 member keyed by newSeed, and advances time by the relocation cost.
// It returns the number of words relocated, the total interface cycles
// consumed (drain + relocation), and any completions that were still in
// the pipeline when the rekey began (their data is copied and remains
// valid).
//
// After Rekey the address-to-bank mapping is statistically independent
// of the old one, so any colliding address set an adversary had
// assembled is worthless; contents are unaffected (the store is
// addressed by logical address — the relocation cost models the
// physical movement between banks).
func (c *Controller) Rekey(newSeed uint64) (moved int, cycles uint64, drained []Completion, err error) {
	if c.cfg.Hash != nil {
		return 0, 0, nil, ErrRekeyCustomHash
	}
	start := c.cycle
	drained = c.Flush()
	// hashBits, not bankBits: in coded mode the hash places stripes into
	// parity groups. Parity words are keyed by stripe — a pure function
	// of the stripe's data, independent of group placement — so rekeying
	// relocates parity exactly like data and needs no parity rebuild.
	bits := c.cfg.hashBits()
	if bits == 0 {
		bits = 1
	}
	c.cfg.HashSeed = newSeed
	c.h = hash.NewH3(bits, newSeed)
	// The pipeline is quiescent after the drain, so the relocation span
	// fast-forwards in O(1) rather than paying one empty Tick per moved
	// word. Only this controller's words move: a shared store also holds
	// the other channels'.
	for left := RekeyCost(c.mod.Populated()); left > 0; {
		if k := c.SkipIdle(left); k > 0 {
			left -= k
			continue
		}
		c.Tick()
		left--
	}
	c.stats.Rekeys++
	c.windowStart = c.cycle
	c.windowStalls = 0
	c.prevWindowStalls = 0
	return c.mod.Populated(), c.cycle - start, drained, nil
}
