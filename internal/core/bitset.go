package core

import "math/bits"

// bankSet is a fixed-width bitmap over bank indices — the allocation-free
// active-bank set behind the event-driven Tick. The controller keeps one
// for banks with a non-empty access queue, one for banks with a DRAM
// read in flight, and one for the queued banks that are free — the
// arbiter's candidates — so per-cycle work visits only banks that can
// actually act. Membership updates are O(1); in-order iteration costs
// one TrailingZeros64 per member plus one word-load per 64 banks
// scanned, which is what turns the controller's O(Banks) scans into
// O(active).
type bankSet struct {
	words []uint64
	n     int // population count, maintained incrementally
}

func newBankSet(banks int) bankSet {
	return bankSet{words: make([]uint64, (banks+63)/64)}
}

// add inserts bank i; inserting a member again is a no-op.
func (s *bankSet) add(i int) {
	w, b := i>>6, uint(i)&63
	if s.words[w]&(1<<b) == 0 {
		s.words[w] |= 1 << b
		s.n++
	}
}

// remove deletes bank i; deleting a non-member is a no-op.
func (s *bankSet) remove(i int) {
	w, b := i>>6, uint(i)&63
	if s.words[w]&(1<<b) != 0 {
		s.words[w] &^= 1 << b
		s.n--
	}
}

// has reports whether bank i is a member.
func (s *bankSet) has(i int) bool { return s.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// len reports the membership count.
func (s *bankSet) len() int { return s.n }

// nextIn returns the smallest member in [from, to), or -1. The rotating
// arbiter calls it twice — [ptr, banks) then [0, ptr) — to visit members
// in the same order the dense scan visits banks.
func (s *bankSet) nextIn(from, to int) int {
	if from >= to {
		return -1
	}
	w := from >> 6
	word := s.words[w] &^ (1<<(uint(from)&63) - 1)
	for {
		if word != 0 {
			i := w<<6 + bits.TrailingZeros64(word)
			if i >= to {
				return -1
			}
			return i
		}
		w++
		if w >= len(s.words) || w<<6 >= to {
			return -1
		}
		word = s.words[w]
	}
}
