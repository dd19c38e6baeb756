package dram

import (
	"fmt"

	"repro/internal/addrtab"
)

// pageWords is the number of words per page — the width of a page's
// presence bitmap — and pagesPerSlab the number of pages allocated at
// once.
const (
	pageWords    = 64
	pagesPerSlab = 64
)

// Store holds DRAM contents at word granularity: a sparse map from word
// address to a word of WordBytes bytes. Unwritten words read as zero,
// like initialized DRAM in the simulator's reset state. The store is
// deliberately independent of banking — the controller's hash decides
// which bank services an address, but the contents belong to the address
// itself, which is what makes re-keying the hash a pure relocation. For
// the same reason one store can back several modules that own disjoint
// addresses (the channels of a multichannel memory).
//
// Words live in pages of pageWords consecutive addresses: the index, a
// flat open-addressing table (16-byte slots at load ≤ ½, so 32–64 B
// per page), maps addr/pageWords to a page slot, numbered in order of
// first write, and a per-page presence bitmap records which of its
// words were written.
// Pages are carved out of slabs of pagesPerSlab pages; a slab is
// allocated when its first page is taken and never moved, so a slice
// returned by Read keeps aliasing the stored word as the store grows.
// A dense writer pays about one index entry per 64 words; an isolated
// word costs a whole page.
type Store struct {
	wordBytes int
	index     addrtab.Table // addr/pageWords -> page slot
	present   []uint64      // present[slot]: bit i set once word i was written
	slabs     [][]byte
	populated int
	zero      []byte
}

// NewStore returns an empty store with the given word size.
func NewStore(wordBytes int) *Store {
	if wordBytes < 1 {
		panic(fmt.Sprintf("dram: word size must be >= 1 byte, got %d", wordBytes))
	}
	return &Store{
		wordBytes: wordBytes,
		zero:      make([]byte, wordBytes),
	}
}

// word returns the storage of word addr within page slot.
func (s *Store) word(slot int32, addr uint64) []byte {
	off := (int(slot%pagesPerSlab)*pageWords + int(addr%pageWords)) * s.wordBytes
	return s.slabs[slot/pagesPerSlab][off : off+s.wordBytes : off+s.wordBytes]
}

// WordBytes reports the word size in bytes.
func (s *Store) WordBytes() int { return s.wordBytes }

// Read returns the word at addr. The returned slice must not be
// modified; it is either the stored word or a shared zero word.
func (s *Store) Read(addr uint64) []byte {
	if slot, ok := s.index.Get(addr / pageWords); ok && s.present[slot]>>(addr%pageWords)&1 != 0 {
		return s.word(slot, addr)
	}
	return s.zero
}

// Write stores data at addr and reports whether addr was written for
// the first time. Short data is zero-padded to the word size; data
// longer than a word panics, since the bus transfers exactly one word
// per access.
func (s *Store) Write(addr uint64, data []byte) (fresh bool) {
	if len(data) > s.wordBytes {
		panic(fmt.Sprintf("dram: write of %d bytes exceeds word size %d", len(data), s.wordBytes))
	}
	slot, ok := s.index.Get(addr / pageWords)
	if !ok {
		slot = int32(len(s.present))
		if slot%pagesPerSlab == 0 {
			s.slabs = append(s.slabs, make([]byte, pagesPerSlab*pageWords*s.wordBytes))
		}
		s.index.Put(addr/pageWords, slot)
		s.present = append(s.present, 0)
	}
	bit := uint64(1) << (addr % pageWords)
	if fresh = s.present[slot]&bit == 0; fresh {
		s.present[slot] |= bit
		s.populated++
	}
	w := s.word(slot, addr)
	clear(w[copy(w, data):])
	return fresh
}

// Populated reports the number of words ever written.
func (s *Store) Populated() int { return s.populated }
