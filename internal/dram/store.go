package dram

import "fmt"

// slabWords is the number of words per storage slab.
const slabWords = 4096

// Store holds DRAM contents at word granularity: a sparse map from word
// address to a word of WordBytes bytes. Unwritten words read as zero,
// like initialized DRAM in the simulator's reset state. The store is
// deliberately independent of banking — the controller's hash decides
// which bank services an address, but the contents belong to the address
// itself, which is what makes re-keying the hash a pure relocation.
//
// Words live in fixed-size slabs rather than one heap object each: the
// index maps an address to a slot, numbered in order of first write, and
// slot i is word i%slabWords of slab i/slabWords. A slab is allocated
// when its first slot is taken and never moved, so a slice returned by
// Read keeps aliasing the stored word as the store grows.
type Store struct {
	wordBytes int
	index     map[uint64]uint32
	slabs     [][]byte
	zero      []byte
}

// NewStore returns an empty store with the given word size.
func NewStore(wordBytes int) *Store {
	if wordBytes < 1 {
		panic(fmt.Sprintf("dram: word size must be >= 1 byte, got %d", wordBytes))
	}
	return &Store{
		wordBytes: wordBytes,
		index:     make(map[uint64]uint32),
		zero:      make([]byte, wordBytes),
	}
}

// word returns the storage of one slot.
func (s *Store) word(slot uint32) []byte {
	off := int(slot%slabWords) * s.wordBytes
	return s.slabs[slot/slabWords][off : off+s.wordBytes : off+s.wordBytes]
}

// WordBytes reports the word size in bytes.
func (s *Store) WordBytes() int { return s.wordBytes }

// Read returns the word at addr. The returned slice must not be
// modified; it is either the stored word or a shared zero word.
func (s *Store) Read(addr uint64) []byte {
	if slot, ok := s.index[addr]; ok {
		return s.word(slot)
	}
	return s.zero
}

// Write stores data at addr. Short data is zero-padded to the word
// size; data longer than a word panics, since the bus transfers exactly
// one word per access.
func (s *Store) Write(addr uint64, data []byte) {
	if len(data) > s.wordBytes {
		panic(fmt.Sprintf("dram: write of %d bytes exceeds word size %d", len(data), s.wordBytes))
	}
	slot, ok := s.index[addr]
	if !ok {
		slot = uint32(len(s.index))
		if slot%slabWords == 0 {
			s.slabs = append(s.slabs, make([]byte, slabWords*s.wordBytes))
		}
		s.index[addr] = slot
	}
	w := s.word(slot)
	n := copy(w, data)
	for i := n; i < s.wordBytes; i++ {
		w[i] = 0
	}
}

// Populated reports the number of words ever written.
func (s *Store) Populated() int { return len(s.index) }
