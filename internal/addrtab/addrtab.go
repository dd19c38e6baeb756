// Package addrtab is a flat open-addressing hash table from uint64 keys
// to int32 values: the index type behind the content store's page table
// and the per-bank delay-storage CAM. Both sit on the per-request path,
// where a Go map's bucket walk and hashing cost more than the work they
// index.
//
// Keys and values share one 16-byte slot, so a probe that hits reads a
// single cache line. Collisions resolve by linear probing, the load is
// kept at or below one half (the table doubles before it would pass
// that), and deletion shifts the rest of the probe run back instead of
// leaving tombstones, so lookups never slow down as entries churn.
package addrtab

import "math/bits"

// slot is one table entry. used distinguishes an empty slot, so every
// key and every value is storable.
type slot struct {
	key  uint64
	val  int32
	used bool
}

// Table maps uint64 keys to int32 values. The zero value is an empty
// table that allocates on the first Put. Not safe for concurrent use.
type Table struct {
	slots []slot
	shift uint // 64 - log2(len(slots))
	n     int
}

// minSlots is the smallest table allocated.
const minSlots = 8

// Make returns an empty table that holds n entries without growing.
func Make(n int) Table {
	var t Table
	t.alloc(slotsFor(n))
	return t
}

// slotsFor returns the power-of-two slot count that keeps n entries at
// load one half or below.
func slotsFor(n int) int {
	if n <= minSlots/2 {
		return minSlots
	}
	return 1 << bits.Len(uint(2*n-1))
}

func (t *Table) alloc(size int) {
	t.slots = make([]slot, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
}

// home returns k's preferred slot: Fibonacci hashing, so runs of
// consecutive keys (page numbers, nearby addresses) spread across the
// table instead of filling one probe run.
func (t *Table) home(k uint64) int {
	return int((k * 0x9e3779b97f4a7c15) >> t.shift)
}

// Len reports the number of entries.
func (t *Table) Len() int { return t.n }

// Get returns the value stored under k.
func (t *Table) Get(k uint64) (v int32, ok bool) {
	if t.n == 0 {
		return 0, false
	}
	mask := len(t.slots) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if !s.used {
			return 0, false
		}
		if s.key == k {
			return s.val, true
		}
	}
}

// Put stores v under k, replacing any previous value.
func (t *Table) Put(k uint64, v int32) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if !s.used {
			*s = slot{key: k, val: v, used: true}
			t.n++
			return
		}
		if s.key == k {
			s.val = v
			return
		}
	}
}

// grow doubles the table (or allocates the first one) and reinserts
// every entry.
func (t *Table) grow() {
	old := t.slots
	t.alloc(max(2*len(old), minSlots))
	mask := len(t.slots) - 1
	for _, s := range old {
		if !s.used {
			continue
		}
		i := t.home(s.key)
		for t.slots[i].used {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// Delete removes k and reports whether it was present. The entries
// after it in its probe run move back to close the gap, so every
// remaining key stays reachable from its home slot without tombstones.
func (t *Table) Delete(k uint64) bool {
	if t.n == 0 {
		return false
	}
	mask := len(t.slots) - 1
	i := t.home(k)
	for {
		s := &t.slots[i]
		if !s.used {
			return false
		}
		if s.key == k {
			break
		}
		i = (i + 1) & mask
	}
	// i is the hole. An entry further along the run may fill it when its
	// home is not inside (i, j]: its probe distance from home reaches
	// back to the hole or past it.
	for j := (i + 1) & mask; t.slots[j].used; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = slot{}
	t.n--
	return true
}
