package addrtab

import (
	"encoding/binary"
	"testing"
)

// checkTable verifies t against the oracle: same size, every oracle key
// found with its value, every used slot reachable from its home with no
// empty slot in between, and the load at or below one half.
func checkTable(t *testing.T, tab *Table, oracle map[uint64]int32) {
	t.Helper()
	if tab.Len() != len(oracle) {
		t.Fatalf("Len = %d, oracle holds %d", tab.Len(), len(oracle))
	}
	for k, want := range oracle {
		if got, ok := tab.Get(k); !ok || got != want {
			t.Fatalf("Get(%#x) = %d, %v; want %d", k, got, ok, want)
		}
	}
	if len(tab.slots) > 0 && 2*tab.n > len(tab.slots) {
		t.Fatalf("load %d/%d above one half", tab.n, len(tab.slots))
	}
	mask := len(tab.slots) - 1
	used := 0
	for i, s := range tab.slots {
		if !s.used {
			continue
		}
		used++
		for j := tab.home(s.key); j != i; j = (j + 1) & mask {
			if !tab.slots[j].used {
				t.Fatalf("key %#x in slot %d unreachable: empty slot %d after its home %d", s.key, i, j, tab.home(s.key))
			}
		}
	}
	if used != tab.n {
		t.Fatalf("%d used slots, Len %d", used, tab.n)
	}
}

func TestZeroValueAndExtremes(t *testing.T) {
	var tab Table
	if _, ok := tab.Get(0); ok || tab.Delete(0) {
		t.Fatal("empty zero-value table reports a key")
	}
	oracle := map[uint64]int32{}
	for _, k := range []uint64{0, 1, ^uint64(0), 1 << 63} {
		tab.Put(k, int32(k%7)-3)
		oracle[k] = int32(k%7) - 3
	}
	tab.Put(0, -1)
	oracle[0] = -1
	checkTable(t, &tab, oracle)
	if !tab.Delete(^uint64(0)) || tab.Delete(^uint64(0)) {
		t.Fatal("Delete of a present key must succeed exactly once")
	}
	delete(oracle, ^uint64(0))
	checkTable(t, &tab, oracle)
}

// TestMakeDoesNotGrow pins the CAM's sizing contract: a table made for
// n entries holds n without reallocating.
func TestMakeDoesNotGrow(t *testing.T) {
	for _, n := range []int{0, 1, 4, 5, 64, 100, 1000} {
		tab := Make(n)
		before := &tab.slots[0]
		for k := 0; k < n; k++ {
			tab.Put(uint64(k)*977, int32(k))
		}
		if &tab.slots[0] != before {
			t.Fatalf("Make(%d) grew before holding %d entries", n, n)
		}
	}
}

// TestDeleteAcrossWrap builds a probe run that wraps from the last slot
// to the first and deletes from it, so the backward shift has to carry
// entries across the wrap-around point.
func TestDeleteAcrossWrap(t *testing.T) {
	tab := Make(4) // 8 slots
	last := len(tab.slots) - 1
	var keys []uint64
	for k := uint64(0); len(keys) < 3; k++ {
		if tab.home(k) == last {
			keys = append(keys, k)
		}
	}
	oracle := map[uint64]int32{}
	for i, k := range keys {
		tab.Put(k, int32(i))
		oracle[k] = int32(i)
	}
	if !tab.slots[0].used || !tab.slots[1].used {
		t.Fatal("probe run did not wrap")
	}
	tab.Delete(keys[0])
	delete(oracle, keys[0])
	checkTable(t, &tab, oracle)
	if tab.slots[1].used {
		t.Fatal("backward shift left the run's tail in place")
	}
}

// FuzzAddrTable applies a random sequence of puts, gets and deletes to
// a table and a Go map and requires them to agree after every step.
// Keys come from a small space, half of them forced onto the table's
// last home slot, so runs collide, grow, and wrap around the end.
func FuzzAddrTable(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0x80, 0x81, 0x82, 0x83, 0x40, 0x41, 0x42, 0x43, 0xc0, 0xc1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var tab Table
		oracle := map[uint64]int32{}
		for i, op := range ops {
			k := uint64(op & 0x3f)
			if op&0x20 != 0 && len(tab.slots) > 0 {
				// Walk to a key whose home is the last slot.
				for base := k; tab.home(k) != len(tab.slots)-1; k++ {
					if k-base > 1<<16 {
						break
					}
				}
			}
			switch op >> 6 {
			case 0, 1:
				v := int32(binary.LittleEndian.Uint16([]byte{op, byte(i)}))
				tab.Put(k, v)
				oracle[k] = v
			case 2:
				_, want := oracle[k]
				if got := tab.Delete(k); got != want {
					t.Fatalf("op %d: Delete(%#x) = %v, want %v", i, k, got, want)
				}
				delete(oracle, k)
			case 3:
				want, wok := oracle[k]
				if got, ok := tab.Get(k); ok != wok || got != want {
					t.Fatalf("op %d: Get(%#x) = %d, %v; want %d, %v", i, k, got, ok, want, wok)
				}
			}
			checkTable(t, &tab, oracle)
		}
	})
}
