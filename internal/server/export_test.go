package server

// OOOSlotLedger audits the out-of-order stage's slot freelist: its
// length, how many distinct slots it holds (a slot freed twice appears
// twice), the slot count, and how many listed slots share a payload
// array with another. Call it only once the engine goroutine has
// stopped, after Close.
func (e *Engine) OOOSlotLedger() (free, distinct, total, sharedData int) {
	seen := make(map[uint32]bool)
	arrays := make(map[*byte]bool)
	for _, idx := range e.oooFree {
		if seen[idx] {
			continue
		}
		seen[idx] = true
		if d := e.oooSlots[idx].data; cap(d) > 0 {
			id := &d[:1][0]
			if arrays[id] {
				sharedData++
			}
			arrays[id] = true
		}
	}
	return len(e.oooFree), len(seen), len(e.oooSlots), sharedData
}
