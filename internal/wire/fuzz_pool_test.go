package wire

import (
	"bytes"
	"testing"
)

// FuzzPooledRoundTrip drives the encode path the data plane uses:
// frames are appended into a caller-owned buffer, which is reused for
// the next frame. The invariant under test is that the appended bytes
// are canonical: strict decode plus re-encode through the classic
// Encoder reproduces them exactly, for requests and for completions.
// (The name predates the retirement of the frame-buffer pool; it is
// kept so corpora and the fuzz target list stay valid.)
func FuzzPooledRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint16(3), uint16(2), uint64(54))
	f.Add([]byte{}, uint16(1), uint16(1), uint64(0))
	f.Add(bytes.Repeat([]byte{0xab}, 300), uint16(8), uint16(5), uint64(1<<40))
	f.Add(bytes.Repeat([]byte{0xff}, 64), uint16(64), uint16(64), uint64(7))

	f.Fuzz(func(t *testing.T, raw []byte, nreq, ncomp uint16, cycle uint64) {
		reqs := synthRequests(raw, int(nreq)%64+1)
		comps := synthCompletions(raw, int(ncomp)%64+1, cycle)

		buf, err := AppendRequests(nil, cycle, reqs)
		if err != nil {
			t.Fatalf("AppendRequests rejected synthesized batch: %v", err)
		}
		var fr Frame
		if err := DecodeFrame(buf[lenPrefix:], &fr); err != nil {
			t.Fatalf("appended requests frame does not decode: %v", err)
		}
		var enc bytes.Buffer
		if err := NewEncoder(&enc).Requests(fr.Cycle, fr.Requests); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(enc.Bytes(), buf) {
			t.Fatalf("appended requests encode is not canonical:\n got %x\nwant %x", buf, enc.Bytes())
		}

		// Reuse the buffer for the next frame, as a writer does.
		if buf, err = AppendCompletions(buf[:0], cycle, comps); err != nil {
			t.Fatalf("AppendCompletions rejected synthesized batch: %v", err)
		}
		if err := DecodeFrame(buf[lenPrefix:], &fr); err != nil {
			t.Fatalf("appended completions frame does not decode: %v", err)
		}
		enc.Reset()
		if err := NewEncoder(&enc).Completions(fr.Cycle, fr.Completions); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(enc.Bytes(), buf) {
			t.Fatalf("appended completions encode is not canonical:\n got %x\nwant %x", buf, enc.Bytes())
		}
	})
}

// synthRequests derives a valid request batch from fuzz bytes: ops
// cycle through the full opcode set and payloads are windows of raw.
func synthRequests(raw []byte, n int) []Request {
	ops := []byte{OpRead, OpWrite, OpFlush, OpStats}
	reqs := make([]Request, n)
	for i := range reqs {
		op := ops[i%len(ops)]
		reqs[i] = Request{Op: op, Seq: uint64(i + 1), Addr: windowWord(raw, i)}
		if op == OpWrite {
			reqs[i].Data = window(raw, i, MaxData)
		}
	}
	return reqs
}

// synthCompletions derives a valid completion batch: DeliveredAt keeps
// a fixed offset from IssuedAt, as the engine's fixed-D contract would.
func synthCompletions(raw []byte, n int, cycle uint64) []Completion {
	comps := make([]Completion, n)
	for i := range comps {
		comps[i] = Completion{
			Seq:         uint64(i + 1),
			Addr:        windowWord(raw, i),
			IssuedAt:    cycle,
			DeliveredAt: cycle + 54,
			Data:        window(raw, i, MaxData),
		}
		if i%7 == 3 {
			comps[i].Flags = FlagUncorrectable
		}
	}
	return comps
}

// window slices up to max bytes out of raw at a position derived from i.
func window(raw []byte, i, max int) []byte {
	if len(raw) == 0 {
		return nil
	}
	start := (i * 13) % len(raw)
	end := start + 1 + (i*7)%8
	if end > len(raw) {
		end = len(raw)
	}
	w := raw[start:end]
	if len(w) > max {
		w = w[:max]
	}
	return w
}

// windowWord folds a window of raw into an address.
func windowWord(raw []byte, i int) uint64 {
	var v uint64
	for _, b := range window(raw, i, 8) {
		v = v<<8 | uint64(b)
	}
	return v + uint64(i)
}
