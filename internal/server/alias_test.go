package server_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/wire"
)

// aliasWord is the word written to addr. Every address gets its own,
// so a payload that leaked into another request's buffer reads back
// at the wrong address.
func aliasWord(addr uint64) []byte {
	return binary.LittleEndian.AppendUint64(nil, addr*0x9e3779b97f4a7c15^0x5a5a)
}

// aliasFrames are the write frame sizes of the aliasing script. The
// first frame is long enough that popLocked compacts its queue (head
// past 256 with more than half the queue popped); the second is longer
// than that compaction point, so a compaction that left two queue slots
// sharing a payload array would give both to live entries of one
// frame. The rest recycle the lockstep hand-off batches at other sizes.
var aliasFrames = []int{600, 900, 64, 300, 1, 700}

// aliasConfig is a Lockstep engine over a geometry small enough that
// writes stall, so stalled heads are held and re-presented while later
// payloads arrive.
func aliasConfig(t *testing.T) server.Config {
	return server.Config{
		Mem:         testMem(t, core.Config{Banks: 2, QueueDepth: 2, DelayRows: 64, WordBytes: 8}, 2),
		Lockstep:    true,
		MaxAttempts: 1 << 20,
	}
}

// runAliasScript sends every write frame back to back, so the reader
// decodes frame k+1 into a recycled batch while the engine still holds
// frame k's payloads in its queue (or, out of order, in the Stage). It
// then reads every address back and requires each word byte for byte.
func runAliasScript(t *testing.T, eng *server.Engine) {
	t.Helper()
	h := newHarness(t, eng)
	var seq, addrs uint64
	for _, n := range aliasFrames {
		reqs := make([]wire.Request, n)
		for i := range reqs {
			reqs[i] = wire.Request{Op: wire.OpWrite, Seq: seq, Addr: addrs, Data: aliasWord(addrs)}
			seq++
			addrs++
		}
		h.send(reqs...)
	}
	h.send(wire.Request{Op: wire.OpFlush, Seq: seq})
	h.awaitReply(seq)
	for s := uint64(0); s < addrs; s++ {
		if r := h.awaitReply(s); r.Status != wire.StatusAccepted {
			t.Fatalf("write seq %d: status %d code %d, want accepted", s, r.Status, r.Code)
		}
	}

	const readBase = 1 << 32
	var reqs []wire.Request
	for a := uint64(0); a < addrs; a++ {
		reqs = append(reqs, wire.Request{Op: wire.OpRead, Seq: readBase + a, Addr: a})
		if len(reqs) == 512 || a == addrs-1 {
			h.send(reqs...)
			reqs = reqs[:0]
		}
	}
	h.send(wire.Request{Op: wire.OpFlush, Seq: readBase + addrs})
	h.awaitReply(readBase + addrs)
	for a := uint64(0); a < addrs; a++ {
		c := h.awaitComp(readBase + a)
		if want := aliasWord(a); c.Addr != a || !bytes.Equal(c.Data, want) {
			t.Fatalf("addr %d read back %x at addr %d, want %x", a, c.Data, c.Addr, want)
		}
	}
	if s := eng.Snapshot(); s.StallRetries == 0 || s.Dropped != 0 {
		t.Fatalf("want stalled heads held and retried, none dropped: %+v", s)
	}
}

// TestWritePayloadsNeverAlias writes distinct words through every place
// a write payload is held — the reader's hand-off batches, a queue that
// compacts, stalled heads under hold-and-retry and, out of order, the
// Stage's slots — and reads them all back, in order and out of order.
func TestWritePayloadsNeverAlias(t *testing.T) {
	for _, ooo := range []bool{false, true} {
		name := "in-order"
		if ooo {
			name = "ooo"
		}
		t.Run(name, func(t *testing.T) {
			cfg := aliasConfig(t)
			cfg.OOO = ooo
			eng, err := server.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			runAliasScript(t, eng)
		})
	}
}
