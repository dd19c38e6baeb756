package server_test

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/server"
	"repro/internal/wire"
)

// TestCompletionSlabSurvivesCut pins the ownership of the per-session
// slab behind staged completion words. The first transport is cut in
// the middle of a writer batch, so the writer pushes the batch's
// completions — still pointing into the slab it took — back onto the
// session while the engine keeps staging into another. The resumed
// transport must then see every read's word byte for byte, whether it
// arrives as parked output or as a replay-cache answer.
//
// FlakyConn draws one fault decision per Write and the writer sends
// each pickup in one Write, so the test pins the pickups: read 0 goes
// alone, and the other reads are sent only once the writer is blocked
// writing it (net.Pipe writes finish only when read) and are all staged
// before anything is read. The second Write then carries every other
// completion, and seed 4 passes the first Write and cuts the second.
func TestCompletionSlabSurvivesCut(t *testing.T) {
	const reads = 1024
	mem := testMem(t, smallCfg(), 2)
	eng, err := server.New(server.Config{Mem: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	word := func(addr uint64) []byte {
		return binary.LittleEndian.AppendUint64(nil, addr*0x9e3779b97f4a7c15^0xa5a5)
	}

	pre := newHarness(t, eng)
	var reqs []wire.Request
	for a := uint64(0); a < reads; a++ {
		reqs = append(reqs, wire.Request{Op: wire.OpWrite, Seq: a, Addr: a, Data: word(a)})
	}
	reqs = append(reqs, wire.Request{Op: wire.OpFlush, Seq: reads})
	pre.send(reqs...)
	pre.awaitReply(reads)

	cli, srv := net.Pipe()
	defer cli.Close()
	cli.SetDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
	flaky, err := fault.NewFlakyConn(srv, fault.NetConfig{Seed: 4, DropRate: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ServeConn(flaky); err != nil {
		t.Fatal(err)
	}
	enc := wire.NewEncoder(cli)
	if err := enc.Hello(wire.Hello{SessionID: 9}); err != nil {
		t.Fatal(err)
	}
	reqs = reqs[:0]
	for a := uint64(0); a < reads; a++ {
		reqs = append(reqs, wire.Request{Op: wire.OpRead, Seq: 1000 + a, Addr: a})
	}
	if err := enc.Requests(0, reqs[:1]); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); flaky.Counters().Writes == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the writer never sent read 0's completion")
		}
	}
	if err := enc.Requests(0, reqs[1:]); err != nil {
		t.Fatal(err)
	}
	await(t, eng, "reads staged", func(s server.Snapshot) bool { return s.Completions == reads && s.Outstanding == 0 })
	got := 0
	dec := wire.NewDecoder(cli)
	for {
		f, err := dec.Next()
		if err != nil {
			break // the injected cut
		}
		if f.Type != wire.FrameCompletions {
			t.Fatalf("first transport got frame type %d", f.Type)
		}
		for _, c := range f.Completions {
			if want := word(c.Addr); !bytes.Equal(c.Data, want) {
				t.Fatalf("seq %d before the cut: word %x, want %x", c.Seq, c.Data, want)
			}
			got++
		}
	}
	if n := flaky.Counters().Drops; n != 1 {
		t.Fatalf("%d injected cuts, want 1", n)
	}
	if got == 0 || got >= reads {
		t.Fatalf("first transport delivered %d of %d completions; the cut must land mid-run", got, reads)
	}

	// Resume and replay every read: the parked ones flush from the
	// pushed-back batch and the slab staged behind it, the delivered
	// ones come back from the replay cache.
	h := newHarness(t, eng)
	h.hello(9, "")
	h.send(reqs...)
	for a := uint64(0); a < reads; a++ {
		c := h.awaitComp(1000 + a)
		if want := word(a); !bytes.Equal(c.Data, want) || c.Addr != a {
			t.Fatalf("seq %d after resume: addr %d word %x, want addr %d word %x", 1000+a, c.Addr, c.Data, a, want)
		}
	}
	if s := eng.Snapshot(); s.Reads != reads || s.Completions != reads {
		t.Fatalf("replays re-executed: %+v", s)
	}
}
