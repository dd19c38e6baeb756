package server_test

import (
	"bytes"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/multichannel"
	"repro/internal/recovery"
	"repro/internal/server"
	"repro/internal/wire"
)

func testMem(t *testing.T, cfg core.Config, channels int) *multichannel.Memory {
	t.Helper()
	m, err := multichannel.New(cfg, channels, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func smallCfg() core.Config {
	return core.Config{Banks: 8, QueueDepth: 16, DelayRows: 64, WordBytes: 8}
}

// harness speaks raw wire to an engine over net.Pipe, accumulating
// whatever the server sends until an awaited record shows up.
type harness struct {
	t       *testing.T
	nc      net.Conn
	enc     *wire.Encoder
	dec     *wire.Decoder
	replies map[uint64]wire.Reply
	comps   map[uint64]wire.Completion
	stats   map[uint64]wire.Stats
}

func newHarness(t *testing.T, eng *server.Engine) *harness {
	t.Helper()
	cli, srv := net.Pipe()
	cli.SetDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
	if err := eng.ServeConn(srv); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return &harness{
		t:       t,
		nc:      cli,
		enc:     wire.NewEncoder(cli),
		dec:     wire.NewDecoder(cli),
		replies: make(map[uint64]wire.Reply),
		comps:   make(map[uint64]wire.Completion),
		stats:   make(map[uint64]wire.Stats),
	}
}

func (h *harness) send(reqs ...wire.Request) {
	h.t.Helper()
	if err := h.enc.Requests(0, reqs); err != nil {
		h.t.Fatal(err)
	}
}

// recvOne decodes one frame into the accumulators.
func (h *harness) recvOne() {
	h.t.Helper()
	f, err := h.dec.Next()
	if err != nil {
		h.t.Fatalf("decode: %v", err)
	}
	switch f.Type {
	case wire.FrameReplies:
		for _, r := range f.Replies {
			h.replies[r.Seq] = r
		}
	case wire.FrameCompletions:
		for _, c := range f.Completions {
			c.Data = append([]byte(nil), c.Data...) // outlives the decoder buffer
			h.comps[c.Seq] = c
		}
	case wire.FrameStats:
		h.stats[f.Stats.Seq] = f.Stats
	default:
		h.t.Fatalf("server sent frame type %d", f.Type)
	}
}

func (h *harness) awaitReply(seq uint64) wire.Reply {
	h.t.Helper()
	for {
		if r, ok := h.replies[seq]; ok {
			return r
		}
		h.recvOne()
	}
}

// awaitVerdict receives until seq resolves one way or the other —
// replies and completions travel in separate frames, and a writer batch
// encodes its completions first — and reports its reply, or isReply
// false when it completed instead.
func (h *harness) awaitVerdict(seq uint64) (r wire.Reply, isReply bool) {
	h.t.Helper()
	for {
		if r, ok := h.replies[seq]; ok {
			return r, true
		}
		if _, ok := h.comps[seq]; ok {
			return wire.Reply{}, false
		}
		h.recvOne()
	}
}

func (h *harness) awaitComp(seq uint64) wire.Completion {
	h.t.Helper()
	for {
		if c, ok := h.comps[seq]; ok {
			return c
		}
		h.recvOne()
	}
}

func (h *harness) awaitStats(seq uint64) wire.Stats {
	h.t.Helper()
	for {
		if s, ok := h.stats[seq]; ok {
			return s
		}
		h.recvOne()
	}
}

func TestReadWriteFixedD(t *testing.T) {
	mem := testMem(t, smallCfg(), 2)
	eng, err := server.New(server.Config{Mem: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	h := newHarness(t, eng)

	word := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	h.send(
		wire.Request{Op: wire.OpWrite, Seq: 1, Addr: 0xcafe, Data: word},
		wire.Request{Op: wire.OpRead, Seq: 2, Addr: 0xcafe},
		wire.Request{Op: wire.OpFlush, Seq: 3},
	)
	if r := h.awaitReply(1); r.Status != wire.StatusAccepted {
		t.Fatalf("write reply = %+v, want StatusAccepted", r)
	}
	comp := h.awaitComp(2)
	if !bytes.Equal(comp.Data, word) {
		t.Fatalf("read returned %x, want %x", comp.Data, word)
	}
	if d := comp.DeliveredAt - comp.IssuedAt; d != uint64(mem.Delay()) {
		t.Fatalf("completion delta = %d cycles, want D = %d", d, mem.Delay())
	}
	if r := h.awaitReply(3); r.Status != wire.StatusFlushed {
		t.Fatalf("flush reply = %+v, want StatusFlushed", r)
	}
	h.send(wire.Request{Op: wire.OpStats, Seq: 4})
	s := h.awaitStats(4)
	if s.Reads != 1 || s.Writes != 1 || s.Completions != 1 || s.Outstanding != 0 {
		t.Fatalf("stats = %+v, want 1 read, 1 write, 1 completion, 0 outstanding", s)
	}
	if s.Delay != uint64(mem.Delay()) || s.Channels != 2 || s.Conns != 1 {
		t.Fatalf("stats = %+v, want D=%d channels=2 conns=1", s, mem.Delay())
	}
}

func TestPipelinedReadsAllFixedD(t *testing.T) {
	mem := testMem(t, smallCfg(), 2)
	eng, err := server.New(server.Config{Mem: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	h := newHarness(t, eng)

	const n = 64
	reqs := make([]wire.Request, 0, n+1)
	for i := uint64(0); i < n; i++ {
		word := make([]byte, 8)
		word[0] = byte(i)
		reqs = append(reqs, wire.Request{Op: wire.OpWrite, Seq: i, Addr: i * 64, Data: word})
	}
	reqs = append(reqs, wire.Request{Op: wire.OpFlush, Seq: 1000})
	h.send(reqs...)
	h.awaitReply(1000)

	reqs = reqs[:0]
	for i := uint64(0); i < n; i++ {
		reqs = append(reqs, wire.Request{Op: wire.OpRead, Seq: 2000 + i, Addr: i * 64})
	}
	reqs = append(reqs, wire.Request{Op: wire.OpFlush, Seq: 3000})
	h.send(reqs...)
	for i := uint64(0); i < n; i++ {
		comp := h.awaitComp(2000 + i)
		if comp.Data[0] != byte(i) {
			t.Fatalf("read %d returned %x", i, comp.Data)
		}
		if d := comp.DeliveredAt - comp.IssuedAt; d != uint64(mem.Delay()) {
			t.Fatalf("read %d delta = %d, want %d", i, d, mem.Delay())
		}
	}
	h.awaitReply(3000)
}

// TestStallSurfaced forces bank-queue stalls (one bank, queue depth one)
// with the DropWithAccounting policy, which must surface them as
// StatusStall replies carrying the cause code.
func TestStallSurfaced(t *testing.T) {
	cfg := core.Config{Banks: 1, QueueDepth: 1, WordBytes: 8}
	mem := testMem(t, cfg, 1)
	eng, err := server.New(server.Config{Mem: mem, Policy: recovery.DropWithAccounting})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	h := newHarness(t, eng)

	const n = 16
	reqs := make([]wire.Request, 0, n+1)
	for i := uint64(0); i < n; i++ {
		reqs = append(reqs, wire.Request{Op: wire.OpRead, Seq: i, Addr: i})
	}
	reqs = append(reqs, wire.Request{Op: wire.OpFlush, Seq: 100})
	h.send(reqs...)
	h.awaitReply(100)

	var stalled, completed int
	for i := uint64(0); i < n; i++ {
		if r, ok := h.awaitVerdict(i); ok {
			if r.Status != wire.StatusStall || r.Code == wire.CodeNone {
				t.Fatalf("reply %d = %+v, want StatusStall with a cause", i, r)
			}
			stalled++
			continue
		}
		comp := h.comps[i]
		if d := comp.DeliveredAt - comp.IssuedAt; d != uint64(mem.Delay()) {
			t.Fatalf("read %d delta = %d, want %d", i, d, mem.Delay())
		}
		completed++
	}
	if stalled == 0 {
		t.Fatal("one-bank queue-depth-one geometry produced no stalls")
	}
	h.send(wire.Request{Op: wire.OpStats, Seq: 200})
	if s := h.awaitStats(200); s.Stalls != uint64(stalled) || s.Completions != uint64(completed) {
		t.Fatalf("stats = %+v, want %d stalls and %d completions", s, stalled, completed)
	}
}

// TestOversizeWriteDropped sends a write wider than the memory word;
// the server must drop that request, not the connection.
func TestOversizeWriteDropped(t *testing.T) {
	mem := testMem(t, smallCfg(), 1)
	eng, err := server.New(server.Config{Mem: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	h := newHarness(t, eng)

	h.send(
		wire.Request{Op: wire.OpWrite, Seq: 1, Addr: 0, Data: make([]byte, 64)},
		wire.Request{Op: wire.OpWrite, Seq: 2, Addr: 0, Data: make([]byte, 8)},
	)
	if r := h.awaitReply(1); r.Status != wire.StatusDropped || r.Code != wire.CodeOther {
		t.Fatalf("oversize write reply = %+v, want StatusDropped/CodeOther", r)
	}
	if r := h.awaitReply(2); r.Status != wire.StatusAccepted {
		t.Fatalf("following write reply = %+v, want StatusAccepted", r)
	}
}

// TestClientFrameTypeRejected: a client that sends a server-to-client
// frame type gets its connection closed.
func TestClientFrameTypeRejected(t *testing.T) {
	mem := testMem(t, smallCfg(), 1)
	eng, err := server.New(server.Config{Mem: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	h := newHarness(t, eng)

	if err := h.enc.Replies(0, []wire.Reply{{Status: wire.StatusAccepted, Seq: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.dec.Next(); err == nil {
		t.Fatal("connection survived a protocol violation")
	}
}

// TestLockstepDeterministic runs the same frame sequence against two
// lockstep engines and requires bit-identical ledgers: cycle count,
// channel-busy retries, everything.
func TestLockstepDeterministic(t *testing.T) {
	run := func() server.Snapshot {
		mem := testMem(t, smallCfg(), 2)
		eng, err := server.New(server.Config{Mem: mem, Lockstep: true})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		h := newHarness(t, eng)

		var reqs []wire.Request
		for i := uint64(0); i < 32; i++ {
			word := make([]byte, 8)
			word[0] = byte(i)
			reqs = append(reqs, wire.Request{Op: wire.OpWrite, Seq: i, Addr: i * 7, Data: word})
		}
		h.send(reqs...)
		h.send(wire.Request{Op: wire.OpFlush, Seq: 100})
		h.awaitReply(100)
		reqs = reqs[:0]
		for i := uint64(0); i < 32; i++ {
			reqs = append(reqs, wire.Request{Op: wire.OpRead, Seq: 200 + i, Addr: i * 7})
		}
		h.send(reqs...)
		h.send(wire.Request{Op: wire.OpFlush, Seq: 300})
		h.awaitReply(300)
		for i := uint64(0); i < 32; i++ {
			if comp := h.awaitComp(200 + i); comp.Data[0] != byte(i) {
				t.Fatalf("read %d returned %x", i, comp.Data)
			}
		}
		s := eng.Snapshot()
		s.Conns = 0 // the harness conn may or may not have unregistered yet
		return s
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("lockstep runs diverged:\n a = %+v\n b = %+v", a, b)
	}
	if a.Cycle == 0 || a.Completions != 32 {
		t.Fatalf("suspicious lockstep ledger: %+v", a)
	}
}

func TestEngineCloseUnblocksConn(t *testing.T) {
	mem := testMem(t, smallCfg(), 1)
	eng, err := server.New(server.Config{Mem: mem})
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, eng)
	h.send(wire.Request{Op: wire.OpRead, Seq: 1, Addr: 9})
	h.awaitComp(1)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.dec.Next(); err == nil {
		t.Fatal("connection survived engine close")
	}
	if err := eng.Close(); err != nil {
		t.Fatal("second Close must be a no-op")
	}
}
