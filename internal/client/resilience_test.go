package client_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/multichannel"
	"repro/internal/qos"
	"repro/internal/recovery"
	"repro/internal/server"
	"repro/internal/wire"
)

// awaitCtr polls the client ledger until cond holds.
func awaitCtr(t *testing.T, c *client.Client, what string, cond func(client.Counters) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond(c.Counters()) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; counters=%+v", what, c.Counters())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDeadlineExceeded: against a server that never answers, every
// request must resolve locally with ErrDeadlineExceeded — which is not
// a stall, not a drop — and free its window slot.
func TestDeadlineExceeded(t *testing.T) {
	cn, sn := net.Pipe()
	go io.Copy(io.Discard, sn) //nolint:errcheck // sink until the pipe dies
	defer sn.Close()
	c := client.New(cn, client.Config{Window: 4, RequestTimeout: 50 * time.Millisecond})
	defer c.Close()

	got := make(chan error, 1)
	if err := c.Read(context.Background(), 1, func(cm client.Completion) { got <- cm.Err }); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(context.Background(), 2, []byte{1}); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-got:
		if !errors.Is(err, client.ErrDeadlineExceeded) {
			t.Fatalf("read resolved with %v, want ErrDeadlineExceeded", err)
		}
		if errors.Is(err, core.ErrStall) || errors.Is(err, recovery.ErrDropped) {
			t.Fatalf("deadline error %v must be distinct from stalls and drops", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("read never resolved")
	}
	awaitCtr(t, c, "two deadline expiries", func(ctr client.Counters) bool {
		return ctr.DeadlineExceeded == 2
	})
	if ctr := c.Counters(); ctr.Drops != 0 || ctr.Stalls.Total() != 0 {
		t.Fatalf("counters=%+v, want deadline expiries counted apart from drops and stalls", ctr)
	}

	// Both slots must be free again: on a Window of 4 the next four
	// requests may not block.
	wctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < 4; i++ {
		if err := c.Write(wctx, uint64(10+i), []byte{1}); err != nil {
			t.Fatalf("window slot %d not freed: %v", i, err)
		}
	}
}

// TestReconnectResume: killing the transport mid-session must not lose
// a single request — the client redials, re-sends its Hello, and
// retransmits the whole unresolved window against the same server-side
// session, and every read still completes exactly once at fixed D.
func TestReconnectResume(t *testing.T) {
	mem, err := multichannel.New(smallCfg(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := server.New(server.Config{Mem: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	var mu sync.Mutex
	var cur net.Conn
	allow := make(chan struct{}, 4) // each token admits one dial
	dial := func() (net.Conn, error) {
		<-allow
		cn, sn := net.Pipe()
		if err := eng.ServeConn(sn); err != nil {
			return nil, err
		}
		mu.Lock()
		cur = cn
		mu.Unlock()
		return cn, nil
	}
	allow <- struct{}{}
	nc, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	c := client.New(nc, client.Config{
		SessionID:   42,
		Dialer:      dial,
		Window:      256,
		BackoffBase: time.Millisecond,
		BackoffMax:  8 * time.Millisecond,
	})
	defer c.Close()
	tctx := ctx(t)

	if _, err := c.Stats(tctx); err != nil { // arm the fixed-D check
		t.Fatal(err)
	}

	const n = 64
	word := func(i uint64) []byte { return []byte{byte(i), 1, 2, 3, 4, 5, 6, 7} }
	for i := uint64(0); i < n; i++ {
		if err := c.Write(tctx, i, word(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(tctx); err != nil {
		t.Fatal(err)
	}

	// Kill the transport. The reconnect parks on the dial gate, so the
	// reads below are queued during the outage and must ride the
	// retransmit path.
	mu.Lock()
	cur.Close()
	mu.Unlock()

	var cmu sync.Mutex
	calls := make(map[uint64]int)
	bad := 0
	for i := uint64(0); i < n; i++ {
		addr := i
		err := c.Read(tctx, addr, func(cm client.Completion) {
			cmu.Lock()
			defer cmu.Unlock()
			calls[addr]++
			if cm.Err != nil || !bytes.Equal(cm.Data, word(addr)) {
				bad++
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	allow <- struct{}{} // let the reconnect through
	if err := c.Flush(tctx); err != nil {
		t.Fatal(err)
	}

	cmu.Lock()
	defer cmu.Unlock()
	for i := uint64(0); i < n; i++ {
		if calls[i] != 1 {
			t.Fatalf("read %d completed %d times, want exactly once", i, calls[i])
		}
	}
	if bad != 0 {
		t.Fatalf("%d reads returned wrong data or errors across the reconnect", bad)
	}
	ctr := c.Counters()
	if ctr.Reconnects != 1 || ctr.Retransmits < n {
		t.Fatalf("counters=%+v, want 1 reconnect retransmitting all %d reads", ctr, n)
	}
	if ctr.Completions != n || ctr.LatencyViolations != 0 {
		t.Fatalf("counters=%+v, want %d completions at fixed D", ctr, n)
	}
	if s := eng.Snapshot(); s.Reads != n || s.Writes != n || s.Completions != n {
		t.Fatalf("server executed reads=%d writes=%d, want exactly %d each (no replay re-execution)", s.Reads, s.Writes, n)
	}
}

// TestReconnectGivesUp: when every redial fails, the client must fail
// terminally after MaxReconnects attempts, surfacing the dial error.
func TestReconnectGivesUp(t *testing.T) {
	cn, sn := net.Pipe()
	go io.Copy(io.Discard, sn) //nolint:errcheck // absorb the Hello
	errDial := errors.New("test: no route")
	c := client.New(cn, client.Config{
		SessionID:     9,
		Dialer:        func() (net.Conn, error) { return nil, errDial },
		MaxReconnects: 3,
		BackoffBase:   time.Millisecond,
		BackoffMax:    4 * time.Millisecond,
	})
	defer c.Close()
	sn.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		err := c.Read(context.Background(), 1, nil)
		if err != nil {
			if !errors.Is(err, errDial) {
				t.Fatalf("terminal error %v does not surface the dial failure", err)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("client never failed despite exhausted reconnects")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHelloTenant: a tenant-only Hello (zero SessionID) must still bind
// the connection to the named QoS principal.
func TestHelloTenant(t *testing.T) {
	reg, err := qos.NewRegulator(qos.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := multichannel.New(smallCfg(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := server.New(server.Config{Mem: mem, QoS: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	cn, sn := net.Pipe()
	if err := eng.ServeConn(sn); err != nil {
		t.Fatal(err)
	}
	c := client.New(cn, client.Config{Tenant: "edge-7"})
	defer c.Close()
	tctx := ctx(t)

	const n = 8
	for i := uint64(0); i < n; i++ {
		if err := c.Write(tctx, i, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	if got := reg.Tenant("edge-7").Counters().Issued; got != n {
		t.Fatalf("tenant edge-7 issued %d, want %d — Hello did not bind the tenant", got, n)
	}
}

// TestDupVerdictTolerance scripts a server that answers every request
// twice. A session-bound client must count each verdict once, fire each
// callback once, and stay alive.
func TestDupVerdictTolerance(t *testing.T) {
	cn, sn := net.Pipe()
	defer sn.Close()
	dec := wire.NewDecoder(sn)
	enc := wire.NewEncoder(sn)
	// New writes the Hello synchronously; net.Pipe needs a reader first.
	type helloRes struct {
		id  uint64
		typ byte
		err error
	}
	hello := make(chan helloRes, 1)
	go func() {
		f, err := dec.Next()
		if err != nil {
			hello <- helloRes{err: err}
			return
		}
		hello <- helloRes{id: f.Hello.SessionID, typ: f.Type}
	}()
	c := client.New(cn, client.Config{SessionID: 3, Window: 8})
	defer c.Close()
	if h := <-hello; h.err != nil || h.typ != wire.FrameHello || h.id != 3 {
		t.Fatalf("first frame = %+v, want Hello for session 3", h)
	}
	var f *wire.Frame
	var err error

	tctx := ctx(t)
	if err := c.Write(tctx, 5, []byte{0xab}); err != nil {
		t.Fatal(err)
	}
	f, err = dec.Next()
	if err != nil || len(f.Requests) != 1 || f.Requests[0].Op != wire.OpWrite {
		t.Fatalf("frame = %+v (err %v), want the one write", f, err)
	}
	acc := wire.Reply{Status: wire.StatusAccepted, Seq: f.Requests[0].Seq}
	if err := enc.Replies(0, []wire.Reply{acc, acc}); err != nil {
		t.Fatal(err)
	}

	calls := 0
	var cmu sync.Mutex
	err = c.Read(tctx, 5, func(client.Completion) {
		cmu.Lock()
		calls++
		cmu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err = dec.Next()
	if err != nil || len(f.Requests) != 1 || f.Requests[0].Op != wire.OpRead {
		t.Fatalf("frame = %+v (err %v), want the one read", f, err)
	}
	comp := wire.Completion{Seq: f.Requests[0].Seq, Addr: 5, IssuedAt: 10, DeliveredAt: 208, Data: []byte{0xab}}
	if err := enc.Completions(0, []wire.Completion{comp, comp}); err != nil {
		t.Fatal(err)
	}

	awaitCtr(t, c, "one completion", func(ctr client.Counters) bool { return ctr.Completions == 1 })
	// Another round proves the duplicates did not fail the client.
	if err := c.Write(tctx, 6, []byte{0xcd}); err != nil {
		t.Fatal(err)
	}
	if f, err = dec.Next(); err != nil || len(f.Requests) != 1 {
		t.Fatalf("client dead after duplicate verdicts: %v", err)
	}
	ctr := c.Counters()
	cmu.Lock()
	defer cmu.Unlock()
	if calls != 1 || ctr.Completions != 1 || ctr.AcceptedWrites != 1 {
		t.Fatalf("calls=%d counters=%+v, want every duplicate verdict ignored", calls, ctr)
	}
}

// TestTrackingNodesReturnAfterChaos is the client's holder ledger. A
// run with stall retries, a transport kill with reconnect and
// retransmit, and deadline expiries during the outage must leave every
// tracking node back on the freelist exactly once, no two nodes sharing
// a payload buffer, and no window slot held. Every word that reached
// the server reads back byte for byte.
func TestTrackingNodesReturnAfterChaos(t *testing.T) {
	const window = 32
	mem, err := multichannel.New(core.Config{Banks: 2, QueueDepth: 2, DelayRows: 64, WordBytes: 8}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := server.New(server.Config{Mem: mem, Policy: recovery.DropWithAccounting})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	var mu sync.Mutex
	var cur net.Conn
	allow := make(chan struct{}, 4) // each token admits one dial
	dial := func() (net.Conn, error) {
		<-allow
		cn, sn := net.Pipe()
		if err := eng.ServeConn(sn); err != nil {
			return nil, err
		}
		mu.Lock()
		cur = cn
		mu.Unlock()
		return cn, nil
	}
	allow <- struct{}{}
	nc, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	c := client.New(nc, client.Config{
		SessionID:      11,
		Dialer:         dial,
		Window:         window,
		MaxAttempts:    1 << 20,
		RequestTimeout: 500 * time.Millisecond,
		BackoffBase:    time.Millisecond,
		BackoffMax:     8 * time.Millisecond,
	})
	defer c.Close()
	tctx := ctx(t)
	word := func(a uint64) []byte { return []byte{byte(a), byte(a >> 8), 0xa5, 3, 4, 5, 6, 7} }

	// Writes under stall retries.
	const n = 256
	for a := uint64(0); a < n; a++ {
		if err := c.Write(tctx, a, word(a)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	if ctr := c.Counters(); ctr.Retries == 0 || ctr.DeadlineExceeded != 0 {
		t.Fatalf("counters=%+v, want stall retries and no expiry before the outage", ctr)
	}

	// Kill the transport with the redial held: a full window of writes
	// issued now never leaves the client and expires.
	mu.Lock()
	cur.Close()
	mu.Unlock()
	for a := uint64(n); a < n+window; a++ {
		if err := c.Write(tctx, a, []byte{0xee}); err != nil {
			t.Fatal(err)
		}
	}
	awaitCtr(t, c, "a window of expiries", func(ctr client.Counters) bool { return ctr.DeadlineExceeded == window })

	// Reads and rewrites queued during the outage ride the retransmit.
	var cmu sync.Mutex
	bad := 0
	check := func(a uint64) func(client.Completion) {
		return func(cm client.Completion) {
			cmu.Lock()
			defer cmu.Unlock()
			if cm.Err != nil || !bytes.Equal(cm.Data, word(a)) {
				bad++
			}
		}
	}
	for a := uint64(0); a < window/2; a++ {
		if err := c.Read(tctx, a, check(a)); err != nil {
			t.Fatal(err)
		}
		if err := c.Write(tctx, n+a, word(n+a)); err != nil {
			t.Fatal(err)
		}
	}
	allow <- struct{}{} // let the reconnect through
	if err := c.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	for a := uint64(0); a < n+window/2; a++ {
		if err := c.Read(tctx, a, check(a)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(tctx); err != nil {
		t.Fatal(err)
	}

	ctr := c.Counters()
	if ctr.Reconnects != 1 || ctr.Retransmits == 0 || ctr.Drops != 0 {
		t.Fatalf("counters=%+v, want one reconnect with retransmits and no drops", ctr)
	}
	cmu.Lock()
	defer cmu.Unlock()
	if bad != 0 || ctr.Completions != n+window {
		t.Fatalf("%d of %d reads returned a wrong word or an error", bad, ctr.Completions)
	}
	free, distinct, shared, inflight := c.NodeLedger()
	if free != window || distinct != window || shared != 0 || inflight != 0 {
		t.Fatalf("tracking nodes: %d free (%d distinct) of %d, %d sharing a payload array, %d window slots held",
			free, distinct, window, shared, inflight)
	}
}
