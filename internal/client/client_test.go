package client_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/multichannel"
	"repro/internal/recovery"
	"repro/internal/server"
	"repro/internal/wire"
)

func ctx(t *testing.T) context.Context {
	t.Helper()
	c, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return c
}

// pipeClient wires a fresh client to a fresh engine over net.Pipe.
func pipeClient(t *testing.T, scfg server.Config, mcfg core.Config, channels int, ccfg client.Config) (*client.Client, *server.Engine, *multichannel.Memory) {
	t.Helper()
	mem, err := multichannel.New(mcfg, channels, 1)
	if err != nil {
		t.Fatal(err)
	}
	scfg.Mem = mem
	eng, err := server.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	cn, sn := net.Pipe()
	if err := eng.ServeConn(sn); err != nil {
		t.Fatal(err)
	}
	c := client.New(cn, ccfg)
	t.Cleanup(func() { c.Close() })
	return c, eng, mem
}

func smallCfg() core.Config {
	return core.Config{Banks: 8, QueueDepth: 16, DelayRows: 64, WordBytes: 8}
}

func TestReadWriteFlushStats(t *testing.T) {
	c, _, mem := pipeClient(t, server.Config{}, smallCfg(), 2, client.Config{})
	tctx := ctx(t)

	s, err := c.Stats(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if s.Delay != uint64(mem.Delay()) || c.Delay() != s.Delay {
		t.Fatalf("Stats taught D=%d (client %d), want %d", s.Delay, c.Delay(), mem.Delay())
	}

	word := []byte{9, 8, 7, 6, 5, 4, 3, 2}
	if err := c.Write(tctx, 0xbeef, word); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(tctx); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var got []byte
	var comp client.Completion
	calls := 0
	err = c.Read(tctx, 0xbeef, func(cm client.Completion) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		comp = cm
		got = append([]byte(nil), cm.Data...)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(tctx); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if calls != 1 {
		t.Fatalf("callback fired %d times, want exactly once", calls)
	}
	if comp.Err != nil || !bytes.Equal(got, word) {
		t.Fatalf("completion = %+v data %x, want %x with nil Err", comp, got, word)
	}
	if d := comp.DeliveredAt - comp.IssuedAt; d != uint64(mem.Delay()) {
		t.Fatalf("delta = %d cycles, want D = %d", d, mem.Delay())
	}

	ctr := c.Counters()
	if ctr.Issued != 2 || ctr.Reads != 1 || ctr.Writes != 1 ||
		ctr.AcceptedWrites != 1 || ctr.Completions != 1 {
		t.Fatalf("counters = %+v", ctr)
	}
	if ctr.LatencyViolations != 0 {
		t.Fatalf("%d fixed-D violations", ctr.LatencyViolations)
	}
}

// TestFlushOneBarrierPerCall pins that each Client.Flush resolves with
// exactly one OpFlush barrier in Lockstep. The engine stages a
// StatusFlushed reply only once nothing is outstanding, in the same
// step as the session's last completions; if the writer put that reply
// on the wire ahead of those completions, the client would find reads
// still pending when the barrier resolved and send a second barrier.
func TestFlushOneBarrierPerCall(t *testing.T) {
	c, eng, _ := pipeClient(t, server.Config{Lockstep: true}, smallCfg(), 4,
		client.Config{Window: 4096, MaxBatch: 64, ManualBatch: true})
	tctx := ctx(t)
	var addr uint64 = 1
	for i := 0; i < 200; i++ {
		for j := 0; j < 64; j++ {
			addr = addr*6364136223846793005 + 1442695040888963407
			if err := c.Read(tctx, addr>>40, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Kick(); err != nil {
			t.Fatal(err)
		}
		before := eng.Snapshot().Flushes
		if err := c.Flush(tctx); err != nil {
			t.Fatal(err)
		}
		if got := eng.Snapshot().Flushes - before; got != 1 {
			t.Fatalf("Flush %d resolved %d barriers, want 1", i, got)
		}
	}
	if ctr := c.Counters(); ctr.Completions != 200*64 {
		t.Fatalf("counters = %+v, want %d completions", ctr, 200*64)
	}
}

// TestStallRetry drives a one-bank queue-depth-one memory through a
// stall-surfacing server; the client's RetryNextCycle policy must
// re-issue every stalled read until all of them complete at exactly D.
func TestStallRetry(t *testing.T) {
	c, _, _ := pipeClient(t,
		server.Config{Policy: recovery.DropWithAccounting},
		core.Config{Banks: 1, QueueDepth: 1, WordBytes: 8}, 1,
		client.Config{Policy: recovery.RetryNextCycle})
	tctx := ctx(t)
	if _, err := c.Stats(tctx); err != nil { // arm the fixed-D check
		t.Fatal(err)
	}

	const n = 32
	var mu sync.Mutex
	errs := 0
	for i := uint64(0); i < n; i++ {
		err := c.Read(tctx, i, func(cm client.Completion) {
			if cm.Err != nil {
				mu.Lock()
				errs++
				mu.Unlock()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	ctr := c.Counters()
	mu.Lock()
	defer mu.Unlock()
	if errs != 0 || ctr.Completions != n || ctr.Drops != 0 {
		t.Fatalf("errs=%d counters=%+v, want all %d reads completed", errs, ctr, n)
	}
	if ctr.Stalls.Total() == 0 || ctr.Retries == 0 {
		t.Fatalf("counters=%+v, want stalls surfaced and retried on this geometry", ctr)
	}
	if ctr.LatencyViolations != 0 {
		t.Fatalf("%d fixed-D violations across retries", ctr.LatencyViolations)
	}
}

// TestDropPolicy: with DropWithAccounting on the client too, stalled
// reads resolve their callback with an error wrapping both
// recovery.ErrDropped and the stall cause.
func TestDropPolicy(t *testing.T) {
	c, _, _ := pipeClient(t,
		server.Config{Policy: recovery.DropWithAccounting},
		core.Config{Banks: 1, QueueDepth: 1, WordBytes: 8}, 1,
		client.Config{Policy: recovery.DropWithAccounting})
	tctx := ctx(t)

	const n = 32
	var mu sync.Mutex
	dropped, completed, badErr := 0, 0, 0
	for i := uint64(0); i < n; i++ {
		err := c.Read(tctx, i, func(cm client.Completion) {
			mu.Lock()
			defer mu.Unlock()
			if cm.Err == nil {
				completed++
				return
			}
			dropped++
			if !errors.Is(cm.Err, recovery.ErrDropped) || !errors.Is(cm.Err, core.ErrStall) {
				badErr++
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	ctr := c.Counters()
	mu.Lock()
	defer mu.Unlock()
	if dropped+completed != n || badErr != 0 {
		t.Fatalf("dropped=%d completed=%d badErr=%d, want %d resolutions", dropped, completed, badErr, n)
	}
	if dropped == 0 {
		t.Fatal("no drops on a geometry that must stall")
	}
	if ctr.Drops != uint64(dropped) || ctr.Retries != 0 {
		t.Fatalf("counters=%+v, want %d drops and no retries", ctr, dropped)
	}
}

// TestWindowBackpressure: with nobody draining the pipe, the second
// request must block on the window until its context expires.
func TestWindowBackpressure(t *testing.T) {
	cn, sn := net.Pipe()
	defer sn.Close()
	c := client.New(cn, client.Config{Window: 1, ManualBatch: true})
	defer c.Close()

	if err := c.Read(context.Background(), 1, func(client.Completion) {}); err != nil {
		t.Fatal(err)
	}
	short, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := c.Read(short, 2, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked Read returned %v, want DeadlineExceeded", err)
	}
}

// waitParked waits until n issuers are parked on c's full window.
func waitParked(t *testing.T, c *client.Client, n int) {
	t.Helper()
	for end := time.Now().Add(10 * time.Second); c.Parked() != n; {
		if time.Now().After(end) {
			t.Fatalf("%d issuers parked, want %d", c.Parked(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// answerReads serves the far end of a pipe: every request frame is
// answered with one completion frame covering its reads.
func answerReads(sn net.Conn) {
	dec := wire.NewDecoder(sn)
	word := make([]byte, 8)
	var comps []wire.Completion
	var buf []byte
	for cycle := uint64(0); ; cycle++ {
		f, err := dec.Next()
		if err != nil {
			return
		}
		comps = comps[:0]
		for _, r := range f.Requests {
			if r.Op == wire.OpRead {
				comps = append(comps, wire.Completion{Seq: r.Seq, Addr: r.Addr, IssuedAt: cycle, DeliveredAt: cycle + 1, Data: word})
			}
		}
		if len(comps) == 0 {
			continue
		}
		buf, _ = wire.AppendCompletions(buf[:0], cycle, comps)
		if _, err := sn.Write(buf); err != nil {
			return
		}
	}
}

// TestWindowParkedIssuerWokenByFailure: an issuer parked on a full
// window returns the terminal error when the client closes or its
// connection dies, instead of waiting for a slot that never frees.
func TestWindowParkedIssuerWokenByFailure(t *testing.T) {
	for _, tc := range []struct {
		name string
		kill func(c *client.Client, sn net.Conn)
	}{
		{"close", func(c *client.Client, _ net.Conn) { c.Close() }},
		{"dead-conn", func(_ *client.Client, sn net.Conn) { sn.Close() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cn, sn := net.Pipe()
			defer sn.Close()
			c := client.New(cn, client.Config{Window: 1, ManualBatch: true})
			defer c.Close()

			if err := c.Read(context.Background(), 1, nil); err != nil {
				t.Fatal(err)
			}
			got := make(chan error, 1)
			go func() { got <- c.Read(context.Background(), 2, nil) }()
			waitParked(t, c, 1)
			tc.kill(c, sn)
			var err error
			select {
			case err = <-got:
			case <-time.After(10 * time.Second):
				t.Fatal("parked Read never woke")
			}
			terminal := c.Read(context.Background(), 3, nil)
			if err == nil || terminal == nil || !errors.Is(err, terminal) {
				t.Fatalf("parked Read returned %v, want the terminal error %v", err, terminal)
			}
			if tc.name == "close" && !errors.Is(err, client.ErrClosed) {
				t.Fatalf("parked Read returned %v, want ErrClosed", err)
			}
		})
	}
}

// TestWindowParkedCancelLeaksNoSlot: a Read whose ctx expires while it
// is parked takes no slot with it. Once the reads that filled the
// window resolve, Window-many further reads go through without
// parking.
func TestWindowParkedCancelLeaksNoSlot(t *testing.T) {
	for _, window := range []int{1, 3} {
		t.Run(fmt.Sprint("window", window), func(t *testing.T) { parkedCancelLeaksNoSlot(t, window) })
	}
}

func parkedCancelLeaksNoSlot(t *testing.T, window int) {
	cn, sn := net.Pipe()
	defer sn.Close()
	go answerReads(sn)
	c := client.New(cn, client.Config{Window: window, ManualBatch: true})
	defer c.Close()

	resolved := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		if err := c.Read(context.Background(), uint64(i), func(client.Completion) { resolved <- struct{}{} }); err != nil {
			t.Fatal(err)
		}
	}
	short, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	if err := c.Read(short, 99, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("parked Read returned %v, want DeadlineExceeded", err)
	}
	cancel()
	if n := c.Parked(); n != 0 {
		t.Fatalf("%d issuers still parked after the ctx expired", n)
	}
	if err := c.Kick(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < window; i++ {
		select {
		case <-resolved:
		case <-time.After(10 * time.Second):
			t.Fatalf("read %d never resolved", i)
		}
	}
	for i := 0; i < window; i++ {
		short, cancel := context.WithTimeout(context.Background(), time.Second)
		err := c.Read(short, uint64(100+i), nil)
		cancel()
		if err != nil {
			t.Fatalf("read %d after the window drained: %v (a slot leaked)", i, err)
		}
	}
}

// TestWindowNoLostWakeup: many issuers share a two-slot window against
// a real engine. Every read must resolve; a wake lost between a
// verdict and a parked issuer hangs the run.
func TestWindowNoLostWakeup(t *testing.T) {
	c, eng, _ := pipeClient(t, server.Config{}, smallCfg(), 4, client.Config{Window: 2})
	tctx := ctx(t)
	const issuers, reads = 8, 250
	var done atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, issuers)
	for g := 0; g < issuers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				err := c.Read(tctx, uint64(g*reads+i), func(cm client.Completion) {
					if cm.Err == nil {
						done.Add(1)
					}
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := c.Flush(tctx); err != nil {
		t.Fatal(err)
	}
	if got := done.Load(); got != issuers*reads {
		t.Fatalf("%d reads completed, want %d", got, issuers*reads)
	}
	if ctr := c.Counters(); ctr.Completions != issuers*reads {
		t.Fatalf("counters = %+v, want %d completions", ctr, issuers*reads)
	}
	if s := eng.Snapshot(); s.Outstanding != 0 {
		t.Fatalf("engine still has %d outstanding", s.Outstanding)
	}
}

// TestWindowWakePassesOn: one frame that frees the whole window sends
// one wake, and the issuers parked on it must all get through — each
// woken issuer that still sees room passes the wake on. No further
// frame arrives to wake a straggler: ManualBatch holds the new reads.
func TestWindowWakePassesOn(t *testing.T) {
	const window = 4
	cn, sn := net.Pipe()
	defer sn.Close()
	go answerReads(sn)
	c := client.New(cn, client.Config{Window: window, ManualBatch: true})
	defer c.Close()
	tctx := ctx(t)

	for i := 0; i < window; i++ {
		if err := c.Read(tctx, uint64(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	got := make(chan error, window)
	for i := 0; i < window; i++ {
		go func(i int) { got <- c.Read(tctx, uint64(window+i), nil) }(i)
	}
	waitParked(t, c, window)
	if err := c.Kick(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < window; i++ {
		select {
		case err := <-got:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d parked issuers still waiting on a free window", window-i, window)
		}
	}
}

// TestFlushWaitsForFrameCallbacks: when one reply frame drops a read
// and releases a barrier behind it, Flush returns only after the
// dropped read's callback has run.
func TestFlushWaitsForFrameCallbacks(t *testing.T) {
	cn, sn := net.Pipe()
	defer sn.Close()
	c := client.New(cn, client.Config{ManualBatch: true})
	defer c.Close()
	go func() {
		dec := wire.NewDecoder(sn)
		for seen := 0; seen < 2; { // the read (seq 0) and the barrier (seq 1)
			f, err := dec.Next()
			if err != nil {
				return
			}
			seen += len(f.Requests)
		}
		b, _ := wire.AppendReplies(nil, 0, []wire.Reply{
			{Status: wire.StatusDropped, Code: wire.CodeBankQueue, Seq: 0},
			{Status: wire.StatusFlushed, Seq: 1},
		})
		sn.Write(b) //nolint:errcheck // a failed write fails the Flush below
	}()
	var called atomic.Bool
	err := c.Read(ctx(t), 7, func(cm client.Completion) {
		time.Sleep(100 * time.Millisecond)
		called.Store(cm.Err != nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(ctx(t)); err != nil {
		t.Fatal(err)
	}
	if !called.Load() {
		t.Fatal("Flush returned before the dropped read's callback finished")
	}
}

// TestConnFailure: a dying connection resolves pending reads with the
// terminal error and fails subsequent calls.
func TestConnFailure(t *testing.T) {
	cn, sn := net.Pipe()
	c := client.New(cn, client.Config{ManualBatch: true})
	defer c.Close()

	got := make(chan error, 1)
	if err := c.Read(context.Background(), 1, func(cm client.Completion) { got <- cm.Err }); err != nil {
		t.Fatal(err)
	}
	sn.Close()
	select {
	case err := <-got:
		if err == nil {
			t.Fatal("pending read resolved with nil error on a dead connection")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pending read never resolved")
	}
	if err := c.Read(context.Background(), 2, nil); err == nil {
		t.Fatal("Read succeeded on a failed client")
	}
	if err := c.Flush(context.Background()); err == nil {
		t.Fatal("Flush succeeded on a failed client")
	}
}

// TestConcurrentClients runs several clients against one engine at once
// — the race-detector workout for the engine's conn multiplexing.
func TestConcurrentClients(t *testing.T) {
	mem, err := multichannel.New(smallCfg(), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := server.New(server.Config{Mem: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const clients, perClient = 4, 200
	var wg sync.WaitGroup
	fail := make(chan error, clients)
	for k := 0; k < clients; k++ {
		cn, sn := net.Pipe()
		if err := eng.ServeConn(sn); err != nil {
			t.Fatal(err)
		}
		c := client.New(cn, client.Config{Window: 64})
		defer c.Close()
		wg.Add(1)
		go func(k int, c *client.Client) {
			defer wg.Done()
			tctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			base := uint64(k) << 32 // disjoint address spaces per client
			word := []byte{byte(k), 0, 0, 0, 0, 0, 0, 1}
			for i := uint64(0); i < perClient; i++ {
				if err := c.Write(tctx, base+i, word); err != nil {
					fail <- err
					return
				}
			}
			if err := c.Flush(tctx); err != nil {
				fail <- err
				return
			}
			bad := make(chan struct{}, perClient)
			for i := uint64(0); i < perClient; i++ {
				err := c.Read(tctx, base+i, func(cm client.Completion) {
					if cm.Err != nil || len(cm.Data) == 0 || cm.Data[0] != byte(k) {
						bad <- struct{}{}
					}
				})
				if err != nil {
					fail <- err
					return
				}
			}
			if err := c.Flush(tctx); err != nil {
				fail <- err
				return
			}
			if len(bad) > 0 {
				fail <- errors.New("cross-connection data corruption")
				return
			}
			if ctr := c.Counters(); ctr.Completions != perClient || ctr.LatencyViolations != 0 {
				fail <- errors.New("ledger mismatch")
			}
		}(k, c)
	}
	wg.Wait()
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}
	if s := eng.Snapshot(); s.Completions != clients*perClient || s.Outstanding != 0 {
		t.Fatalf("engine snapshot = %+v", s)
	}
}
