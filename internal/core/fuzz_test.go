package core_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/recovery"
)

// FuzzControllerOps interprets arbitrary bytes as a request stream and
// checks the controller's externally observable contract on whatever
// falls out: no panics, exactly-D latency on every completion, and
// read data equal to the last accepted write (per a serial model).
// Run with `go test -fuzz=FuzzControllerOps` to explore; the seed
// corpus runs as a normal test.
func FuzzControllerOps(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x42, 0xFF, 0x10, 0x10, 0x10})
	f.Add([]byte{0x80, 0x01, 0x81, 0x02, 0x00, 0x01, 0x00, 0x01})
	f.Add(bytes.Repeat([]byte{0x07}, 64))
	f.Add(bytes.Repeat([]byte{0x80, 0x33, 0x00, 0x33}, 32))
	f.Fuzz(func(t *testing.T, raw []byte) {
		cfg := core.Config{
			Banks:      4,
			QueueDepth: 2,
			DelayRows:  4,
			WordBytes:  2,
			HashSeed:   7,
		}
		c, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d := uint64(c.Delay())
		model := map[uint64]byte{}
		expect := map[uint64]byte{}
		check := func(comp core.Completion) {
			if comp.DeliveredAt-comp.IssuedAt != d {
				t.Fatalf("latency %d != D=%d", comp.DeliveredAt-comp.IssuedAt, d)
			}
			want, ok := expect[comp.Tag]
			if !ok {
				t.Fatalf("unsolicited completion tag %d", comp.Tag)
			}
			if comp.Data[0] != want {
				t.Fatalf("tag %d addr %d: %#x want %#x", comp.Tag, comp.Addr, comp.Data[0], want)
			}
			delete(expect, comp.Tag)
		}
		for i := 0; i+1 < len(raw) && i < 4096; i += 2 {
			op, val := raw[i], raw[i+1]
			addr := uint64(op & 0x3F) // 64 addresses: heavy aliasing
			if op&0x80 != 0 {
				if err := c.Write(addr, []byte{val}); err == nil {
					model[addr] = val
				} else if !core.IsStall(err) && err != core.ErrSecondRequest {
					t.Fatal(err)
				}
			} else {
				if tag, err := c.Read(addr); err == nil {
					expect[tag] = model[addr]
				} else if !core.IsStall(err) && err != core.ErrSecondRequest {
					t.Fatal(err)
				}
			}
			// The low bit of val decides whether the cycle advances, so
			// the fuzzer can also explore the one-request-per-cycle
			// protocol edge.
			if val&1 == 0 {
				for _, comp := range c.Tick() {
					check(comp)
				}
			}
			if err := core.CheckSchedule(c); err != nil {
				t.Fatalf("op %d: %v", i/2, err)
			}
		}
		for _, comp := range c.Flush() {
			check(comp)
		}
		if err := core.CheckSchedule(c); err != nil {
			t.Fatalf("after Flush: %v", err)
		}
		if len(expect) != 0 {
			t.Fatalf("%d reads never completed", len(expect))
		}
	})
}

// FuzzRetrierOps drives arbitrary request streams through a
// recovery.Retrier under a fuzzer-chosen policy and checks the recovery
// contract: every submitted request resolves exactly once (accepted or
// dropped, never both, never twice), accepted reads complete with
// exactly-D latency and serial-model data, and the port protocol
// (ErrBusy while parked) never loses an operation.
func FuzzRetrierOps(f *testing.F) {
	f.Add(uint8(0), []byte{0x00, 0x01, 0x42, 0xFF, 0x10, 0x10})
	f.Add(uint8(1), bytes.Repeat([]byte{0x07, 0x06}, 32))
	f.Add(uint8(2), bytes.Repeat([]byte{0x80, 0x33, 0x00, 0x32}, 32))
	f.Add(uint8(3), bytes.Repeat([]byte{0x01, 0x00}, 48))
	f.Fuzz(func(t *testing.T, polByte uint8, raw []byte) {
		policy := recovery.Policy(polByte % 3)
		c, err := core.New(core.Config{
			Banks:      4,
			QueueDepth: 2,
			DelayRows:  4,
			WordBytes:  2,
			HashSeed:   9,
		})
		if err != nil {
			t.Fatal(err)
		}
		d := uint64(c.Delay())

		// At most one submission can be unresolved at a time (a parked
		// request holds the port), so a single slot tracks it.
		type pendingOp struct {
			write    bool
			addr     uint64
			resolved bool
		}
		var pending *pendingOp
		var submitted, accepted, dropped int
		model := map[uint64]byte{}
		expect := map[uint64]byte{}

		r := recovery.NewRetrier(c, recovery.Config{
			Policy:      policy,
			MaxAttempts: 4,
			OnAccept: func(write bool, addr uint64, tag uint64, data []byte) {
				if pending == nil || pending.resolved {
					t.Fatal("accept with no unresolved submission (double resolution?)")
				}
				if write != pending.write || addr != pending.addr {
					t.Fatalf("accept (write=%v addr=%d) does not match submission (write=%v addr=%d)",
						write, addr, pending.write, pending.addr)
				}
				pending.resolved = true
				accepted++
				if write {
					model[addr] = data[0]
				} else {
					expect[tag] = model[addr]
				}
			},
			OnDrop: func(write bool, addr uint64, cause error) {
				if pending == nil || pending.resolved {
					t.Fatal("drop with no unresolved submission (double resolution?)")
				}
				if write != pending.write || addr != pending.addr {
					t.Fatalf("drop (write=%v addr=%d) does not match submission (write=%v addr=%d)",
						write, addr, pending.write, pending.addr)
				}
				if !core.IsStall(cause) {
					t.Fatalf("drop cause %v is not a stall", cause)
				}
				pending.resolved = true
				dropped++
			},
		})

		check := func(comp core.Completion) {
			if comp.DeliveredAt-comp.IssuedAt != d {
				t.Fatalf("latency %d != D=%d", comp.DeliveredAt-comp.IssuedAt, d)
			}
			want, ok := expect[comp.Tag]
			if !ok {
				t.Fatalf("unsolicited completion tag %d", comp.Tag)
			}
			if comp.Data[0] != want {
				t.Fatalf("tag %d addr %d: %#x want %#x", comp.Tag, comp.Addr, comp.Data[0], want)
			}
			delete(expect, comp.Tag)
		}

		for i := 0; i+1 < len(raw) && i < 4096; i += 2 {
			op, val := raw[i], raw[i+1]
			addr := uint64(op & 0x3F)
			sub := &pendingOp{write: op&0x80 != 0, addr: addr}
			if pending == nil || pending.resolved {
				pending = sub
				submitted++
				var err error
				if sub.write {
					err = r.Write(addr, []byte{val})
				} else {
					_, err = r.Read(addr)
				}
				switch {
				case err == nil, errors.Is(err, recovery.ErrDeferred),
					errors.Is(err, recovery.ErrDropped):
					// Resolved already or parked for later resolution.
				case errors.Is(err, recovery.ErrBusy), errors.Is(err, core.ErrSecondRequest):
					// Never entered the pipeline; no callback will come.
					pending, submitted = nil, submitted-1
				default:
					t.Fatal(err)
				}
			}
			if val&1 == 0 {
				for _, comp := range r.Tick() {
					check(comp)
				}
			}
		}
		for _, comp := range r.Flush() {
			check(comp)
		}
		if pending != nil && !pending.resolved {
			t.Fatal("Flush left a submission unresolved")
		}
		if accepted+dropped != submitted {
			t.Fatalf("resolution leak: accepted %d + dropped %d != submitted %d",
				accepted, dropped, submitted)
		}
		if len(expect) != 0 {
			t.Fatalf("%d accepted reads never completed", len(expect))
		}
		rc := r.Counters()
		if got := int(rc.Reads + rc.Writes); got != accepted {
			t.Fatalf("retrier counted %d accepts, callbacks saw %d", got, accepted)
		}
		if int(rc.Drops) != dropped {
			t.Fatalf("retrier counted %d drops, callbacks saw %d", rc.Drops, dropped)
		}
	})
}
