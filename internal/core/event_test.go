package core_test

// Differential tests for the event-driven controller core. The
// controller keeps active-set bookkeeping (queued-bank and in-flight
// bitmaps, a global due-playback FIFO) so Tick touches only banks with
// work; Config.DenseScan selects the original O(Banks) reference scans
// over the very same state. These tests drive both implementations in
// lockstep through fuzzed workloads — merges, stalls, faults, rekeys,
// both arbiter modes, dual-port issue — and demand bit-identical
// behaviour at every observable surface: per-cycle completions, request
// errors and tags, telemetry samples, trace event streams, and the
// final Stats ledger. The drain test additionally pins that the
// SkipIdle fast-forward used by Flush is exactly equivalent to ticking
// through the skipped span one cycle at a time.

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"testing"

	codedpkg "repro/internal/coded"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/telemetry"
)

// traceEvent is one Tracer callback flattened into a comparable value.
type traceEvent struct {
	kind       string
	cycle      uint64
	bank       int
	write      bool
	merged     bool
	addr, tag  uint64
	stallCause error
}

// diffTrace records every Tracer event in order.
type diffTrace struct{ events []traceEvent }

func (d *diffTrace) OnRequest(cycle uint64, bank int, isWrite, merged bool, addr, tag uint64) {
	d.events = append(d.events, traceEvent{kind: "request", cycle: cycle, bank: bank, write: isWrite, merged: merged, addr: addr, tag: tag})
}
func (d *diffTrace) OnStall(cycle uint64, bank int, addr uint64, err error) {
	d.events = append(d.events, traceEvent{kind: "stall", cycle: cycle, bank: bank, addr: addr, stallCause: err})
}
func (d *diffTrace) OnIssue(memCycle uint64, bank int, isWrite bool, addr uint64) {
	d.events = append(d.events, traceEvent{kind: "issue", cycle: memCycle, bank: bank, write: isWrite, addr: addr})
}
func (d *diffTrace) OnDataReady(memCycle uint64, bank int, addr uint64) {
	d.events = append(d.events, traceEvent{kind: "ready", cycle: memCycle, bank: bank, addr: addr})
}
func (d *diffTrace) OnDeliver(cycle uint64, bank int, addr, tag uint64) {
	d.events = append(d.events, traceEvent{kind: "deliver", cycle: cycle, bank: bank, addr: addr, tag: tag})
}

// diffProbe records a controller's probe stream so two controllers can
// be compared: the last per-cycle sample, the multiset of per-cycle
// values with the cycles that held them (weights fold in, so one
// weighted idle-span observation equals that many single ticks), and a
// deep copy of the last published ledger.
type diffProbe struct {
	cycles uint64
	last   telemetry.TickSample
	seen   map[[3]int]uint64 // (max bank queue, rows, grants) -> cycles
	ledger telemetry.Ledger
}

func (p *diffProbe) ObserveTick(s *telemetry.TickSample) {
	if p.seen == nil {
		p.seen = map[[3]int]uint64{}
	}
	p.cycles += s.Cycles
	p.seen[[3]int{s.MaxBankQueue, s.DelayRowsInUse, s.CodedGrants}] += s.Cycles
	p.last = *s
}

func (p *diffProbe) Publish(l *telemetry.Ledger) {
	q, r := append(p.ledger.PerBankQueue[:0], l.PerBankQueue...), append(p.ledger.PerBankRows[:0], l.PerBankRows...)
	p.ledger = *l
	p.ledger.PerBankQueue, p.ledger.PerBankRows = q, r
}

func errEq(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

func compareComps(t *testing.T, where string, ev, dn []core.Completion) {
	t.Helper()
	if len(ev) != len(dn) {
		t.Fatalf("%s: event path delivered %d completions, dense %d", where, len(ev), len(dn))
	}
	for i := range ev {
		e, d := ev[i], dn[i]
		if e.Tag != d.Tag || e.Addr != d.Addr || e.IssuedAt != d.IssuedAt ||
			e.DeliveredAt != d.DeliveredAt || !bytes.Equal(e.Data, d.Data) || !errEq(e.Err, d.Err) {
			t.Fatalf("%s: completion %d diverged:\nevent %+v\ndense %+v", where, i, e, d)
		}
	}
}

// diffCase parameterizes one lockstep differential run.
type diffCase struct {
	cfg        core.Config
	fault      *fault.Config
	seed       uint64
	cycles     int
	addrMask   uint64
	rekeyEvery int
	// op maps one random draw to this cycle's request decisions. With
	// cfg.DualPort false at most one of the two may be true.
	op func(v uint64) (doRead, doWrite bool)
	// readsPerCycle > 1 issues that many read attempts per read cycle
	// (addresses derived from independent bits of the draw) to exercise
	// the coded multi-port admission path; errors — including
	// ErrSecondRequest past the cap and coded-port stalls — must still
	// match between the event and dense paths attempt for attempt.
	readsPerCycle int
}

// runEventDiff drives an event-driven controller and a DenseScan
// reference through an identical workload, comparing every observable
// after every cycle.
func runEventDiff(t *testing.T, tc diffCase) {
	t.Helper()
	build := func(dense bool) (*core.Controller, *diffTrace, *diffProbe) {
		cfg := tc.cfg
		cfg.DenseScan = dense
		tr := &diffTrace{}
		pr := &diffProbe{}
		cfg.Trace = tr
		cfg.Probe = pr
		if tc.fault != nil {
			inj, err := fault.New(*tc.fault)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Fault = inj
			cfg.Delay = cfg.AutoDelayWithSlack(tc.fault.SlowBankExtra)
		}
		c, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c, tr, pr
	}
	ec, etr, epr := build(false)
	dc, dtr, dpr := build(true)

	checked := 0
	syncTrace := func(where string) {
		t.Helper()
		if len(etr.events) != len(dtr.events) {
			t.Fatalf("%s: event path traced %d events, dense %d", where, len(etr.events), len(dtr.events))
		}
		for i := checked; i < len(etr.events); i++ {
			if etr.events[i] != dtr.events[i] {
				t.Fatalf("%s: trace event %d diverged:\nevent %+v\ndense %+v", where, i, etr.events[i], dtr.events[i])
			}
		}
		checked = len(etr.events)
	}
	// syncProbes compares the probe streams and the ledgers both sides
	// publish. After a tick each side made one single-cycle observation,
	// compared exactly; a rekey drain may fold idle spans into weighted
	// observations on the event path, so there the per-cycle multisets
	// are compared instead.
	syncProbes := func(where string, tick bool) {
		t.Helper()
		if epr.cycles != dpr.cycles {
			t.Fatalf("%s: event path observed %d cycles, dense %d", where, epr.cycles, dpr.cycles)
		}
		if tick && epr.last != dpr.last {
			t.Fatalf("%s: probe sample diverged:\nevent %+v\ndense %+v", where, epr.last, dpr.last)
		}
		if !tick && !reflect.DeepEqual(epr.seen, dpr.seen) {
			t.Fatalf("%s: per-cycle observations diverged:\nevent %v\ndense %v", where, epr.seen, dpr.seen)
		}
		ec.PublishProbe()
		dc.PublishProbe()
		if !reflect.DeepEqual(epr.ledger, dpr.ledger) {
			t.Fatalf("%s: published ledger diverged:\nevent %+v\ndense %+v", where, epr.ledger, dpr.ledger)
		}
	}
	tickBoth := func(where string) {
		t.Helper()
		compareComps(t, where, ec.Tick(), dc.Tick())
		syncTrace(where)
		syncProbes(where, true)
	}

	rng := rand.New(rand.NewPCG(tc.seed, 0x6a09e667f3bcc908))
	data := make([]byte, tc.cfg.WordBytes)
	where := func(i int) string { return "cycle " + itoa(i) }
	for i := 0; i < tc.cycles; i++ {
		if tc.rekeyEvery > 0 && i > 0 && i%tc.rekeyEvery == 0 {
			ns := rng.Uint64() // one draw, same new seed for both
			em, ecy, edr, eerr := ec.Rekey(ns)
			dm, dcy, ddr, derr := dc.Rekey(ns)
			if em != dm || ecy != dcy || !errEq(eerr, derr) {
				t.Fatalf("%s: rekey diverged: event (%d,%d,%v) dense (%d,%d,%v)",
					where(i), em, ecy, eerr, dm, dcy, derr)
			}
			compareComps(t, where(i)+" rekey drain", edr, ddr)
			syncTrace(where(i) + " rekey")
			syncProbes(where(i)+" rekey", false)
		}
		v := rng.Uint64()
		doRead, doWrite := tc.op(v)
		addr := (v >> 16) & tc.addrMask
		if doWrite {
			for j := range data {
				data[j] = byte(v >> (8 * uint(j%8)))
			}
			eerr := ec.Write(addr, data)
			derr := dc.Write(addr, data)
			if !errEq(eerr, derr) {
				t.Fatalf("%s: write err diverged: event %v dense %v", where(i), eerr, derr)
			}
		}
		if doRead {
			n := tc.readsPerCycle
			if n < 1 {
				n = 1
			}
			for j := 0; j < n; j++ {
				addrJ := addr
				if j > 0 {
					addrJ = (v >> (16 + 7*uint(j))) & tc.addrMask
				}
				etag, eerr := ec.Read(addrJ)
				dtag, derr := dc.Read(addrJ)
				if etag != dtag || !errEq(eerr, derr) {
					t.Fatalf("%s: read %d diverged: event (%d,%v) dense (%d,%v)", where(i), j, etag, eerr, dtag, derr)
				}
			}
		}
		tickBoth(where(i))
	}

	// Drain both to quiescence in lockstep — the tail deliveries and
	// queued writes must also line up cycle for cycle.
	for !ec.Quiescent() || !dc.Quiescent() {
		if ec.Quiescent() != dc.Quiescent() {
			t.Fatalf("quiescence diverged: event %v dense %v", ec.Quiescent(), dc.Quiescent())
		}
		tickBoth("drain")
	}
	if ec.Cycle() != dc.Cycle() {
		t.Fatalf("final cycle diverged: event %d dense %d", ec.Cycle(), dc.Cycle())
	}
	syncProbes("final", false)
	if es, ds := ec.Stats(), dc.Stats(); !reflect.DeepEqual(es, ds) {
		t.Fatalf("final Stats diverged:\nevent %+v\ndense %+v", es, ds)
	}
}

// TestEventDenseDifferential is the exactness proof for the
// event-driven core: across fuzzed workloads covering merges, stalls,
// write-buffer pressure, dual-port issue, both arbiter modes, fault
// injection, and mid-run rekeys, the event-driven Tick and the dense
// reference scans must be cycle-for-cycle bit-identical.
func TestEventDenseDifferential(t *testing.T) {
	base := core.Config{Banks: 16, QueueDepth: 4, DelayRows: 8, WordBytes: 8, HashSeed: 1234}
	// Mixed read/write/idle with heavy address aliasing: exercises
	// merges, bank-queue and write-buffer stalls, counter saturation.
	mixed := func(v uint64) (bool, bool) {
		switch v % 16 {
		case 0, 1, 2, 3, 4, 5:
			return true, false
		case 6, 7, 8, 9:
			return false, true
		default:
			return false, false
		}
	}
	sparse := func(v uint64) (bool, bool) { return v%64 == 0, false }

	t.Run("mixed", func(t *testing.T) {
		runEventDiff(t, diffCase{cfg: base, seed: 1, cycles: 40000, addrMask: 0x3f, op: mixed})
	})
	t.Run("strict-round-robin", func(t *testing.T) {
		cfg := base
		cfg.StrictRoundRobin = true
		runEventDiff(t, diffCase{cfg: cfg, seed: 2, cycles: 20000, addrMask: 0x3f, op: mixed})
	})
	t.Run("dual-port", func(t *testing.T) {
		cfg := base
		cfg.DualPort = true
		dual := func(v uint64) (bool, bool) { return v%16 < 8, (v>>4)%16 < 6 }
		runEventDiff(t, diffCase{cfg: cfg, seed: 3, cycles: 20000, addrMask: 0x3f, op: dual})
	})
	t.Run("faults", func(t *testing.T) {
		fc := &fault.Config{Seed: 5, SingleBitRate: 2e-3, DoubleBitRate: 1e-3, SlowBankRate: 0.05, SlowBankExtra: 4}
		runEventDiff(t, diffCase{cfg: base, fault: fc, seed: 4, cycles: 20000, addrMask: 0x3f, op: mixed})
	})
	t.Run("rekey", func(t *testing.T) {
		runEventDiff(t, diffCase{cfg: base, seed: 5, cycles: 24000, addrMask: 0x3f, rekeyEvery: 7001, op: mixed})
	})
	t.Run("wide-sparse", func(t *testing.T) {
		cfg := core.Config{Banks: 128, QueueDepth: 4, DelayRows: 8, WordBytes: 8, HashSeed: 77}
		runEventDiff(t, diffCase{cfg: cfg, seed: 6, cycles: 12000, addrMask: 0xffff, op: sparse})
	})
	// Coded subtests: XOR-parity bank groups with K=2 read ports per
	// cycle. Multi-read cycles hit the merge/direct/decode arbitration,
	// the K admission cap (ErrSecondRequest on the third attempt), and
	// coded-port stalls — all must match the dense replay bit for bit,
	// probes and parity-decode ledgers included.
	coded := base
	coded.Coded = codedpkg.Geometry{Group: 4, K: 2}
	t.Run("coded-mixed", func(t *testing.T) {
		runEventDiff(t, diffCase{cfg: coded, seed: 21, cycles: 30000, addrMask: 0x3f, op: mixed, readsPerCycle: 3})
	})
	t.Run("coded-strict-round-robin", func(t *testing.T) {
		cfg := coded
		cfg.StrictRoundRobin = true
		runEventDiff(t, diffCase{cfg: cfg, seed: 22, cycles: 20000, addrMask: 0x3f, op: mixed, readsPerCycle: 3})
	})
	t.Run("coded-dual-port", func(t *testing.T) {
		cfg := coded
		cfg.DualPort = true
		dual := func(v uint64) (bool, bool) { return v%16 < 8, (v>>4)%16 < 6 }
		runEventDiff(t, diffCase{cfg: cfg, seed: 23, cycles: 20000, addrMask: 0x3f, op: dual, readsPerCycle: 2})
	})
	t.Run("coded-faults", func(t *testing.T) {
		fc := &fault.Config{Seed: 13, SingleBitRate: 2e-3, DoubleBitRate: 1e-3, SlowBankRate: 0.05, SlowBankExtra: 4}
		runEventDiff(t, diffCase{cfg: coded, fault: fc, seed: 24, cycles: 20000, addrMask: 0x3f, op: mixed, readsPerCycle: 2})
	})
	t.Run("coded-rekey", func(t *testing.T) {
		runEventDiff(t, diffCase{cfg: coded, seed: 25, cycles: 24000, addrMask: 0x3f, rekeyEvery: 6007, op: mixed, readsPerCycle: 2})
	})
	t.Run("faulty-dual-strict", func(t *testing.T) {
		cfg := base
		cfg.DualPort = true
		cfg.StrictRoundRobin = true
		fc := &fault.Config{Seed: 9, SingleBitRate: 1e-3, SlowBankRate: 0.02, SlowBankExtra: 3}
		dual := func(v uint64) (bool, bool) { return v%16 < 7, (v>>4)%16 < 5 }
		runEventDiff(t, diffCase{cfg: cfg, fault: fc, seed: 7, cycles: 16000, addrMask: 0x3f, op: dual})
	})
}

// TestDrainFastForwardExact is the quiescence property test: from any
// fuzzed mid-flight state, the Flush/SkipIdle fast-forward path must
// complete every outstanding read at exactly issue+D and leave the
// Stats ledgers identical to a tick-by-tick drain of the dense
// reference — skipped cycles are ordinary cycles, just not paid for
// one Tick at a time.
func TestDrainFastForwardExact(t *testing.T) {
	for _, seed := range []uint64{11, 23, 31, 47, 101} {
		t.Run("seed="+itoa(int(seed)), func(t *testing.T) {
			cfg := core.Config{Banks: 16, QueueDepth: 4, DelayRows: 8, WordBytes: 4, HashSeed: 999}
			ec, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			dcfg := cfg
			dcfg.DenseScan = true
			dc, err := core.New(dcfg)
			if err != nil {
				t.Fatal(err)
			}

			// Drive both to a random mid-flight state: requests still
			// queued, reads in flight, playbacks pending.
			rng := rand.New(rand.NewPCG(seed, 0xbb67ae8584caa73b))
			warm := 200 + int(rng.Uint64()%3000)
			data := make([]byte, cfg.WordBytes)
			for i := 0; i < warm; i++ {
				v := rng.Uint64()
				addr := (v >> 8) & 0x7f
				switch v % 4 {
				case 0, 1:
					et, ee := ec.Read(addr)
					dt, de := dc.Read(addr)
					if et != dt || !errEq(ee, de) {
						t.Fatalf("warmup read diverged")
					}
				case 2:
					for j := range data {
						data[j] = byte(v)
					}
					if !errEq(ec.Write(addr, data), dc.Write(addr, data)) {
						t.Fatalf("warmup write diverged")
					}
				}
				compareComps(t, "warmup", ec.Tick(), dc.Tick())
			}
			if ec.Outstanding() == 0 {
				t.Fatalf("warmup left nothing in flight; workload too light to test the drain")
			}

			// Event path: Flush (skip-ahead). Dense path: literal
			// tick-by-tick drain to the same quiescence condition.
			d := uint64(ec.Delay())
			flushed := ec.Flush()
			var manual []core.Completion
			for !dc.Quiescent() {
				for _, comp := range dc.Tick() {
					comp.Data = append([]byte(nil), comp.Data...)
					manual = append(manual, comp)
				}
			}
			compareComps(t, "drain", flushed, manual)
			for _, comp := range flushed {
				if comp.DeliveredAt-comp.IssuedAt != d {
					t.Fatalf("completion tag %d latency %d != D=%d", comp.Tag, comp.DeliveredAt-comp.IssuedAt, d)
				}
			}
			if ec.Cycle() != dc.Cycle() {
				t.Fatalf("drain cycle diverged: flush %d tick-by-tick %d", ec.Cycle(), dc.Cycle())
			}
			if es, ds := ec.Stats(), dc.Stats(); !reflect.DeepEqual(es, ds) {
				t.Fatalf("drain Stats diverged:\nflush %+v\ntick  %+v", es, ds)
			}
			if !ec.Quiescent() {
				t.Fatal("controller not quiescent after Flush")
			}
			if ec.IdleCycles() != ^uint64(0) {
				t.Fatalf("quiescent controller reports finite idle span %d", ec.IdleCycles())
			}
		})
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}
