package core

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/telemetry"
)

// recordingProbe counts observed cycles and keeps a copy of the last
// published ledger (slices included), checking invariants on both.
type recordingProbe struct {
	t        *testing.T
	cfg      Config
	ticks    uint64
	last     telemetry.Ledger
	pbq, pbr []int32
}

func (p *recordingProbe) ObserveTick(s *telemetry.TickSample) {
	p.ticks += s.Cycles
	if s.Cycles == 0 || s.Cycle != p.ticks {
		p.t.Fatalf("sample cycle %d weight %d after %d observed cycles", s.Cycle, s.Cycles, p.ticks)
	}
	if s.MaxBankQueue > p.cfg.QueueDepth || s.DelayRowsInUse > p.cfg.Banks*p.cfg.DelayRows {
		p.t.Fatalf("sample out of bounds: %+v", s)
	}
}

func (p *recordingProbe) Publish(l *telemetry.Ledger) {
	if len(l.PerBankQueue) != p.cfg.Banks || len(l.PerBankRows) != p.cfg.Banks {
		p.t.Fatalf("per-bank slices sized %d/%d, want %d", len(l.PerBankQueue), len(l.PerBankRows), p.cfg.Banks)
	}
	var q, r int
	for i := range l.PerBankQueue {
		q += int(l.PerBankQueue[i])
		r += int(l.PerBankRows[i])
		if int(l.PerBankQueue[i]) > p.cfg.QueueDepth {
			p.t.Fatalf("bank %d queue %d exceeds Q=%d", i, l.PerBankQueue[i], p.cfg.QueueDepth)
		}
		if int(l.PerBankRows[i]) > p.cfg.DelayRows {
			p.t.Fatalf("bank %d rows %d exceed K=%d", i, l.PerBankRows[i], p.cfg.DelayRows)
		}
	}
	// The totals are maintained incrementally, the breakdown is scanned:
	// they must agree.
	if q != l.QueueDepth || r != l.DelayRowsInUse {
		p.t.Fatalf("per-bank totals %d/%d disagree with ledger %d/%d", q, r, l.QueueDepth, l.DelayRowsInUse)
	}
	if l.Cycle != p.ticks {
		p.t.Fatalf("ledger cycle %d after %d observed cycles", l.Cycle, p.ticks)
	}
	// Copy: the slices are only valid during the call.
	p.pbq = append(p.pbq[:0], l.PerBankQueue...)
	p.pbr = append(p.pbr[:0], l.PerBankRows...)
	p.last = *l
	p.last.PerBankQueue, p.last.PerBankRows = p.pbq, p.pbr
}

// TestProbeDifferential drives two same-seed controllers — one with a
// probe, one without — through an identical hot workload and demands
// cycle-for-cycle identical completions and identical final statistics:
// attaching a probe observes the machine without perturbing it.
func TestProbeDifferential(t *testing.T) {
	cfg := Config{Banks: 8, QueueDepth: 4, DelayRows: 8, WordBytes: 8, HashSeed: 77}
	plain, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := &recordingProbe{t: t, cfg: cfg.withDefaults()}
	pcfg := cfg
	pcfg.Probe = probe
	probed, err := New(pcfg)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewPCG(5, 9))
	data := []byte{1, 2, 3}
	const cycles = 30000
	for i := 0; i < cycles; i++ {
		// Narrow address space + write mix: force merges, write-buffer
		// pressure and stalls so every ledger field moves.
		addr := rng.Uint64() & 0x3f
		if rng.Float64() < 0.3 {
			err1 := plain.Write(addr, data)
			err2 := probed.Write(addr, data)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("cycle %d: write diverged: %v vs %v", i, err1, err2)
			}
		} else {
			_, err1 := plain.Read(addr)
			_, err2 := probed.Read(addr)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("cycle %d: read diverged: %v vs %v", i, err1, err2)
			}
		}
		c1 := plain.Tick()
		c2 := probed.Tick()
		if len(c1) != len(c2) {
			t.Fatalf("cycle %d: completion count diverged: %d vs %d", i, len(c1), len(c2))
		}
		for j := range c1 {
			if c1[j].Tag != c2[j].Tag || c1[j].Addr != c2[j].Addr ||
				c1[j].IssuedAt != c2[j].IssuedAt || c1[j].DeliveredAt != c2[j].DeliveredAt {
				t.Fatalf("cycle %d: completion %d diverged: %+v vs %+v", i, j, c1[j], c2[j])
			}
		}
	}

	s1, s2 := plain.Stats(), probed.Stats()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("final stats diverged:\nnil probe: %+v\nprobed:    %+v", s1, s2)
	}
	if s1.Stalls.Total() == 0 || s1.MergedReads == 0 {
		t.Fatalf("workload too gentle to exercise the ledger: %+v", s1)
	}
	if probe.ticks != cycles {
		t.Fatalf("probe saw %d ticks, want %d", probe.ticks, cycles)
	}
}

// TestProbeReconcilesWithStats pins the published Ledger to the
// controller's own Stats, field for field, after every tick's dust
// settles.
func TestProbeReconcilesWithStats(t *testing.T) {
	cfg := Config{Banks: 8, QueueDepth: 4, DelayRows: 8, WordBytes: 8, HashSeed: 3}
	probe := &recordingProbe{t: t, cfg: cfg.withDefaults()}
	cfg.Probe = probe
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(21, 43))
	data := []byte{9}
	for i := 0; i < 20000; i++ {
		addr := rng.Uint64() & 0x3f
		if rng.Float64() < 0.3 {
			c.Write(addr, data) //nolint:errcheck // stalls are part of the point
		} else {
			c.Read(addr) //nolint:errcheck // stalls are part of the point
		}
		c.Tick()
		c.PublishProbe()
		s, last := &c.stats, probe.last
		if last.Reads != s.Reads || last.Writes != s.Writes ||
			last.MergedReads != s.MergedReads || last.Replays != s.Completions {
			t.Fatalf("cycle %d: ledger mismatch: published %+v vs stats %+v", i, last, *s)
		}
		if last.Stalls != [telemetry.NumStallCauses]uint64{s.Stalls.DelayBuffer, s.Stalls.BankQueue,
			s.Stalls.WriteBuffer, s.Stalls.Counter, s.Stalls.Port} {
			t.Fatalf("cycle %d: stall ledger mismatch: published %v vs stats %+v", i, last.Stalls, s.Stalls)
		}
	}
	s := c.Stats()
	if s.Stalls.Total() == 0 || s.MergedReads == 0 {
		t.Fatalf("workload too gentle to exercise the ledger: %+v", s)
	}
	if c.StallsTotal() != s.Stalls.Total() {
		t.Fatalf("StallsTotal() = %d, Stats().Stalls.Total() = %d", c.StallsTotal(), s.Stalls.Total())
	}
}

// countingProbe forwards to a real probe, counting observations and
// the cycles they cover.
type countingProbe struct {
	telemetry.Probe
	samples int
	cycles  uint64
}

func (p *countingProbe) ObserveTick(s *telemetry.TickSample) {
	p.samples++
	p.cycles += s.Cycles
	p.Probe.ObserveTick(s)
}

// TestSkipIdleOneWeightedObservation pins what makes a probed idle skip
// O(1): SkipIdle(k) hands the probe exactly one observation of weight k,
// and the histograms and MTS estimator it leaves behind equal those of
// k single ticks.
func TestSkipIdleOneWeightedObservation(t *testing.T) {
	build := func() (*Controller, *countingProbe, *telemetry.Registry) {
		cfg := Config{Banks: 8, QueueDepth: 4, DelayRows: 8, WordBytes: 8, HashSeed: 5}.withDefaults()
		reg := telemetry.NewRegistry()
		mp := telemetry.NewMemProbe(reg, "0", cfg.Banks, cfg.QueueDepth, cfg.Banks*cfg.DelayRows)
		mp.AttachEstimator(reg, telemetry.NewMTSEstimator(cfg.QueueDepth), "0")
		p := &countingProbe{Probe: mp}
		cfg.Probe = p
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c, p, reg
	}
	skipped, sp, sreg := build()
	ticked, _, treg := build()
	for i := uint64(0); i < 40; i++ {
		for _, c := range []*Controller{skipped, ticked} {
			c.Read(i * 3) //nolint:errcheck // a stall just wastes the slot
			c.Tick()
		}
	}
	for skipped.IdleCycles() == 0 {
		skipped.Tick()
		ticked.Tick()
	}
	k := skipped.IdleCycles()
	if k < 2 || k == ^uint64(0) {
		t.Fatalf("idle span %d: want a finite multi-cycle span", k)
	}

	sp.samples, sp.cycles = 0, 0
	if got := skipped.SkipIdle(k); got != k {
		t.Fatalf("SkipIdle(%d) skipped %d", k, got)
	}
	if sp.samples != 1 || sp.cycles != k {
		t.Fatalf("SkipIdle(%d) made %d observations covering %d cycles, want 1 covering %d", k, sp.samples, sp.cycles, k)
	}
	for i := uint64(0); i < k; i++ {
		if len(ticked.Tick()) != 0 {
			t.Fatal("completion inside an idle span")
		}
	}

	skipped.PublishProbe()
	ticked.PublishProbe()
	var a, b bytes.Buffer
	sreg.WriteTo(&a) //nolint:errcheck // bytes.Buffer
	treg.WriteTo(&b) //nolint:errcheck // bytes.Buffer
	if a.String() != b.String() {
		t.Fatalf("one weighted observation and %d ticks left different state:\nskip:\n%s\ntick:\n%s", k, a.String(), b.String())
	}
}

// TestTickAllocationFreeWithProbe extends the hot-path allocation
// contract to a probed controller: a full MemProbe (gauges, counters,
// histograms, MTS estimator) observing every cycle still allocates
// nothing in the steady state.
func TestTickAllocationFreeWithProbe(t *testing.T) {
	cfg := Config{WordBytes: 8, HashSeed: 1}
	filled := cfg.withDefaults()
	reg := telemetry.NewRegistry()
	probe := telemetry.NewMemProbe(reg, "0", filled.Banks, filled.QueueDepth, filled.Banks*filled.DelayRows)
	est := telemetry.NewMTSEstimator(filled.QueueDepth)
	est.Model(filled.Banks, filled.AccessLatency, filled.Ratio())
	probe.AttachEstimator(reg, est, "0")
	cfg.Probe = probe

	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(11, 17))
	step := func() {
		c.Read(rng.Uint64() & 0xffff) //nolint:errcheck // a rare stall just wastes the slot
		c.Tick()
	}
	for i := 0; i < 2000; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("probed request+Tick allocates %.2f objects/cycle, want 0", allocs)
	}
}
