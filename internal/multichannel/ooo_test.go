package multichannel

// Differential exactness tests for the out-of-order issue stage: the
// Stage may reorder issue across channels for throughput, but against a
// strict in-order issuer over an identical Memory it must produce the
// same per-request results — every read returns the value the program
// order dictates (same-address RAW/WAR preserved), every completion
// lands exactly D cycles after its own issue, and the stage ledger
// reconciles to zero. The in-order run doubles as the throughput
// reference: the reordered run must never need more cycles.

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"strconv"
	"testing"

	"repro/internal/coded"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/telemetry"
)

// diffOp is one program-order request of the shared differential
// workload.
type diffOp struct {
	write bool
	addr  uint64
	data  []byte
}

// genDiffOps builds a deterministic read/write mix over a small address
// space — small enough that same-address dependencies (RAW, WAR, and
// redundant-read merges) occur constantly.
func genDiffOps(seed uint64, n int, addrSpace uint64, writeFrac float64) []diffOp {
	rng := rand.New(rand.NewPCG(seed, 0xd1f))
	ops := make([]diffOp, n)
	for i := range ops {
		o := diffOp{addr: rng.Uint64N(addrSpace)}
		if rng.Float64() < writeFrac {
			o.write = true
			o.data = []byte{byte(i), byte(i >> 8), byte(o.addr), byte(seed), 0xA5, byte(i >> 16), 0, 1}
		}
		ops[i] = o
	}
	return ops
}

// expectDiffReads runs the serial oracle: for every read op, the data
// the program order promises (the last preceding write to that address,
// or the zero word).
func expectDiffReads(ops []diffOp, wordBytes int) map[int][]byte {
	model := map[uint64][]byte{}
	want := map[int][]byte{}
	zero := make([]byte, wordBytes)
	for i, o := range ops {
		if o.write {
			model[o.addr] = o.data
			continue
		}
		if w, ok := model[o.addr]; ok {
			want[i] = w
		} else {
			want[i] = zero
		}
	}
	return want
}

// checkDiffComp validates one completion's fixed-D latency and records
// its data under the originating op index.
func checkDiffComp(t *testing.T, c core.Completion, d uint64, idx int, got map[int][]byte) {
	t.Helper()
	if c.DeliveredAt-c.IssuedAt != d {
		t.Fatalf("op %d: latency %d != D=%d", idx, c.DeliveredAt-c.IssuedAt, d)
	}
	if c.Err != nil {
		t.Fatalf("op %d: completion error %v", idx, c.Err)
	}
	if _, dup := got[idx]; dup {
		t.Fatalf("op %d completed twice", idx)
	}
	got[idx] = append([]byte(nil), c.Data...)
}

// runDiffInOrder drives m with ops through a strict in-order issuer:
// one FIFO, the head holds every later request on any refusal — the
// policy the serving engine used before the out-of-order stage. It
// returns each read's delivered data and the cycles to full drain.
func runDiffInOrder(t *testing.T, m *Memory, ops []diffOp) (map[int][]byte, uint64) {
	t.Helper()
	d := uint64(m.Delay())
	tagOp := map[uint64]int{}
	got := map[int][]byte{}
	cycles := uint64(0)
	tick := func() {
		for _, c := range m.Tick() {
			checkDiffComp(t, c, d, tagOp[c.Tag], got)
		}
		cycles++
	}
	head := 0
	for head < len(ops) {
		for head < len(ops) {
			o := ops[head]
			if o.write {
				if err := m.Write(o.addr, o.data); err != nil {
					if err == ErrChannelBusy || core.IsStall(err) {
						break
					}
					t.Fatal(err)
				}
			} else {
				tag, err := m.Read(o.addr)
				if err != nil {
					if err == ErrChannelBusy || core.IsStall(err) {
						break
					}
					t.Fatal(err)
				}
				tagOp[tag] = head
			}
			head++
		}
		tick()
	}
	for m.Outstanding() > 0 {
		tick()
	}
	return got, cycles
}

// runDiffOOO drives m with the same ops through a Stage: single
// admission point in program order (Cookie carries the op index), one
// Sweep per cycle, stalled heads held for retry. It returns each read's
// delivered data, the cycles to full drain, and the stage ledger.
func runDiffOOO(t *testing.T, m *Memory, ops []diffOp, depth int, reg *telemetry.Registry) (map[int][]byte, uint64, StageStats) {
	t.Helper()
	d := uint64(m.Delay())
	tagOp := map[uint64]int{}
	got := map[int][]byte{}
	st := NewStage(m, depth, func(p *Pending, tag uint64, err error) bool {
		if err != nil {
			if core.IsStall(err) {
				return false // hold the head; retry next cycle
			}
			t.Fatalf("op %d: issue error %v", p.Cookie, err)
		}
		if !p.Write {
			tagOp[tag] = int(p.Cookie)
		}
		return true
	}, reg)
	cycles := uint64(0)
	tick := func() {
		for _, c := range m.Tick() {
			checkDiffComp(t, c, d, tagOp[c.Tag], got)
		}
		cycles++
	}
	next := 0
	for next < len(ops) || st.Len() > 0 {
		for next < len(ops) {
			o := ops[next]
			if !st.Admit(Pending{Addr: o.addr, Data: o.data, Cookie: uint64(next), Write: o.write}) {
				break
			}
			next++
		}
		st.Sweep()
		tick()
	}
	for m.Outstanding() > 0 {
		tick()
	}
	return got, cycles, st.Stats()
}

// diffCfg is a geometry generous enough that stalls never decide the
// comparison: the differential is about ordering, not capacity.
func diffCfg() core.Config {
	return core.Config{Banks: 16, QueueDepth: 64, DelayRows: 256, WordBytes: 8}
}

// verifyDiffRun checks one runner's results against the serial oracle:
// every read answered exactly once, with the program-order value.
func verifyDiffRun(t *testing.T, name string, got, want map[int][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s answered %d reads, want %d", name, len(got), len(want))
	}
	for i, w := range want {
		if !bytes.Equal(got[i], w) {
			t.Fatalf("%s op %d: data %x, want %x", name, i, got[i], w)
		}
	}
}

// TestStageDifferentialVsInOrder is the exactness contract, over ten
// seeds: reordered issue must be observationally identical to in-order
// issue — identical per-request read results (the serial oracle checks
// same-address RAW/WAR order for both), every completion at exactly
// issue+D, the stage ledger balanced — while never spending more
// cycles than the in-order reference.
func TestStageDifferentialVsInOrder(t *testing.T) {
	const (
		nOps      = 4000
		addrSpace = 1024
		channels  = 4
	)
	for seed := uint64(0); seed < 10; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ops := genDiffOps(seed, nOps, addrSpace, 0.3)
			want := expectDiffReads(ops, 8)

			mIn, err := New(diffCfg(), channels, seed+1)
			if err != nil {
				t.Fatal(err)
			}
			mOOO, err := New(diffCfg(), channels, seed+1)
			if err != nil {
				t.Fatal(err)
			}

			gotIn, cyclesIn := runDiffInOrder(t, mIn, ops)
			gotOOO, cyclesOOO, stats := runDiffOOO(t, mOOO, ops, 0, nil)

			verifyDiffRun(t, "in-order", gotIn, want)
			verifyDiffRun(t, "out-of-order", gotOOO, want)
			if cyclesOOO > cyclesIn {
				t.Errorf("reordering cost cycles: %d out-of-order vs %d in-order", cyclesOOO, cyclesIn)
			}
			if stats.Admitted != nOps || stats.Issued != nOps || stats.Pending != 0 {
				t.Errorf("stage ledger does not reconcile: %+v over %d ops", stats, nOps)
			}

			// The two memories saw the same requests, so their own ledgers
			// must agree too (busy counts differ by construction: only the
			// in-order path goes through the Read/Write remap).
			rIn, wIn, _, _ := mIn.Stats()
			rOOO, wOOO, _, _ := mOOO.Stats()
			if rIn != rOOO || wIn != wOOO {
				t.Errorf("memory ledgers diverge: in-order %d/%d vs out-of-order %d/%d", rIn, wIn, rOOO, wOOO)
			}
		})
	}
}

// TestStageDifferentialCoded repeats the exactness contract with
// XOR-parity coded banks: up to ReadPorts()=2 reads per channel per
// cycle, held third requests, and parity-decode data paths must not
// open an ordering hole.
func TestStageDifferentialCoded(t *testing.T) {
	const channels = 4
	for seed := uint64(0); seed < 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := diffCfg()
			cfg.Coded = coded.Geometry{Group: 4, K: 2}
			ops := genDiffOps(seed^0xC0DE, 3000, 512, 0.25)
			want := expectDiffReads(ops, 8)

			mIn, err := New(cfg, channels, seed+21)
			if err != nil {
				t.Fatal(err)
			}
			mOOO, err := New(cfg, channels, seed+21)
			if err != nil {
				t.Fatal(err)
			}
			gotIn, cyclesIn := runDiffInOrder(t, mIn, ops)
			gotOOO, cyclesOOO, stats := runDiffOOO(t, mOOO, ops, 0, nil)
			verifyDiffRun(t, "in-order", gotIn, want)
			verifyDiffRun(t, "out-of-order", gotOOO, want)
			if cyclesOOO > cyclesIn {
				t.Errorf("coded reordering cost cycles: %d vs %d", cyclesOOO, cyclesIn)
			}
			if stats.Issued != uint64(len(ops)) || stats.Pending != 0 {
				t.Errorf("stage ledger does not reconcile: %+v", stats)
			}
		})
	}
}

// TestStageFixedDAcrossRekey: a mid-run hash rekey drains the memory
// under the stage's feet. Requests still parked in the stage must stay
// correctly routed (the channel selector is deliberately not rekeyed)
// and every read — drained in flight or issued after — still completes
// exactly D cycles after its own issue with the program-order value.
func TestStageFixedDAcrossRekey(t *testing.T) {
	const channels = 4
	m, err := New(diffCfg(), channels, 77)
	if err != nil {
		t.Fatal(err)
	}
	d := uint64(m.Delay())
	ops := genDiffOps(99, 3000, 512, 0.3)
	want := expectDiffReads(ops, 8)

	tagOp := map[uint64]int{}
	got := map[int][]byte{}
	st := NewStage(m, 0, func(p *Pending, tag uint64, err error) bool {
		if err != nil {
			if core.IsStall(err) {
				return false
			}
			t.Fatalf("op %d: issue error %v", p.Cookie, err)
		}
		if !p.Write {
			tagOp[tag] = int(p.Cookie)
		}
		return true
	}, nil)

	next := 0
	cycle := 0
	tick := func() {
		for _, c := range m.Tick() {
			checkDiffComp(t, c, d, tagOp[c.Tag], got)
		}
		cycle++
	}
	rekeyed := false
	for next < len(ops) || st.Len() > 0 {
		if !rekeyed && next > len(ops)/2 && m.Outstanding() > 0 {
			// Rekey with reads in flight AND requests parked in the stage:
			// the drained completions come back re-tagged, each still
			// exactly D after its issue.
			c0 := m.Cycle()
			drained, err := m.Rekey(4242)
			if err != nil {
				t.Fatal(err)
			}
			// Pinned: each channel is charged for its own words only, not
			// for the shared store's total (268 words: 58/69/74/67 per
			// channel), so the realigned rekey spans exactly what it did
			// with one store per channel.
			if got, pop := m.Cycle()-c0, m.chans[0].Store().Populated(); got != 1950 || len(drained) != 949 || pop != 268 {
				t.Fatalf("rekey took %d cycles and drained %d over %d stored words, want 1950, 949, 268", got, len(drained), pop)
			}
			for _, c := range drained {
				checkDiffComp(t, c, d, tagOp[c.Tag], got)
			}
			rekeyed = true
		}
		for next < len(ops) {
			o := ops[next]
			if !st.Admit(Pending{Addr: o.addr, Data: o.data, Cookie: uint64(next), Write: o.write}) {
				break
			}
			next++
		}
		st.Sweep()
		tick()
	}
	for m.Outstanding() > 0 {
		tick()
	}
	if !rekeyed {
		t.Fatal("rekey point never reached")
	}
	verifyDiffRun(t, "rekeyed", got, want)
	if st.Len() != 0 {
		t.Fatalf("%d requests still parked after drain", st.Len())
	}
}

// TestStageFaultInjection runs the stage over a faulty DRAM: corrected
// single-bit flips must stay invisible, uncorrectable double-bit flips
// must arrive flagged — and still exactly at issue+D; reordering must
// not reorder a fault onto the wrong request.
func TestStageFaultInjection(t *testing.T) {
	inj, err := fault.New(fault.Config{Seed: 5, SingleBitRate: 0.02, DoubleBitRate: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	cfg := diffCfg()
	cfg.Fault = inj
	m, err := New(cfg, 4, 13)
	if err != nil {
		t.Fatal(err)
	}
	d := uint64(m.Delay())
	ops := genDiffOps(7, 4000, 256, 0.2)
	want := expectDiffReads(ops, 8)

	tagOp := map[uint64]int{}
	got := map[int][]byte{}
	flagged := map[int]bool{}
	st := NewStage(m, 0, func(p *Pending, tag uint64, err error) bool {
		if err != nil {
			if core.IsStall(err) {
				return false
			}
			t.Fatalf("op %d: issue error %v", p.Cookie, err)
		}
		if !p.Write {
			tagOp[tag] = int(p.Cookie)
		}
		return true
	}, nil)
	cycles := 0
	tick := func() {
		for _, c := range m.Tick() {
			idx := tagOp[c.Tag]
			if c.DeliveredAt-c.IssuedAt != d {
				t.Fatalf("op %d: latency %d != D=%d under faults", idx, c.DeliveredAt-c.IssuedAt, d)
			}
			if _, dup := got[idx]; dup {
				t.Fatalf("op %d completed twice", idx)
			}
			got[idx] = append([]byte(nil), c.Data...)
			if c.Err != nil {
				flagged[idx] = true
			}
		}
		cycles++
	}
	next := 0
	for next < len(ops) || st.Len() > 0 {
		for next < len(ops) {
			o := ops[next]
			if !st.Admit(Pending{Addr: o.addr, Data: o.data, Cookie: uint64(next), Write: o.write}) {
				break
			}
			next++
		}
		st.Sweep()
		tick()
	}
	for m.Outstanding() > 0 {
		tick()
	}
	if len(got) != len(want) {
		t.Fatalf("answered %d reads, want %d", len(got), len(want))
	}
	if len(flagged) == 0 {
		t.Fatal("a 1% double-bit rate injected nothing — injector not wired under the stage")
	}
	for i, w := range want {
		if flagged[i] {
			continue // on time but untrusted; data deliberately unchecked
		}
		if !bytes.Equal(got[i], w) {
			t.Fatalf("op %d: unflagged data %x, want %x", i, got[i], w)
		}
	}
}

// TestStageTelemetryRoundTrip saturates an armed stage and verifies the
// vpnm_ooo_* series through a strict text-exposition round trip: the
// reorder-depth histogram's count matches the issue ledger, the
// head-of-line-bypass counter matches (and is non-zero — a saturated
// stage must bypass), and the per-channel pending gauges match the live
// ring occupancies at scrape time.
func TestStageTelemetryRoundTrip(t *testing.T) {
	const channels = 4
	reg := telemetry.NewRegistry()
	// Tight geometry so channels hold often and bypasses happen.
	m, err := New(core.Config{Banks: 4, QueueDepth: 4, DelayRows: 32, WordBytes: 8}, channels, 3)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStage(m, 16, func(p *Pending, tag uint64, err error) bool {
		return !core.IsStall(err) // hold stalled heads
	}, reg)
	rng := rand.New(rand.NewPCG(6, 28))
	for i := 0; i < 4000; i++ {
		for st.Admit(Pending{Addr: rng.Uint64N(1 << 20), Cookie: uint64(i)}) {
			// fill to the brim: saturation is what makes reordering visible
		}
		st.Sweep()
		m.Tick()
	}
	stats := st.Stats()
	if stats.Issued == 0 || stats.Bypasses == 0 {
		t.Fatalf("saturated stage issued %d with %d bypasses; nothing to verify", stats.Issued, stats.Bypasses)
	}
	if stats.Admitted != stats.Issued+uint64(stats.Pending) {
		t.Fatalf("stage ledger leaks: %+v", stats)
	}

	var buf bytes.Buffer
	if _, err := reg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := telemetry.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]uint64{
		"vpnm_ooo_reorder_depth_count":             stats.Issued,
		`vpnm_ooo_reorder_depth_bucket{le="+Inf"}`: stats.Issued,
		"vpnm_ooo_hol_bypass_total":                stats.Bypasses,
	} {
		got, ok := parsed[key]
		if !ok {
			t.Fatalf("exposition missing %s", key)
		}
		if uint64(got) != want {
			t.Errorf("%s = %g, want %d", key, got, want)
		}
	}
	for ch := 0; ch < channels; ch++ {
		key := `vpnm_ooo_pending{channel="` + strconv.Itoa(ch) + `"}`
		got, ok := parsed[key]
		if !ok {
			t.Fatalf("exposition missing %s", key)
		}
		if int(got) != st.ChannelLen(ch) {
			t.Errorf("%s = %g, want %d", key, got, st.ChannelLen(ch))
		}
	}
}

// TestStageAdmitRefusesWhenFull pins the backpressure contract: a full
// channel ring refuses (the caller holds the request), Room agrees, and
// a sweep that frees a slot makes the next Admit succeed.
func TestStageAdmitRefusesWhenFull(t *testing.T) {
	m, err := New(diffCfg(), 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStage(m, 2, func(p *Pending, tag uint64, err error) bool {
		return !core.IsStall(err)
	}, nil)
	if st.Depth() != 2 || st.Cap() != 2 {
		t.Fatalf("depth/cap = %d/%d, want 2/2", st.Depth(), st.Cap())
	}
	for i := 0; i < 2; i++ {
		if !st.Admit(Pending{Addr: uint64(i)}) {
			t.Fatalf("admit %d refused below capacity", i)
		}
	}
	if st.Room(0) || st.Admit(Pending{Addr: 3}) {
		t.Fatal("full ring admitted a third request")
	}
	st.Sweep() // one read issues (single channel, one port)
	if st.Len() != 1 || !st.Room(0) {
		t.Fatalf("after sweep: len=%d room=%v", st.Len(), st.Room(0))
	}
	if !st.Admit(Pending{Addr: 5}) {
		t.Fatal("admit refused with room available")
	}
}
