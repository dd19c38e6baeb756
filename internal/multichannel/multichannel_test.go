package multichannel

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
)

func cfg() core.Config {
	return core.Config{Banks: 8, QueueDepth: 16, DelayRows: 64, WordBytes: 8}
}

func TestValidation(t *testing.T) {
	if _, err := New(cfg(), 3, 1); err == nil {
		t.Error("non-power-of-two channels accepted")
	}
	if _, err := New(cfg(), 0, 1); err == nil {
		t.Error("zero channels accepted")
	}
	m, err := New(cfg(), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Channels() != 4 {
		t.Fatalf("channels = %d", m.Channels())
	}
}

func TestAddressesPinToChannels(t *testing.T) {
	m, _ := New(cfg(), 4, 7)
	for a := uint64(0); a < 1000; a++ {
		if m.Channel(a) != m.Channel(a) || m.Channel(a) >= 4 {
			t.Fatalf("unstable or out-of-range channel for %d", a)
		}
	}
}

func TestReadYourWritesAcrossChannels(t *testing.T) {
	m, _ := New(cfg(), 4, 3)
	want := map[uint64]byte{}
	for a := uint64(0); a < 64; a++ {
		// One write per cycle keeps it simple (single-channel use).
		for {
			err := m.Write(a, []byte{byte(a * 7)})
			if err == nil {
				break
			}
			if !errors.Is(err, ErrChannelBusy) && !core.IsStall(err) {
				t.Fatal(err)
			}
			m.Tick()
		}
		want[a] = byte(a * 7)
		m.Tick()
	}
	expect := map[uint64]uint64{} // tag -> addr
	for a := uint64(0); a < 64; a++ {
		for {
			tag, err := m.Read(a)
			if err == nil {
				expect[tag] = a
				break
			}
			if !errors.Is(err, ErrChannelBusy) && !core.IsStall(err) {
				t.Fatal(err)
			}
			m.Tick()
		}
		m.Tick()
	}
	for m.Outstanding() > 0 {
		for _, comp := range m.Tick() {
			addr, ok := expect[comp.Tag]
			if !ok {
				t.Fatalf("unknown tag %d", comp.Tag)
			}
			if comp.Addr != addr || comp.Data[0] != want[addr] {
				t.Fatalf("addr %d: got addr=%d data=%#x want %#x", addr, comp.Addr, comp.Data[0], want[addr])
			}
			delete(expect, comp.Tag)
		}
	}
	if len(expect) != 0 {
		t.Fatalf("%d reads unanswered", len(expect))
	}
}

// TestAggregateThroughputScales: with 4 channels and 4 issue attempts
// per cycle, accepted throughput must approach 4 requests/cycle (minus
// birthday-paradox channel conflicts), far beyond a single controller.
func TestAggregateThroughputScales(t *testing.T) {
	const channels = 4
	// Full-rate saturation per channel needs the strong Table 2 point
	// (8 banks would run unstable at ~0.7 req/cycle/channel).
	m, err := New(core.Config{QueueDepth: 64, DelayRows: 128, WordBytes: 8}, channels, 11)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	const cycles = 20000
	var accepted, busy uint64
	for i := 0; i < cycles; i++ {
		for j := 0; j < channels; j++ {
			if _, err := m.Read(rng.Uint64()); err == nil {
				accepted++
			} else if errors.Is(err, ErrChannelBusy) {
				busy++
			} else if !core.IsStall(err) {
				t.Fatal(err)
			}
		}
		m.Tick()
	}
	tp := float64(accepted) / cycles
	// Random assignment of 4 balls to 4 bins covers ~(1-(3/4)^4) of
	// slots on average when retried greedily; 2.0+ per cycle is well
	// past any single controller and what this blind policy achieves.
	if tp < 2.0 {
		t.Fatalf("aggregate throughput %.2f req/cycle; striping is not scaling", tp)
	}
	if busy == 0 {
		t.Fatal("no channel conflicts with random traffic? selector broken")
	}
	r, _, b, stalls := m.Stats()
	if r != accepted || b != busy {
		t.Fatalf("stats mismatch: %d/%d vs %d/%d", r, b, accepted, busy)
	}
	if stalls != 0 {
		t.Fatalf("unexpected controller stalls: %d", stalls)
	}
}

// TestFixedLatencyAcrossChannels: striping must not disturb the
// deterministic delay.
func TestFixedLatencyAcrossChannels(t *testing.T) {
	m, _ := New(cfg(), 2, 5)
	d := uint64(m.Delay())
	rng := rand.New(rand.NewPCG(3, 4))
	issued := 0
	checked := 0
	for issued < 500 {
		if _, err := m.Read(rng.Uint64()); err == nil {
			issued++
		}
		for _, comp := range m.Tick() {
			if comp.DeliveredAt-comp.IssuedAt != d {
				t.Fatalf("latency %d != D=%d", comp.DeliveredAt-comp.IssuedAt, d)
			}
			checked++
		}
	}
	for m.Outstanding() > 0 {
		for _, comp := range m.Tick() {
			if comp.DeliveredAt-comp.IssuedAt != d {
				t.Fatalf("latency %d != D=%d", comp.DeliveredAt-comp.IssuedAt, d)
			}
			checked++
		}
	}
	if checked != 500 {
		t.Fatalf("checked %d of 500", checked)
	}
}

// TestTagRoundTrip: global tags must be unique and decodable even when
// several channels complete on the same cycle.
func TestTagRoundTrip(t *testing.T) {
	m, _ := New(cfg(), 8, 9)
	seen := map[uint64]bool{}
	rng := rand.New(rand.NewPCG(5, 6))
	issued := 0
	for issued < 300 {
		for j := 0; j < 8; j++ {
			if tag, err := m.Read(rng.Uint64()); err == nil {
				if seen[tag] {
					t.Fatalf("duplicate global tag %d", tag)
				}
				seen[tag] = true
				issued++
			}
		}
		m.Tick()
	}
	bufEq := 0
	for m.Outstanding() > 0 {
		comps := m.Tick()
		for i := 1; i < len(comps); i++ {
			if &comps[i].Data[0] == &comps[i-1].Data[0] {
				bufEq++
			}
		}
	}
	if bufEq > 0 {
		t.Fatalf("%d same-cycle completions share a data buffer", bufEq)
	}
}

// TestSharedStorePerChannelPopulated: the channels share one content
// store, but each still owns its addresses' words — every channel's
// rekey relocates (and charges for) exactly its own distinct words, and
// the per-channel counts sum to the store's.
func TestSharedStorePerChannelPopulated(t *testing.T) {
	m, err := New(cfg(), 4, 13)
	if err != nil {
		t.Fatal(err)
	}
	own := make([]map[uint64]bool, m.Channels())
	for ch := range own {
		own[ch] = map[uint64]bool{}
	}
	rng := rand.New(rand.NewPCG(8, 8))
	for i := 0; i < 3000; i++ {
		addr := rng.Uint64N(1 << 12)
		if m.Write(addr, []byte{byte(addr)}) == nil {
			own[m.Channel(addr)][addr] = true
		}
		m.Tick()
	}
	for m.Outstanding() > 0 || m.IdleCycles() == 0 {
		m.Tick() // drain the write buffers into the store
	}
	store, sum := m.chans[0].Store(), 0
	for ch, c := range m.chans {
		if c.Store() != store {
			t.Fatalf("channel %d has its own store", ch)
		}
		moved, cycles, _, err := c.Rekey(uint64(ch) + 100)
		if err != nil {
			t.Fatal(err)
		}
		if moved != len(own[ch]) || cycles != core.RekeyCost(moved) {
			t.Fatalf("channel %d moved %d words in %d cycles, want %d in %d", ch, moved, cycles, len(own[ch]), core.RekeyCost(len(own[ch])))
		}
		sum += moved
	}
	if sum != store.Populated() || sum == 0 {
		t.Fatalf("per-channel words sum to %d, store holds %d", sum, store.Populated())
	}
}

func TestWriteTooLongRejected(t *testing.T) {
	m, _ := New(cfg(), 2, 1)
	if err := m.Write(0, bytes.Repeat([]byte{1}, 9)); err == nil {
		t.Fatal("oversized write accepted")
	}
}

// TestTickAllocationFree pins the comps-slice lifecycle fix: once warm,
// a Tick allocates nothing, even when every channel delivers a
// completion on the same cycle.
func TestTickAllocationFree(t *testing.T) {
	t.Run("sequential", func(t *testing.T) {
		m, err := New(cfg(), 4, 5)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(9, 9))
		issue := func() {
			for j := 0; j < 4; j++ {
				m.Read(rng.Uint64() >> 20) //nolint:errcheck // stalls just waste the slot
			}
		}
		for c := 0; c < 2000; c++ { // warm up: fill pipelines and buffers
			issue()
			m.Tick()
		}
		allocs := testing.AllocsPerRun(500, func() {
			issue()
			m.Tick()
		})
		if allocs != 0 {
			t.Fatalf("steady-state tick allocates %.2f objects/cycle, want 0", allocs)
		}
	})
}
