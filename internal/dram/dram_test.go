package dram

import (
	"bytes"
	"testing"
	"testing/quick"
)

func testConfig() Config {
	return Config{Banks: 4, AccessLatency: 20, WordBytes: 8}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"valid", Config{Banks: 4, AccessLatency: 20, WordBytes: 8}, true},
		{"one bank", Config{Banks: 1, AccessLatency: 1, WordBytes: 1}, true},
		{"zero banks", Config{Banks: 0, AccessLatency: 20, WordBytes: 8}, false},
		{"non power of two", Config{Banks: 3, AccessLatency: 20, WordBytes: 8}, false},
		{"zero latency", Config{Banks: 4, AccessLatency: 0, WordBytes: 8}, false},
		{"zero word", Config{Banks: 4, AccessLatency: 20, WordBytes: 0}, false},
	}
	for _, tc := range cases {
		if err := tc.cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestModuleBankTiming(t *testing.T) {
	m, err := NewModule(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !m.BankFree(0, 0) {
		t.Fatal("fresh bank should be free")
	}
	doneAt, _, _ := m.IssueRead(0, 100, 0)
	if doneAt != 20 {
		t.Fatalf("doneAt = %d want 20", doneAt)
	}
	for now := uint64(1); now < 20; now++ {
		if m.BankFree(0, now) {
			t.Fatalf("bank 0 should be busy at %d", now)
		}
	}
	if !m.BankFree(0, 20) {
		t.Fatal("bank 0 should be free at L")
	}
	// Other banks are independent.
	if !m.BankFree(1, 5) {
		t.Fatal("bank 1 should be unaffected")
	}
	if m.Accesses() != 1 {
		t.Fatalf("Accesses = %d want 1", m.Accesses())
	}
}

func TestModuleIssueToBusyBankPanics(t *testing.T) {
	m, _ := NewModule(testConfig())
	m.IssueRead(2, 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("issue to busy bank should panic")
		}
	}()
	m.IssueRead(2, 2, 5)
}

func TestModuleIssueOutOfRangePanics(t *testing.T) {
	m, _ := NewModule(testConfig())
	for _, bank := range []int{-1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bank %d should panic", bank)
				}
			}()
			m.IssueRead(bank, 0, 0)
		}()
	}
}

func TestModuleReadAfterWrite(t *testing.T) {
	m, _ := NewModule(testConfig())
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	m.IssueWrite(0, 42, data, 0)
	_, got, _ := m.IssueRead(0, 42, 20)
	if !bytes.Equal(got, data) {
		t.Fatalf("read %v want %v", got, data)
	}
}

func TestStoreZeroDefault(t *testing.T) {
	s := NewStore(4)
	if got := s.Read(123); !bytes.Equal(got, []byte{0, 0, 0, 0}) {
		t.Fatalf("unwritten word = %v want zeros", got)
	}
	if s.Populated() != 0 {
		t.Fatal("Read must not populate")
	}
}

func TestStoreShortWritePads(t *testing.T) {
	s := NewStore(4)
	s.Write(1, []byte{0xAA, 0xBB, 0xCC, 0xDD})
	s.Write(1, []byte{0x11}) // short rewrite must zero the tail
	if got := s.Read(1); !bytes.Equal(got, []byte{0x11, 0, 0, 0}) {
		t.Fatalf("short write = %v want [11 0 0 0]", got)
	}
}

func TestStoreLongWritePanics(t *testing.T) {
	s := NewStore(2)
	defer func() {
		if recover() == nil {
			t.Fatal("oversized write should panic")
		}
	}()
	s.Write(0, []byte{1, 2, 3})
}

func TestStoreReadWriteProperty(t *testing.T) {
	f := func(addrs []uint64, val uint8) bool {
		s := NewStore(8)
		want := make(map[uint64][]byte)
		for i, a := range addrs {
			b := []byte{val + uint8(i), uint8(i)}
			s.Write(a, b)
			w := make([]byte, 8)
			copy(w, b)
			want[a] = w
		}
		for a, w := range want {
			if !bytes.Equal(s.Read(a), w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestStoreSlabGrowthKeepsAliases writes pages across several slab
// boundaries, scattered so pages fill out of address order, and checks
// that a slice Read returned early still aliases its word afterwards:
// slabs are never moved.
func TestStoreSlabGrowthKeepsAliases(t *testing.T) {
	s := NewStore(2)
	if !s.Write(7, []byte{1, 1}) {
		t.Fatal("first write of a word not reported fresh")
	}
	early := s.Read(7)
	const pages = 3*pagesPerSlab + 5
	addr := func(i uint64) uint64 { return (i*37%pages+1)*pageWords*3 + i%pageWords }
	for i := uint64(0); i < pages; i++ {
		a := addr(i)
		if !s.Write(a, []byte{byte(a), byte(a >> 8)}) {
			t.Fatalf("first write of word %d not reported fresh", a)
		}
	}
	if s.Populated() != pages+1 {
		t.Fatalf("Populated = %d, want %d", s.Populated(), pages+1)
	}
	for i := uint64(0); i < pages; i++ {
		if a, got := addr(i), s.Read(addr(i)); got[0] != byte(a) || got[1] != byte(a>>8) {
			t.Fatalf("word %d = %v after growth", a, got)
		}
	}
	if s.Write(7, []byte{9, 9}) {
		t.Fatal("rewrite of a word reported fresh")
	}
	if early[0] != 9 || &early[0] != &s.Read(7)[0] {
		t.Fatalf("early slice %v no longer aliases the stored word", early)
	}
	if s.Populated() != pages+1 {
		t.Fatalf("rewrite changed Populated to %d", s.Populated())
	}
}

// TestStoreUnwrittenNeighbourReadsZero: writing one word allocates its
// whole page, but the page's other words still read as the shared zero
// word and are not counted as populated.
func TestStoreUnwrittenNeighbourReadsZero(t *testing.T) {
	s := NewStore(4)
	s.Write(pageWords+5, []byte{1, 2, 3, 4})
	for _, a := range []uint64{pageWords, pageWords + 4, pageWords + 6, 2*pageWords - 1} {
		if got := s.Read(a); !bytes.Equal(got, []byte{0, 0, 0, 0}) || &got[0] != &s.zero[0] {
			t.Fatalf("unwritten neighbour %d = %v, want the shared zero word", a, got)
		}
	}
	if s.Populated() != 1 {
		t.Fatalf("Populated = %d, want 1", s.Populated())
	}
}

// TestModuleSharedStoreCountsOwnWords: modules sharing one store and
// owning disjoint addresses (odd and even, here) each count the
// distinct words they wrote, and the counts sum to the store's.
func TestModuleSharedStoreCountsOwnWords(t *testing.T) {
	store := NewStore(4)
	a, err := NewModule(Config{Banks: 1, AccessLatency: 1, WordBytes: 4, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewModule(Config{Banks: 1, AccessLatency: 1, WordBytes: 4, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	now := uint64(0)
	for i := uint64(0); i < 100; i++ {
		m, addr := a, i%40 // 40 words, rewritten
		if addr%2 == 1 {
			m = b
		}
		m.IssueWrite(0, addr, []byte{byte(i)}, now)
		now++
	}
	if a.Populated() != 20 || b.Populated() != 20 || store.Populated() != 40 {
		t.Fatalf("populated a=%d b=%d store=%d, want 20+20 = 40", a.Populated(), b.Populated(), store.Populated())
	}
	if _, err := NewModule(Config{Banks: 1, AccessLatency: 1, WordBytes: 8, Store: store}); err == nil {
		t.Fatal("a store of another word size was accepted")
	}
}

func TestPresets(t *testing.T) {
	ps := Presets()
	if len(ps) < 4 {
		t.Fatalf("want >= 4 presets, got %d", len(ps))
	}
	for _, p := range ps {
		if err := p.Config.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", p.Name, err)
		}
		if p.Config.AccessLatency != 20 {
			t.Errorf("preset %s: L = %d, paper uses 20", p.Name, p.Config.AccessLatency)
		}
	}
	if p, ok := PresetByName("rdram-rimm"); !ok || p.Config.Banks != 512 {
		t.Errorf("rdram-rimm: ok=%v banks=%d want 512", ok, p.Config.Banks)
	}
	if _, ok := PresetByName("nope"); ok {
		t.Error("unknown preset should not resolve")
	}
}

func TestOpenRowModel(t *testing.T) {
	m, err := NewModule(Config{Banks: 4, AccessLatency: 20, WordBytes: 8, RowHitLatency: 4, RowWords: 8})
	if err != nil {
		t.Fatal(err)
	}
	// First access opens the row: full latency.
	doneAt, _, _ := m.IssueRead(0, 0, 0)
	if doneAt != 20 {
		t.Fatalf("cold access doneAt = %d want 20", doneAt)
	}
	// Same row (addr 1 within words 0..7): hit latency.
	doneAt, _, _ = m.IssueRead(0, 1, 20)
	if doneAt != 24 {
		t.Fatalf("row hit doneAt = %d want 24", doneAt)
	}
	// Different row (addr 8): full latency again.
	doneAt, _, _ = m.IssueRead(0, 8, 24)
	if doneAt != 44 {
		t.Fatalf("row miss doneAt = %d want 44", doneAt)
	}
	if m.RowHits() != 1 {
		t.Fatalf("row hits = %d want 1", m.RowHits())
	}
	// Banks have independent open rows.
	doneAt, _, _ = m.IssueRead(1, 1, 0)
	if doneAt != 20 {
		t.Fatalf("other bank cold access doneAt = %d want 20", doneAt)
	}
}

func TestOpenRowDisabledByDefault(t *testing.T) {
	m, _ := NewModule(testConfig())
	m.IssueRead(0, 0, 0)
	doneAt, _, _ := m.IssueRead(0, 1, 20)
	if doneAt != 40 {
		t.Fatalf("without open-row model doneAt = %d want 40", doneAt)
	}
	if m.RowHits() != 0 {
		t.Fatal("row hits counted with model disabled")
	}
}

func TestOpenRowConfigValidation(t *testing.T) {
	bad := []Config{
		{Banks: 4, AccessLatency: 20, WordBytes: 8, RowHitLatency: 21},
		{Banks: 4, AccessLatency: 20, WordBytes: 8, RowHitLatency: -1},
		{Banks: 4, AccessLatency: 20, WordBytes: 8, RowHitLatency: 4, RowWords: 3},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

// recordingHook counts calls and applies a scripted mutation/status.
type recordingHook struct {
	writes, reads []uint64
	extra         uint64
	status        ReadStatus
	mutate        func(data []byte)
}

func (h *recordingHook) OnWrite(bank int, addr uint64, data []byte) {
	h.writes = append(h.writes, addr)
}

func (h *recordingHook) OnRead(bank int, addr uint64, data []byte) ReadStatus {
	h.reads = append(h.reads, addr)
	if h.mutate != nil {
		h.mutate(data)
	}
	return h.status
}

func (h *recordingHook) AccessExtra(bank int, addr uint64, now uint64) uint64 { return h.extra }

func TestHookObservesAccesses(t *testing.T) {
	h := &recordingHook{}
	cfg := testConfig()
	cfg.Hook = h
	m, err := NewModule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.IssueWrite(0, 7, []byte{1}, 0)
	_, _, status := m.IssueRead(0, 7, 20)
	if status != ReadOK {
		t.Fatalf("status = %v want ReadOK", status)
	}
	if len(h.writes) != 1 || h.writes[0] != 7 || len(h.reads) != 1 || h.reads[0] != 7 {
		t.Fatalf("hook saw writes=%v reads=%v", h.writes, h.reads)
	}
}

func TestHookWriteSeesPaddedWord(t *testing.T) {
	var got []byte
	cfg := testConfig()
	cfg.Hook = hookFunc{onWrite: func(data []byte) { got = append([]byte(nil), data...) }}
	m, _ := NewModule(cfg)
	m.IssueWrite(0, 7, []byte{0xAB}, 0)
	want := []byte{0xAB, 0, 0, 0, 0, 0, 0, 0}
	if !bytes.Equal(got, want) {
		t.Fatalf("OnWrite saw %v want %v", got, want)
	}
}

type hookFunc struct {
	onWrite func(data []byte)
}

func (h hookFunc) OnWrite(bank int, addr uint64, data []byte)           { h.onWrite(data) }
func (h hookFunc) OnRead(bank int, addr uint64, data []byte) ReadStatus { return ReadOK }
func (h hookFunc) AccessExtra(bank int, addr uint64, now uint64) uint64 { return 0 }

func TestHookMutatesPrivateCopyOnly(t *testing.T) {
	h := &recordingHook{mutate: func(data []byte) { data[0] ^= 0xFF }, status: ReadCorrected}
	cfg := testConfig()
	cfg.Hook = h
	m, _ := NewModule(cfg)
	m.IssueWrite(0, 5, []byte{0x11, 0x22}, 0)
	_, data, status := m.IssueRead(0, 5, 20)
	if status != ReadCorrected {
		t.Fatalf("status = %v want ReadCorrected", status)
	}
	if data[0] != 0x11^0xFF {
		t.Fatalf("returned data not mutated: %v", data)
	}
	if stored := m.Store().Read(5); stored[0] != 0x11 {
		t.Fatalf("stored word mutated: %v", stored)
	}
	if m.Corrected() != 1 || m.Uncorrectable() != 0 {
		t.Fatalf("counters corrected=%d uncorrectable=%d", m.Corrected(), m.Uncorrectable())
	}
}

func TestHookUncorrectableCounted(t *testing.T) {
	h := &recordingHook{status: ReadUncorrectable}
	cfg := testConfig()
	cfg.Hook = h
	m, _ := NewModule(cfg)
	m.IssueRead(0, 1, 0)
	if m.Uncorrectable() != 1 {
		t.Fatalf("uncorrectable = %d want 1", m.Uncorrectable())
	}
}

func TestHookAccessExtraInflatesOccupancy(t *testing.T) {
	h := &recordingHook{extra: 13}
	cfg := testConfig()
	cfg.Hook = h
	m, _ := NewModule(cfg)
	doneAt, _, _ := m.IssueRead(0, 0, 0)
	if doneAt != 20+13 {
		t.Fatalf("slow read doneAt = %d want 33", doneAt)
	}
	doneAt = m.IssueWrite(1, 0, []byte{1}, 0)
	if doneAt != 33 {
		t.Fatalf("slow write doneAt = %d want 33", doneAt)
	}
}
