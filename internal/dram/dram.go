// Package dram models the banked DRAM substrate beneath the VPNM
// controller (Section 3.1 of the paper). Modern DRAM exposes internal
// banks so accesses can be interleaved; a bank conflict occurs when two
// accesses need different rows of the same bank, and the loser is
// delayed by L cycles, where L is the ratio of bank access time to data
// transfer time (the paper conservatively uses L = 20).
//
// The model separates timing (per-bank occupancy timers plus a
// one-transfer-per-cycle bus) from contents (a sparse word store), both
// advanced in integral memory-bus cycles so simulations are exactly
// reproducible.
package dram

import "fmt"

// ReadStatus classifies the integrity of a read's data after the
// fault-injection / ECC hook has processed it.
type ReadStatus int

const (
	// ReadOK means the data passed through unmodified, or was never
	// touched by a hook.
	ReadOK ReadStatus = iota
	// ReadCorrected means the hook detected an error and repaired it;
	// the returned data is clean.
	ReadCorrected
	// ReadUncorrectable means the hook detected an error it could not
	// repair; the returned data must not be trusted.
	ReadUncorrectable
)

// Hook lets a fault-injection / ECC layer interpose on the module's
// data and timing paths (package fault implements it). Every method is
// called synchronously from IssueRead/IssueWrite in deterministic
// order, so a seeded hook keeps simulations exactly reproducible.
type Hook interface {
	// OnWrite observes every stored word in issue order, already padded
	// to the full word size; an ECC layer computes check bits here.
	OnWrite(bank int, addr uint64, data []byte)
	// OnRead receives a private copy of the stored word. It may mutate
	// the copy in place (transient bit flips, stuck data lines) and then
	// check/correct it (ECC), classifying the outcome.
	OnRead(bank int, addr uint64, data []byte) ReadStatus
	// AccessExtra returns extra bank-occupancy cycles for the access
	// starting at memory cycle now — the "slow bank" fault. The VPNM
	// fixed-delay guarantee only survives if the extra is bounded and
	// the controller's Delay carries matching headroom (see
	// core.Config.AutoDelayWithSlack).
	AccessExtra(bank int, addr uint64, now uint64) uint64
}

// Config describes a DRAM module.
type Config struct {
	// Banks is the number of independently accessible banks (B).
	Banks int
	// AccessLatency is the bank occupancy per access in memory-bus
	// cycles (L): the number of transfer slots that must pass before the
	// same bank can start another access.
	AccessLatency int
	// WordBytes is the data transferred per access (one transfer slot).
	WordBytes int
	// RowHitLatency, when positive, enables an open-row model: each
	// bank keeps its last-accessed row open, and an access to the same
	// row costs only RowHitLatency cycles instead of AccessLatency.
	// The VPNM analysis conservatively ignores row hits (its universal
	// hash destroys spatial locality anyway); the conventional-baseline
	// experiments use this to quantify the common-case latency VPNM
	// gives up for its worst-case guarantee.
	RowHitLatency int
	// RowWords is the open-row size in words (power of two); word
	// addresses in the same aligned RowWords block share a row. Only
	// meaningful when RowHitLatency > 0. Zero selects 128 words.
	RowWords int
	// Hook optionally interposes a fault-injection / ECC layer on every
	// access. Nil leaves the module fault-free (the seed behaviour).
	Hook Hook
	// Store optionally supplies the content store, shared with other
	// modules that own disjoint addresses; its word size must equal
	// WordBytes. Nil gives the module a private store.
	Store *Store
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Banks < 1 {
		return fmt.Errorf("dram: Banks must be >= 1, got %d", c.Banks)
	}
	if c.Banks&(c.Banks-1) != 0 {
		return fmt.Errorf("dram: Banks must be a power of two for bank-bit mapping, got %d", c.Banks)
	}
	if c.AccessLatency < 1 {
		return fmt.Errorf("dram: AccessLatency must be >= 1, got %d", c.AccessLatency)
	}
	if c.WordBytes < 1 {
		return fmt.Errorf("dram: WordBytes must be >= 1, got %d", c.WordBytes)
	}
	if c.RowHitLatency < 0 || c.RowHitLatency > c.AccessLatency {
		return fmt.Errorf("dram: RowHitLatency %d must be in [0, AccessLatency=%d]", c.RowHitLatency, c.AccessLatency)
	}
	if c.RowWords < 0 || (c.RowWords > 0 && c.RowWords&(c.RowWords-1) != 0) {
		return fmt.Errorf("dram: RowWords must be a power of two, got %d", c.RowWords)
	}
	if c.Store != nil && c.Store.WordBytes() != c.WordBytes {
		return fmt.Errorf("dram: Store word size %d differs from WordBytes %d", c.Store.WordBytes(), c.WordBytes)
	}
	return nil
}

// rowWords returns the effective open-row size.
func (c Config) rowWords() int {
	if c.RowWords == 0 {
		return 128
	}
	return c.RowWords
}

// Module is the timing model of one DRAM module: per-bank busy timers.
// Bus arbitration is the scheduler's job (package core); the module only
// enforces that a bank services one access at a time and takes L cycles
// per access.
type Module struct {
	cfg     Config
	freeAt  []uint64 // first memory cycle at which each bank can start a new access
	openRow []uint64 // last-accessed row per bank (open-row model)
	rowInit []bool   // whether openRow is meaningful yet
	store   *Store
	scratch []byte // private copy handed to the hook; valid until the next IssueRead

	populated     int // distinct words this module wrote (a shared store counts everyone's)
	accesses      uint64
	rowHits       uint64
	conflicts     uint64 // issue attempts that found the bank busy
	corrected     uint64 // reads the hook repaired (ECC single-bit)
	uncorrectable uint64 // reads the hook poisoned (ECC multi-bit)
}

// NewModule returns a module with all banks idle and empty contents.
func NewModule(cfg Config) (*Module, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	store := cfg.Store
	if store == nil {
		store = NewStore(cfg.WordBytes)
	}
	return &Module{
		cfg:     cfg,
		freeAt:  make([]uint64, cfg.Banks),
		openRow: make([]uint64, cfg.Banks),
		rowInit: make([]bool, cfg.Banks),
		store:   store,
	}, nil
}

// Config returns the module configuration.
func (m *Module) Config() Config { return m.cfg }

// Store exposes the content store (used by tests and by controllers that
// need to pre-load memory images). It may be shared with other modules.
func (m *Module) Store() *Store { return m.store }

// Populated reports the number of distinct words this module has
// written — its share of the store, whichever modules share it.
func (m *Module) Populated() int { return m.populated }

// BankFree reports whether bank can start an access at memory cycle now.
func (m *Module) BankFree(bank int, now uint64) bool {
	return now >= m.freeAt[bank]
}

// BankFreeAt reports the first cycle at which bank can start an access.
func (m *Module) BankFreeAt(bank int) uint64 { return m.freeAt[bank] }

// latencyFor applies the open-row model (when enabled) and records the
// newly open row.
func (m *Module) latencyFor(bank int, addr uint64) uint64 {
	if m.cfg.RowHitLatency == 0 {
		return uint64(m.cfg.AccessLatency)
	}
	row := addr / uint64(m.cfg.rowWords())
	if m.rowInit[bank] && m.openRow[bank] == row {
		m.rowHits++
		return uint64(m.cfg.RowHitLatency)
	}
	m.openRow[bank] = row
	m.rowInit[bank] = true
	return uint64(m.cfg.AccessLatency)
}

// IssueRead starts a read of addr on bank at memory cycle now. It
// returns the cycle at which the data word is available, the data
// itself (the simulator transfers the word logically at completion) and
// the integrity status assigned by the fault/ECC hook (ReadOK when no
// hook is attached). With a hook the returned data is a private scratch
// copy valid until the next IssueRead. It panics if the bank is busy:
// the bank controller must check BankFree first, exactly as the
// hardware scheduler does.
func (m *Module) IssueRead(bank int, addr uint64, now uint64) (doneAt uint64, data []byte, status ReadStatus) {
	m.checkIssue(bank, now)
	lat := m.latencyFor(bank, addr)
	if m.cfg.Hook != nil {
		lat += m.cfg.Hook.AccessExtra(bank, addr, now)
	}
	m.freeAt[bank] = now + lat
	m.accesses++
	data = m.store.Read(addr)
	if m.cfg.Hook != nil {
		m.scratch = append(m.scratch[:0], data...)
		data = m.scratch
		status = m.cfg.Hook.OnRead(bank, addr, data)
		switch status {
		case ReadCorrected:
			m.corrected++
		case ReadUncorrectable:
			m.uncorrectable++
		}
	}
	return m.freeAt[bank], data, status
}

// IssueWrite starts a write of data to addr on bank at memory cycle now
// and returns the cycle at which the bank becomes free again.
func (m *Module) IssueWrite(bank int, addr uint64, data []byte, now uint64) (doneAt uint64) {
	m.checkIssue(bank, now)
	lat := m.latencyFor(bank, addr)
	if m.cfg.Hook != nil {
		lat += m.cfg.Hook.AccessExtra(bank, addr, now)
	}
	m.freeAt[bank] = now + lat
	m.accesses++
	if m.store.Write(addr, data) {
		m.populated++
	}
	if m.cfg.Hook != nil {
		// The hook sees the stored (zero-padded) word so ECC check bits
		// always cover the full word.
		m.cfg.Hook.OnWrite(bank, addr, m.store.Read(addr))
	}
	return m.freeAt[bank]
}

// Corrected reports reads whose data the hook repaired in flight.
func (m *Module) Corrected() uint64 { return m.corrected }

// Uncorrectable reports reads whose data the hook flagged as beyond
// repair.
func (m *Module) Uncorrectable() uint64 { return m.uncorrectable }

// RowHits reports open-row hits (0 unless the open-row model is on).
func (m *Module) RowHits() uint64 { return m.rowHits }

func (m *Module) checkIssue(bank int, now uint64) {
	if bank < 0 || bank >= m.cfg.Banks {
		panic(fmt.Sprintf("dram: bank %d out of range [0,%d)", bank, m.cfg.Banks))
	}
	if now < m.freeAt[bank] {
		m.conflicts++
		panic(fmt.Sprintf("dram: issue to busy bank %d at cycle %d (free at %d)", bank, now, m.freeAt[bank]))
	}
}

// Accesses reports the total number of issued accesses.
func (m *Module) Accesses() uint64 { return m.accesses }
