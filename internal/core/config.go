// Package core implements the paper's primary contribution: the
// virtually pipelined network memory (VPNM) controller. The controller
// presents banked DRAM as a flat, deeply pipelined memory — every read
// issued on interface cycle t delivers its data on cycle t+D for a fixed
// D — while internally it randomizes addresses over banks with a
// universal hash, queues and reorders accesses per bank, and merges
// redundant requests, so that bank conflicts are invisible except for
// provably rare stalls.
package core

import (
	"fmt"

	"repro/internal/coded"
	"repro/internal/dram"
	"repro/internal/hash"
	"repro/internal/telemetry"
)

// Default microarchitectural parameters. The defaults follow the
// paper's running example: L = 20 from the Samsung RDRAM datasheet, and
// the B=32, Q=24, K=48, R=1.3 design point from Table 2.
const (
	DefaultBanks         = 32
	DefaultAccessLatency = 20
	DefaultQueueDepth    = 24
	DefaultDelayRows     = 48
	DefaultWordBytes     = 64
	DefaultHashLatency   = 4
	DefaultCounterBits   = 16
)

// Config holds every architectural parameter of the controller,
// mirroring Table 1 of the paper.
type Config struct {
	// Banks is B, the number of banks (and bank controllers). Must be a
	// power of two so the hashed bank index is a bit field.
	Banks int
	// AccessLatency is L, the bank occupancy per access in memory-bus
	// cycles (the ratio of bank access time to data transfer time).
	AccessLatency int
	// QueueDepth is Q, the number of entries in each bank access queue.
	QueueDepth int
	// DelayRows is K, the number of rows in each delay storage buffer.
	DelayRows int
	// WriteBufferDepth is the write buffer FIFO depth. Zero selects the
	// paper's choice of half the bank access queue size (at least 1).
	WriteBufferDepth int
	// RatioNum/RatioDen is R, the bus scaling ratio: the memory side
	// runs R times faster than the interface side so that idle slots do
	// not accumulate. R must be >= 1 (the paper studies 1.0–1.5).
	RatioNum, RatioDen int
	// WordBytes is the data word width W in bytes.
	WordBytes int
	// HashLatency is the (fully pipelined) universal hash unit latency
	// in interface cycles; it is folded into the normalized delay D.
	HashLatency int
	// CounterBits is C, the width of the per-row redundant-request
	// counter. A row whose counter saturates stalls further merges.
	CounterBits int
	// Delay optionally overrides the normalized delay D (in interface
	// cycles). Zero selects the safe automatic value; see AutoDelay.
	Delay int
	// HashSeed keys the universal hash. Two controllers with the same
	// seed map addresses identically, which tests rely on.
	HashSeed uint64
	// Hash optionally supplies the bank-mapping hash function. Nil
	// selects an H3 universal hash over log2(Banks) bits keyed by
	// HashSeed. The FCFS-style experiments pass hash.NewIdentity to
	// model a conventional bank-interleaved controller.
	Hash hash.Func
	// RekeyWindow and RekeyThreshold arm the re-keying trigger of
	// Section 4: NeedsRekey reports true once more than RekeyThreshold
	// stalls land within RekeyWindow interface cycles. Zero in either
	// field disables the policy.
	RekeyWindow    uint64
	RekeyThreshold uint64
	// Trace optionally receives the controller's internal events (see
	// Tracer). Nil disables tracing.
	Trace Tracer
	// Probe optionally observes the controller: one telemetry.TickSample
	// per interface cycle (one per idle span from SkipIdle) carrying the
	// per-cycle distributions' inputs, and a telemetry.Ledger of gauges
	// and cumulative counts whenever PublishProbe is called. Nil
	// disables sampling entirely — the hot path is bit-for-bit the same
	// as before the field existed, which the differential test and the
	// 0 allocs/op benchmark pin.
	Probe telemetry.Probe
	// DualPort, when true, accepts one read AND one write per interface
	// cycle instead of a single request — the configuration Section
	// 5.4.1's packet buffering assumes ("one write access and one read
	// access"). Deliveries stay at one per cycle (only reads complete on
	// the interface), but the memory side must absorb up to twice the
	// request rate, so dual-port designs want the larger Table 2
	// geometries.
	DualPort bool
	// Fault optionally interposes a fault-injection / ECC hook between
	// the bank controllers and the DRAM model (package fault implements
	// it). When the hook can inflate bank occupancy ("slow bank"
	// faults), Delay must carry matching headroom: leave Delay zero and
	// set it from AutoDelayWithSlack, or the delivery invariant will
	// (deliberately) trip on late data.
	Fault dram.Hook
	// Store optionally supplies the DRAM content store, shared with other
	// controllers that own disjoint addresses (multichannel.New shares
	// one across its channels). Nil gives the controller a private one.
	Store *dram.Store
	// DenseScan, when true, selects the dense reference implementation
	// of Tick: the original O(Banks)-per-cycle full-bank scans instead
	// of the event-driven active-set bookkeeping. The two paths operate
	// on the same state and are cycle-for-cycle bit-identical (the
	// differential tests enforce it); DenseScan exists for those tests
	// and for the gated sparse/dense benchmark pair, not for production
	// use.
	DenseScan bool
	// Coded enables XOR-parity bank groups (package coded): the banks are
	// partitioned into groups of Coded.Group data banks, each with a
	// parity replica maintained write-through, and the interface accepts
	// up to Coded.K reads per cycle whenever direct bank ports and
	// parity-decode combinations cover the candidate set. Addresses are
	// striped — the hash places whole stripes (codewords), not individual
	// words, so the words of one stripe always land on distinct banks of
	// one group. The zero Geometry keeps the paper's single-read
	// interface, bit-for-bit.
	Coded coded.Geometry
	// StrictRoundRobin, when true, restricts the memory-side bus to the
	// paper's simple scheduler in which bank b may only issue on memory
	// cycles congruent to b mod Banks, so unused slots are wasted. The
	// default (false) is the work-conserving split-bus variant the paper
	// says removes that inefficiency, and is what the Section 5
	// mathematical analysis assumes.
	StrictRoundRobin bool
}

// withDefaults returns a copy with zero fields replaced by defaults.
func (c Config) withDefaults() Config {
	if c.Banks == 0 {
		c.Banks = DefaultBanks
	}
	if c.AccessLatency == 0 {
		c.AccessLatency = DefaultAccessLatency
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.DelayRows == 0 {
		c.DelayRows = DefaultDelayRows
	}
	if c.WriteBufferDepth == 0 {
		c.WriteBufferDepth = (c.QueueDepth + 1) / 2
		if c.WriteBufferDepth < 1 {
			c.WriteBufferDepth = 1
		}
	}
	if c.RatioNum == 0 && c.RatioDen == 0 {
		c.RatioNum, c.RatioDen = 13, 10 // R = 1.3, the paper's headline point
	}
	if c.WordBytes == 0 {
		c.WordBytes = DefaultWordBytes
	}
	if c.HashLatency == 0 {
		c.HashLatency = DefaultHashLatency
	}
	if c.CounterBits == 0 {
		c.CounterBits = DefaultCounterBits
	}
	if c.Delay == 0 {
		c.Delay = c.AutoDelay()
	}
	return c
}

// AutoDelay returns the automatic normalized delay D for the
// configuration: a bound on the interface cycles needed for the worst
// admissible request to finish, so that a request admitted without a
// stall is always ready at its delivery slot. Each of the up-to-Q
// queued accesses ahead of a new request occupies its bank for L memory
// cycles and may wait up to B memory cycles for a bus grant, the memory
// side runs R times faster than the interface, and the hash pipeline
// adds HashLatency. For the paper's Table 2 point (B=32, Q=24, L=20,
// R=1.3) this evaluates to ~1004 cycles, matching the paper's
// observation that normalizing D to about 1000 ns is more than enough.
func (c Config) AutoDelay() int {
	cc := c
	if cc.Banks == 0 {
		cc.Banks = DefaultBanks
	}
	if cc.AccessLatency == 0 {
		cc.AccessLatency = DefaultAccessLatency
	}
	if cc.QueueDepth == 0 {
		cc.QueueDepth = DefaultQueueDepth
	}
	if cc.RatioNum == 0 && cc.RatioDen == 0 {
		cc.RatioNum, cc.RatioDen = 13, 10
	}
	if cc.HashLatency == 0 {
		cc.HashLatency = DefaultHashLatency
	}
	memCycles := (cc.QueueDepth + 1) * (cc.AccessLatency + cc.Banks)
	ifCycles := (memCycles*cc.RatioDen + cc.RatioNum - 1) / cc.RatioNum
	return ifCycles + cc.HashLatency
}

// AutoDelayWithSlack returns AutoDelay computed as if every bank access
// took extra additional memory cycles: the delay headroom needed to
// keep the fixed-D guarantee when a fault hook can inflate bank
// occupancy by at most extra cycles per access (fault.Config's
// SlowBankExtra).
func (c Config) AutoDelayWithSlack(extra int) int {
	cc := c
	if cc.AccessLatency == 0 {
		cc.AccessLatency = DefaultAccessLatency
	}
	cc.AccessLatency += extra
	cc.Delay = 0
	return cc.AutoDelay()
}

// Ratio returns R as a float for reporting.
func (c Config) Ratio() float64 { return float64(c.RatioNum) / float64(c.RatioDen) }

// Validate reports whether the (default-filled) configuration is
// internally consistent.
func (c Config) Validate() error {
	if c.Banks < 1 || c.Banks&(c.Banks-1) != 0 {
		return fmt.Errorf("core: Banks must be a positive power of two, got %d", c.Banks)
	}
	if c.AccessLatency < 1 {
		return fmt.Errorf("core: AccessLatency must be >= 1, got %d", c.AccessLatency)
	}
	if c.QueueDepth < 1 {
		return fmt.Errorf("core: QueueDepth must be >= 1, got %d", c.QueueDepth)
	}
	if c.DelayRows < 1 {
		return fmt.Errorf("core: DelayRows must be >= 1, got %d", c.DelayRows)
	}
	if c.WriteBufferDepth < 1 {
		return fmt.Errorf("core: WriteBufferDepth must be >= 1, got %d", c.WriteBufferDepth)
	}
	if c.RatioNum < 1 || c.RatioDen < 1 {
		return fmt.Errorf("core: bus ratio %d/%d must have positive terms", c.RatioNum, c.RatioDen)
	}
	if c.RatioNum < c.RatioDen {
		return fmt.Errorf("core: bus scaling ratio R = %d/%d must be >= 1", c.RatioNum, c.RatioDen)
	}
	if c.WordBytes < 1 {
		return fmt.Errorf("core: WordBytes must be >= 1, got %d", c.WordBytes)
	}
	if c.HashLatency < 0 {
		return fmt.Errorf("core: HashLatency must be >= 0, got %d", c.HashLatency)
	}
	if c.CounterBits < 1 || c.CounterBits > 32 {
		return fmt.Errorf("core: CounterBits must be in [1,32], got %d", c.CounterBits)
	}
	if min := c.minDelay(); c.Delay < min {
		return fmt.Errorf("core: Delay %d is below the safe minimum %d for this configuration (use AutoDelay)", c.Delay, min)
	}
	if err := c.Coded.Validate(c.Banks); err != nil {
		return err
	}
	if c.Coded.Enabled() && c.Coded.Group == c.Banks && c.Banks > 1 {
		// One group means one hash bit would address two groups; with a
		// single group the hash degenerates to the constant 0, which the
		// H3 constructor rejects. Keep at least two groups.
		return fmt.Errorf("core: coded Group %d must leave at least two groups over %d banks", c.Coded.Group, c.Banks)
	}
	if c.Hash != nil && (1<<c.Hash.Bits()) < c.hashSlots() {
		return fmt.Errorf("core: hash output width %d bits cannot address %d %s", c.Hash.Bits(), c.hashSlots(), c.hashUnit())
	}
	return nil
}

// minDelay is the smallest D for which the delivery invariant can be
// proven: the worst admissible backlog of Q accesses, each paying its
// bank occupancy L plus a worst-case bus grant wait of B memory cycles,
// converted to interface cycles, plus the hash pipeline.
func (c Config) minDelay() int {
	memCycles := (c.QueueDepth + 1) * (c.AccessLatency + c.Banks)
	return (memCycles*c.RatioDen+c.RatioNum-1)/c.RatioNum + c.HashLatency
}

// bankBits returns log2(Banks).
func (c Config) bankBits() int {
	b := 0
	for 1<<b < c.Banks {
		b++
	}
	return b
}

// hashSlots is the number of placement targets the hash must address:
// parity groups when coding is enabled (the hash places whole stripes
// into groups; the lane bits pick the bank within the group), banks
// otherwise.
func (c Config) hashSlots() int {
	if c.Coded.Enabled() {
		return c.Coded.Groups(c.Banks)
	}
	return c.Banks
}

// hashUnit names hashSlots for error messages.
func (c Config) hashUnit() string {
	if c.Coded.Enabled() {
		return "groups"
	}
	return "banks"
}

// hashBits returns log2(hashSlots): the width of the hash the
// controller builds when Config.Hash is nil, and the width Rekey
// rebuilds.
func (c Config) hashBits() int {
	b := 0
	for 1<<b < c.hashSlots() {
		b++
	}
	return b
}
