package telemetry

import "strconv"

// StallCause enumerates the controller's stall conditions (Section 4.3
// of the paper) for metric labelling. The order matches
// core.StallCounts field order.
type StallCause int

// Stall causes, in core.StallCounts order.
const (
	CauseDelayBuffer StallCause = iota
	CauseBankQueue
	CauseWriteBuffer
	CauseCounter
	// CausePort is the coded-mode stall: the candidate read could be
	// covered by neither a direct bank port nor a parity-decode
	// combination this cycle (core.ErrStallCodedPort).
	CausePort
	NumStallCauses
)

// String returns the metric label value for the cause.
func (c StallCause) String() string {
	switch c {
	case CauseDelayBuffer:
		return "delay-buffer"
	case CauseBankQueue:
		return "bank-queue"
	case CauseWriteBuffer:
		return "write-buffer"
	case CauseCounter:
		return "counter"
	case CausePort:
		return "coded-port"
	default:
		return "other"
	}
}

// TickSample carries the inputs of the per-cycle distributions: the
// deepest bank queue (what the MTS estimator extrapolates from), delay
// storage buffer rows in use, and reads granted (up to K with coded
// banks). Tick publishes it with Cycles = 1; SkipIdle publishes one per
// idle span with Cycles = k, since k identical cycles are one
// observation of weight k. Cycle is the last cycle covered.
type TickSample struct {
	Cycle, Cycles                             uint64
	MaxBankQueue, DelayRowsInUse, CodedGrants int
}

// Ledger is a controller's scrape-time state, filled only by
// Controller.PublishProbe: occupancy totals (and the per-bank breakdown,
// valid only during Publish) plus the cumulative ledger copied from
// core.Stats, so a probe's counters reconcile against it exactly.
// Replays is Stats.Completions; the coded fields are zero without coded
// banks.
type Ledger struct {
	Cycle                                                            uint64
	QueueDepth, DelayRowsInUse, WriteBufInUse                        int
	PerBankQueue, PerBankRows                                        []int32
	Reads, Writes, MergedReads, Replays                              uint64
	Stalls                                                           [NumStallCauses]uint64
	CodedDecodes, CodedDecodeReads, CodedParityWrites, CodedRMWReads uint64
}

// Probe observes a controller whose Config.Probe is set. ObserveTick
// runs on the clock and must be allocation-free; Publish runs at scrape
// time on the controller's goroutine. Neither may retain its argument.
// A nil probe costs nothing, and the differential tests prove the nil
// path cycle-for-cycle identical to the probed one.
type Probe interface {
	ObserveTick(s *TickSample)
	Publish(l *Ledger)
}

// MemProbe is the standard Probe. On the clock it tallies the per-cycle
// distributions with plain adds (BenchmarkProbeOverhead pins the cost);
// Publish copies the Ledger into gauges and counters and folds the
// tallies into the histograms and the MTSEstimator, so every series it
// owns reads as of the last publish.
type MemProbe struct {
	cycle     *Gauge
	queue     *Gauge
	rows      *Gauge
	wb        *Gauge
	bankQueue []*Gauge
	bankRows  []*Gauge

	reads, writes, merged, replays *Counter
	stalls                         [NumStallCauses]*Counter

	occ  tally // delay-buffer occupancy per cycle
	maxQ tally // deepest single-bank queue per cycle; bucket i is depth i

	// Coded-mode series, nil until EnableCoded; ObserveTick and Publish
	// skip them while nil so uncoded probes pay nothing for the fields.
	codedDecodes, codedDecodeReads *Counter
	codedParityWrites, codedRMW    *Counter
	grants                         tally // arbiter grants per cycle

	est *MTSEstimator
}

// NewMemProbe registers a probe's series under reg with a channel
// label, including one queue-depth and one delay-rows gauge per bank.
// rowBound sizes the occupancy histogram (pass the configured
// Banks*DelayRows, or 0 for a generic range).
func NewMemProbe(reg *Registry, channel string, banks, queueDepth, rowBound int) *MemProbe {
	if rowBound <= 0 {
		rowBound = 256
	}
	if queueDepth <= 0 {
		queueDepth = 32
	}
	p := &MemProbe{
		cycle:     reg.Gauge("vpnm_cycle", "Interface cycles completed.", "channel", channel),
		queue:     reg.Gauge("vpnm_queue_depth", "Total bank access queue occupancy.", "channel", channel),
		rows:      reg.Gauge("vpnm_delay_rows_in_use", "Total delay storage buffer rows reserved.", "channel", channel),
		wb:        reg.Gauge("vpnm_write_buffer_in_use", "Total write buffer FIFO occupancy.", "channel", channel),
		reads:     reg.Counter("vpnm_reads_total", "Accepted read requests.", "channel", channel),
		writes:    reg.Counter("vpnm_writes_total", "Accepted write requests.", "channel", channel),
		merged:    reg.Counter("vpnm_merged_reads_total", "Reads satisfied by an existing delay storage buffer row.", "channel", channel),
		replays:   reg.Counter("vpnm_replays_total", "Playbacks delivered on the interface (completions).", "channel", channel),
		occ:       newTally(reg.Histogram("vpnm_occupancy_rows", "Per-cycle delay storage buffer occupancy (rows).", occupancyBounds(rowBound), "channel", channel)),
		maxQ:      newTally(reg.Histogram("vpnm_max_bank_queue_depth", "Per-cycle deepest bank access queue.", LinearBounds(0, 1, queueDepth+1), "channel", channel)),
		bankQueue: make([]*Gauge, banks),
		bankRows:  make([]*Gauge, banks),
	}
	for cause := StallCause(0); cause < NumStallCauses; cause++ {
		p.stalls[cause] = reg.Counter("vpnm_stalls_total", "Refused requests by stall cause.",
			"channel", channel, "cause", cause.String())
	}
	for b := 0; b < banks; b++ {
		bank := strconv.Itoa(b)
		p.bankQueue[b] = reg.Gauge("vpnm_bank_queue_depth", "Bank access queue occupancy.", "channel", channel, "bank", bank)
		p.bankRows[b] = reg.Gauge("vpnm_bank_delay_rows", "Delay storage buffer rows reserved in one bank.", "channel", channel, "bank", bank)
	}
	return p
}

// occupancyBounds spreads ~16 buckets over [0, max].
func occupancyBounds(max int) []uint64 {
	step := max / 16
	if step < 1 {
		step = 1
	}
	n := max/step + 1
	return LinearBounds(0, uint64(step), n)
}

// EnableCoded registers the vpnm_coded_* series for a channel running
// XOR-parity bank groups with up to k read grants per cycle: decode
// counts and their read amplification, parity write-through traffic and
// its read-modify-write reads (the write-amplification accounting), and
// a per-cycle histogram of the multi-port arbiter's grant counts.
func (p *MemProbe) EnableCoded(reg *Registry, channel string, k int) {
	if k < 1 {
		k = 1
	}
	p.codedDecodes = reg.Counter("vpnm_coded_decodes_total",
		"Reads served by XOR parity reconstruction instead of a direct bank copy.", "channel", channel)
	p.codedDecodeReads = reg.Counter("vpnm_coded_decode_reads_total",
		"Sibling and parity words fetched to serve parity decodes (read amplification).", "channel", channel)
	p.codedParityWrites = reg.Counter("vpnm_coded_parity_writes_total",
		"Parity words written through; physical writes are data writes plus this.", "channel", channel)
	p.codedRMW = reg.Counter("vpnm_coded_rmw_reads_total",
		"Old-data and old-parity reads behind parity read-modify-writes.", "channel", channel)
	p.grants = newTally(reg.Histogram("vpnm_coded_grants_per_cycle",
		"Reads granted per interface cycle by the multi-port arbiter.",
		LinearBounds(0, 1, k+2), "channel", channel))
}

// AttachEstimator feeds est every observed cycle's deepest queue (from
// the vpnm_max_bank_queue_depth tally, so size both by the same Q) and
// every published ledger's request and stall totals, and registers the
// live MTS estimates as gauge functions under reg.
func (p *MemProbe) AttachEstimator(reg *Registry, est *MTSEstimator, channel string) {
	p.est = est
	reg.GaugeFunc("vpnm_mts_estimate_cycles",
		"Live MTS estimate in interface cycles, extrapolated from observed occupancy excursions.",
		func() float64 { return est.Report().Excursion }, "channel", channel, "method", "excursion")
	if est.modeled() {
		reg.GaugeFunc("vpnm_mts_estimate_cycles",
			"Live MTS estimate in interface cycles, extrapolated from observed occupancy excursions.",
			func() float64 { return est.Report().Model }, "channel", channel, "method", "model")
	}
}

// ObserveTick implements Probe: one weighted observation per
// distribution.
func (p *MemProbe) ObserveTick(s *TickSample) {
	p.occ.observe(uint64(s.DelayRowsInUse), s.Cycles)
	p.maxQ.observe(uint64(s.MaxBankQueue), s.Cycles)
	if p.grants.h != nil {
		p.grants.observe(uint64(s.CodedGrants), s.Cycles)
	}
}

// Publish implements Probe: it copies the ledger into the registry's
// gauges and counters and flushes the per-cycle tallies.
func (p *MemProbe) Publish(l *Ledger) {
	p.cycle.Set(int64(l.Cycle))
	p.queue.Set(int64(l.QueueDepth))
	p.rows.Set(int64(l.DelayRowsInUse))
	p.wb.Set(int64(l.WriteBufInUse))
	for i, q := range l.PerBankQueue {
		p.bankQueue[i].Set(int64(q))
		p.bankRows[i].Set(int64(l.PerBankRows[i]))
	}
	p.reads.Store(l.Reads)
	p.writes.Store(l.Writes)
	p.merged.Store(l.MergedReads)
	p.replays.Store(l.Replays)
	var stalls uint64
	for cause, n := range l.Stalls {
		p.stalls[cause].Store(n)
		stalls += n
	}
	if p.codedDecodes != nil {
		p.codedDecodes.Store(l.CodedDecodes)
		p.codedDecodeReads.Store(l.CodedDecodeReads)
		p.codedParityWrites.Store(l.CodedParityWrites)
		p.codedRMW.Store(l.CodedRMWReads)
	}
	if p.est != nil {
		for depth, n := range p.maxQ.counts {
			p.est.ObserveN(depth, n)
		}
		p.est.SetLedger(l.Reads+l.Writes, stalls)
	}
	p.occ.flush()
	p.maxQ.flush()
	if p.grants.h != nil {
		p.grants.flush()
	}
}
