package core

import (
	"repro/internal/dram"
	"repro/internal/hash"
	"repro/internal/telemetry"
)

// Completion reports one data word delivered on the interface. The
// Data slice is owned by the controller and is valid only until the
// next call to Tick; callers that keep data across cycles must copy it.
type Completion struct {
	// Tag is the value returned by the Read call that requested the word.
	Tag uint64
	// Addr is the requested address.
	Addr uint64
	// Data is the word read (WordBytes long).
	Data []byte
	// IssuedAt and DeliveredAt are interface cycles; their difference is
	// always exactly the normalized delay D.
	IssuedAt, DeliveredAt uint64
	// Err is non-nil when the delivered word failed an integrity check:
	// ErrUncorrectable means the ECC layer detected a multi-bit error it
	// could not repair. Timing is unaffected — the word still arrives
	// exactly D cycles after issue — only the payload is suspect.
	Err error
}

// dueEntry is one scheduled playback: the interface cycle at which it
// must appear on the interface, the bank whose delay storage buffer row
// holds the data, and the playback payload itself. Because at most K
// reads are accepted per interface cycle (K = 1 unless coded bank
// groups raise the admission cap) and every read is due exactly D
// cycles later, due cycles are non-decreasing in acceptance order —
// strictly increasing for K = 1 — so a FIFO of dueEntries is exactly
// the union of the per-bank circular delay buffers of Section 4.1,
// checked in O(deliveries) per cycle instead of one rotation per bank.
//
// A coded entry is a parity-decode playback: its word was reconstructed
// at accept time into row (owned by the codedState freelist) and never
// touches a delay storage buffer, so bank is only the home bank for
// trace labelling.
type dueEntry struct {
	at    uint64
	bank  int
	coded bool
	row   []byte
	p     playback
}

// Controller is a virtually pipelined network memory: a front-end
// universal hash, one bank controller per DRAM bank, and a memory-side
// bus running R times faster than the interface. Clients call Read or
// Write at most once per interface cycle and advance time with Tick;
// every read's data appears exactly Delay() cycles after it was issued.
//
// Tick is event-driven: per-cycle cost tracks the number of banks with
// work (queued accesses, in-flight reads, scheduled playbacks), not the
// number of banks configured. Config.DenseScan selects the original
// O(Banks)-per-cycle scans over the same state; the two paths are
// cycle-for-cycle bit-identical, which the differential tests enforce.
//
// Controller is not safe for concurrent use: like the hardware it
// models, it has a single interface port driven by one clock.
type Controller struct {
	cfg      Config
	h        hash.Func
	mod      *dram.Module
	banks    []*bankController
	bankMask uint64
	maxCount uint32
	dense    bool

	cycle   uint64 // interface cycles completed
	memTime uint64 // memory-bus cycles completed
	rrPtr   int    // work-conserving round-robin pointer

	// Memory-clock fast path: ratioNum/ratioDen cache cfg.RatioNum and
	// cfg.RatioDen as uint64, and memRem holds cycle*ratioNum mod
	// ratioDen, so each Tick derives the next bus-cycle target with one
	// add and one division instead of recomputing floor(cycle*N/D) from
	// scratch. skipState keeps the remainder exact across idle skips;
	// the event/dense differential tests pin the equivalence.
	ratioNum uint64
	ratioDen uint64
	memRem   uint64

	nextTag        uint64
	readsThisCycle int  // reads accepted this interface cycle (cap maxReads)
	maxReads       int  // per-cycle read admission cap: Coded.ReadPorts()
	lastGrants     int  // readsThisCycle of the cycle just completed
	writeReq       bool // a write was accepted this interface cycle
	totalQueued    int  // sum of bank access queue occupancies
	rowsUse        int  // sum of delay storage buffer occupancies
	wbUse          int  // sum of write buffer FIFO occupancies

	// coded is the XOR-parity bank-group state (parity replicas, shadow,
	// per-cycle ports, decode-row freelist); nil unless cfg.Coded is
	// enabled. See coded.go for the multi-port arbitration path.
	coded *codedState

	// inflightReads counts the banks with a DRAM read in flight; with
	// totalQueued it answers Quiescent and IdleCycles.
	inflightReads int

	// Bank wake schedule (schedule.go), event path only: readyBanks
	// holds the queued banks that are free at memTime — the arbiter's
	// candidates — and wakes the busy banks that have queued work or a
	// read in flight, keyed by the memory cycle they free up. flushList
	// collects the banks whose read completed during a Tick's memory
	// cycles, for the flush after the loop.
	readyBanks bankSet
	wakes      wakeHeap
	flushList  []int32

	// due is the controller-wide playback schedule: a fixed-capacity FIFO
	// ring of at most Delay entries in strictly increasing due order.
	dueBuf   []dueEntry
	dueHead  int
	dueCount int

	// Re-keying trigger state (see rekey.go).
	windowStart      uint64
	windowStalls     uint64
	prevWindowStalls uint64

	pool        bufPool
	scratch     [][]byte // scratch[i] backs completions[i].Data until the next Tick
	completions []Completion

	// Telemetry state, allocated only when cfg.Probe is set. The deepest
	// queue is tracked incrementally, so the per-cycle sample needs no
	// per-bank scan; the ledger is filled only by PublishProbe.
	sample     telemetry.TickSample
	ledger     telemetry.Ledger
	depthCount []int32 // depthCount[d] = banks whose queue holds d entries
	probeMaxQ  int     // max over banks of queue depth, tracked via depthCount

	stats Stats
}

// New builds a controller from cfg; zero-valued fields take the
// defaults documented on Config.
func New(cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mod, err := dram.NewModule(dram.Config{
		Banks:         cfg.Banks,
		AccessLatency: cfg.AccessLatency,
		WordBytes:     cfg.WordBytes,
		Hook:          cfg.Fault,
		Store:         cfg.Store,
	})
	if err != nil {
		return nil, err
	}
	h := cfg.Hash
	if h == nil {
		bits := cfg.hashBits()
		if bits == 0 {
			bits = 1 // a 1-bank system still needs a well-formed hash
		}
		h = hash.NewH3(bits, cfg.HashSeed)
	}
	maxReads := cfg.Coded.ReadPorts()
	c := &Controller{
		cfg:        cfg,
		h:          h,
		mod:        mod,
		banks:      make([]*bankController, cfg.Banks),
		bankMask:   uint64(cfg.Banks - 1),
		maxCount:   1<<uint(cfg.CounterBits) - 1,
		ratioNum:   uint64(cfg.RatioNum),
		ratioDen:   uint64(cfg.RatioDen),
		maxReads:   maxReads,
		dense:      cfg.DenseScan,
		readyBanks: newBankSet(cfg.Banks),
		wakes:      make(wakeHeap, 0, cfg.Banks),
		flushList:  make([]int32, 0, 2*cfg.Banks),
		// Up to maxReads playbacks can be scheduled per cycle, each due
		// within Delay cycles.
		dueBuf: make([]dueEntry, maxReads*cfg.Delay),
		pool:   bufPool{word: cfg.WordBytes, bufs: make([][]byte, 0, cfg.Banks*cfg.WriteBufferDepth)},
		// At most maxReads playbacks come due per interface cycle, so
		// maxReads scratch words and completion slots keep the per-cycle
		// delivery path allocation-free from the very first Tick.
		scratch:     makeScratch(maxReads, cfg.WordBytes),
		completions: make([]Completion, 0, maxReads),
	}
	if cfg.Coded.Enabled() {
		c.coded = newCodedState(cfg)
	}
	for i := range c.banks {
		c.banks[i] = newBankController(i, cfg, c)
	}
	c.stats.BankRequests = make([]uint64, cfg.Banks)
	if cfg.Probe != nil {
		c.depthCount = make([]int32, cfg.QueueDepth+1)
		c.depthCount[0] = int32(cfg.Banks)
		c.ledger.PerBankQueue = make([]int32, cfg.Banks)
		c.ledger.PerBankRows = make([]int32, cfg.Banks)
	}
	return c, nil
}

// Config returns the fully resolved configuration.
func (c *Controller) Config() Config { return c.cfg }

// Delay returns the normalized delay D in interface cycles.
func (c *Controller) Delay() int { return c.cfg.Delay }

// Cycle returns the current interface cycle (the cycle at which a
// request issued now is stamped).
func (c *Controller) Cycle() uint64 { return c.cycle }

// Stats returns a snapshot of the accumulated statistics.
func (c *Controller) Stats() Stats {
	s := c.stats
	s.BankRequests = append([]uint64(nil), c.stats.BankRequests...)
	s.ECCCorrected = c.mod.Corrected()
	s.ECCUncorrectable = c.mod.Uncorrectable()
	if c.coded != nil {
		s.Coded = c.coded.banks.Counters()
	}
	return s
}

// Bank returns the bank index the controller's hash assigns to addr.
// Exposed for the oracle-adversary experiments, which model an attacker
// who has somehow learned the mapping. In coded mode the hash places
// whole stripes into parity groups — the low lane bits select the bank
// within the group — so the words of one codeword always land on
// distinct banks of one group.
func (c *Controller) Bank(addr uint64) int {
	if st := c.coded; st != nil {
		g := c.h.Hash(addr>>st.laneBits) & st.groupMask
		return int(g<<st.laneBits | addr&st.laneMask)
	}
	return int(c.h.Hash(addr) & c.bankMask)
}

// Read issues a read of addr this interface cycle and returns a tag
// that will identify the completion exactly Delay() cycles later. A
// stall error (see IsStall) means the request was not accepted and the
// cycle's interface slot remains open for a retry or another request.
// With Config.DualPort a read and a write may share a cycle (taking
// effect in call order); otherwise one request of either kind is the
// limit. With Config.Coded the interface accepts up to Coded.K reads
// per cycle, each granted only if a direct bank port or a parity-decode
// combination covers it (see readCoded).
func (c *Controller) Read(addr uint64) (tag uint64, err error) {
	if c.readsThisCycle >= c.maxReads || (!c.cfg.DualPort && c.writeReq) {
		return 0, ErrSecondRequest
	}
	if c.coded != nil {
		return c.readCoded(addr)
	}
	bank := c.Bank(addr)
	b := c.banks[bank]
	tag = c.nextTag
	rowID, merged, err := b.acceptRead(addr, c.maxCount)
	if err != nil {
		c.noteStall(err)
		if c.cfg.Trace != nil {
			c.cfg.Trace.OnStall(c.cycle, bank, addr, err)
		}
		return 0, err
	}
	if c.cfg.Trace != nil {
		c.cfg.Trace.OnRequest(c.cycle, bank, false, merged, addr, tag)
	}
	c.scheduleDue(bank, playback{rowID: rowID, tag: tag, addr: addr, issuedAt: c.cycle})
	c.nextTag++
	c.readsThisCycle++
	c.stats.Reads++
	c.stats.BankRequests[bank]++
	if merged {
		c.stats.MergedReads++
	} else {
		c.notePressure(b)
	}
	return tag, nil
}

// Write issues a write of data to addr this interface cycle. Writes
// complete silently — the interface never needs to wait for them — but
// are ordered with reads to the same address by the per-bank FIFO.
// Data longer than a word is rejected; shorter data is zero-padded.
func (c *Controller) Write(addr uint64, data []byte) error {
	if c.writeReq || (!c.cfg.DualPort && c.readsThisCycle > 0) {
		return ErrSecondRequest
	}
	if len(data) > c.cfg.WordBytes {
		return errDataTooLong(len(data), c.cfg.WordBytes)
	}
	bank := c.Bank(addr)
	b := c.banks[bank]
	buf := c.pool.get()
	n := copy(buf, data)
	for i := n; i < len(buf); i++ {
		buf[i] = 0
	}
	if err := b.acceptWrite(addr, buf); err != nil {
		c.pool.put(buf)
		c.noteStall(err)
		if c.cfg.Trace != nil {
			c.cfg.Trace.OnStall(c.cycle, bank, addr, err)
		}
		return err
	}
	if c.cfg.Trace != nil {
		c.cfg.Trace.OnRequest(c.cycle, bank, true, false, addr, 0)
	}
	if c.coded != nil {
		c.coded.noteWrite(bank, addr, buf)
	}
	c.writeReq = true
	c.stats.Writes++
	c.stats.BankRequests[bank]++
	c.notePressure(b)
	return nil
}

// scheduleDue records an accepted read's playback, due exactly D cycles
// after issue.
func (c *Controller) scheduleDue(bank int, p playback) {
	c.pushDue(dueEntry{at: c.cycle + uint64(c.cfg.Delay), bank: bank, p: p})
}

func (c *Controller) pushDue(e dueEntry) {
	if c.dueCount == len(c.dueBuf) {
		// Impossible by construction: at most maxReads reads per cycle,
		// each due within D cycles, and the ring holds maxReads*D.
		panic("core: due queue overflow")
	}
	tail := c.dueHead + c.dueCount
	if tail >= len(c.dueBuf) {
		tail -= len(c.dueBuf)
	}
	c.dueBuf[tail] = e
	c.dueCount++
}

// Tick advances the controller one interface cycle: the memory side
// runs its share of bus cycles, in-flight bank accesses that completed
// are flushed, and the playbacks that come due (if any) are returned as
// completions. At most maxReads completions can occur per cycle because
// at most maxReads requests were accepted D cycles ago (one, unless
// coded bank groups raise the cap). Per-cycle cost is proportional to
// the number of active banks, not Config.Banks.
func (c *Controller) Tick() []Completion {
	if c.dense {
		return c.tickDense()
	}
	c.cycle++
	c.stats.Cycles++
	c.advanceMemory()
	c.completions = c.completions[:0]
	if len(c.flushList) > 0 {
		c.flushDue()
	}
	c.stats.RowOccupancySum += uint64(c.rowsUse)
	for c.dueCount > 0 && c.dueBuf[c.dueHead].at == c.cycle {
		e := c.dueBuf[c.dueHead]
		c.dueHead++
		if c.dueHead == len(c.dueBuf) {
			c.dueHead = 0
		}
		c.dueCount--
		c.deliverDue(e)
	}
	c.endCycle()
	if c.cfg.Probe != nil {
		c.observe(1, c.probeMaxQ, c.rowsUse)
	}
	return c.completions
}

// endCycle closes the interface cycle's admission state: the grant
// count is latched for the probe before the per-cycle request flags and
// coded read ports reset. Shared by Tick, tickDense and skipState so
// the event, dense and fast-forward paths stay bit-identical.
func (c *Controller) endCycle() {
	c.lastGrants = c.readsThisCycle
	c.readsThisCycle = 0
	c.writeReq = false
	if c.coded != nil {
		c.coded.ports.Reset()
	}
}

// deliverDue plays one due entry back onto the interface. Each
// completion in a cycle gets its own scratch word, so multi-grant coded
// cycles deliver up to maxReads distinct payloads.
func (c *Controller) deliverDue(e dueEntry) {
	dst := c.scratch[len(c.completions)]
	var corrupt bool
	if e.coded {
		// Parity-decode playback: the word was reconstructed at accept
		// time and bypassed the bank machinery (and with it the fault/ECC
		// hook — decodes never report corruption; see DESIGN.md).
		copy(dst, e.row)
		c.coded.freeRow(e.row)
	} else {
		corrupt = c.banks[e.bank].deliver(e.p, c.memTime, dst)
	}
	if c.cfg.Trace != nil {
		c.cfg.Trace.OnDeliver(c.cycle, e.bank, e.p.addr, e.p.tag)
	}
	var cerr error
	if corrupt {
		cerr = ErrUncorrectable
		c.stats.UncorrectableDelivered++
	}
	c.completions = append(c.completions, Completion{
		Tag:         e.p.tag,
		Addr:        e.p.addr,
		Data:        dst,
		IssuedAt:    e.p.issuedAt,
		DeliveredAt: c.cycle,
		Err:         cerr,
	})
	c.stats.Completions++
}

// observe hands the probe one observation of the per-cycle
// distributions, weighted by the n cycles that ended at c.cycle holding
// these values. Only reached with a non-nil probe; the nil-probe Tick
// path is untouched.
func (c *Controller) observe(n uint64, maxQ, rows int) {
	c.sample = telemetry.TickSample{Cycle: c.cycle, Cycles: n, MaxBankQueue: maxQ, DelayRowsInUse: rows, CodedGrants: c.lastGrants}
	c.cfg.Probe.ObserveTick(&c.sample)
}

// PublishProbe hands the probe the controller's scrape-time Ledger:
// occupancy totals, the per-bank breakdown and the cumulative ledger.
// It scans every bank, so it belongs at scrape time, not on the clock.
// A no-op without a probe.
func (c *Controller) PublishProbe() {
	if c.cfg.Probe == nil {
		return
	}
	l, st := &c.ledger, &c.stats
	l.Cycle = c.cycle
	l.QueueDepth, l.DelayRowsInUse, l.WriteBufInUse = c.totalQueued, c.rowsUse, c.wbUse
	for i, b := range c.banks {
		l.PerBankQueue[i], l.PerBankRows[i] = int32(b.baq.Len()), int32(b.rowsInUse())
	}
	l.Reads, l.Writes, l.MergedReads, l.Replays = st.Reads, st.Writes, st.MergedReads, st.Completions
	l.Stalls = [telemetry.NumStallCauses]uint64{st.Stalls.DelayBuffer, st.Stalls.BankQueue,
		st.Stalls.WriteBuffer, st.Stalls.Counter, st.Stalls.Port}
	if c.coded != nil {
		ctr := c.coded.banks.Counters()
		l.CodedDecodes, l.CodedDecodeReads = ctr.Decodes, ctr.DecodeReads
		l.CodedParityWrites, l.CodedRMWReads = ctr.ParityWrites, ctr.RMWReads
	}
	c.cfg.Probe.Publish(l)
}

// advanceMemory runs the memory-side bus up to the cycle budget earned
// by the current interface cycle: floor(cycle * R). Each memory cycle
// carries at most one bus grant. In the default work-conserving mode a
// rotating-priority arbiter offers the slot to each bank with queued
// work in turn; in StrictRoundRobin mode the slot belongs to bank
// (m mod B) alone and is wasted if that bank cannot use it.
func (c *Controller) advanceMemory() {
	// Incremental floor(cycle*N/D): memTime already equals the previous
	// cycle's target, so this cycle adds floor((rem+N)/D) bus cycles.
	c.memRem += c.ratioNum
	target := c.memTime + c.memRem/c.ratioDen
	c.memRem %= c.ratioDen
	if c.dense {
		c.runMemoryDense(target)
		return
	}
	nBanks := len(c.banks)
	for c.memTime < target {
		if c.readyBanks.len() == 0 {
			// No bank can take the bus before the next wake: the memory
			// cycles up to it pass without an event.
			next := target
			if len(c.wakes) > 0 {
				next = min(next, c.wakes[0].at)
			}
			c.stats.MemCycles += next - c.memTime
			c.memTime = next
		} else {
			m := c.memTime
			if c.cfg.StrictRoundRobin {
				if b := int(m % uint64(nBanks)); c.readyBanks.has(b) {
					c.issueOn(b, m)
				}
			} else {
				c.arbitrate(m, nBanks)
			}
			c.memTime++
			c.stats.MemCycles++
		}
		if len(c.wakes) > 0 && c.wakes[0].at <= c.memTime {
			c.wakeDue()
		}
	}
}

// arbitrate grants memory cycle m's bus slot to the first ready bank at
// or after rrPtr in rotating order: the bank the dense scan issues on
// (see schedule.go for why its visits to busy banks are no-ops).
func (c *Controller) arbitrate(m uint64, nBanks int) {
	b := c.readyBanks.nextIn(c.rrPtr, nBanks)
	if b < 0 {
		b = c.readyBanks.nextIn(0, c.rrPtr)
	}
	if !c.issueOn(b, m) {
		panic("core: ready bank refused the bus")
	}
	c.rrPtr = (b + 1) % nBanks
}

func (c *Controller) issueOn(bank int, m uint64) bool {
	if !c.banks[bank].tryIssue(c.mod, m, &c.pool) {
		return false
	}
	c.stats.BusBusy++
	c.stats.DRAMAccesses++
	if !c.dense {
		c.readyBanks.remove(bank)
		c.scheduleBank(bank)
	}
	return true
}

// noteQueuePush maintains the wake schedule, the queue-occupancy
// totals and the probe's deepest-queue tracker after a bank access
// queue push.
func (c *Controller) noteQueuePush(id int) {
	c.totalQueued++
	if !c.dense {
		c.scheduleBank(id)
	}
	if c.depthCount != nil {
		d := c.banks[id].baq.Len()
		c.depthCount[d-1]--
		c.depthCount[d]++
		c.probeMaxQ = max(c.probeMaxQ, d)
	}
}

// noteQueuePop is noteQueuePush's inverse, after a pop.
func (c *Controller) noteQueuePop(id int) {
	c.totalQueued--
	if c.depthCount != nil {
		d := c.banks[id].baq.Len()
		c.depthCount[d+1]--
		c.depthCount[d]++
		for c.probeMaxQ > 0 && c.depthCount[c.probeMaxQ] == 0 {
			c.probeMaxQ--
		}
	}
}

func (c *Controller) noteRowAlloc(int) { c.rowsUse++ }
func (c *Controller) noteRowFree(int)  { c.rowsUse-- }
func (c *Controller) noteWBPush(int)   { c.wbUse++ }
func (c *Controller) noteWBPop(int)    { c.wbUse-- }

// notePressure updates the high-water marks after a queue push.
func (c *Controller) notePressure(b *bankController) {
	if n := b.baq.Len(); n > c.stats.PeakQueueLen {
		c.stats.PeakQueueLen = n
	}
	if n := b.rowsInUse(); n > c.stats.PeakRowsInUse {
		c.stats.PeakRowsInUse = n
	}
}

func (c *Controller) noteStall(err error) {
	switch err {
	case ErrStallDelayBuffer:
		c.stats.Stalls.DelayBuffer++
	case ErrStallBankQueue:
		c.stats.Stalls.BankQueue++
	case ErrStallWriteBuffer:
		c.stats.Stalls.WriteBuffer++
	case ErrStallCounter:
		c.stats.Stalls.Counter++
	case ErrStallCodedPort:
		c.stats.Stalls.Port++
	}
	if c.stats.FirstStallCycle == 0 {
		c.stats.FirstStallCycle = c.cycle + 1 // 1-based; 0 means "no stall yet"
	}
	if c.cfg.RekeyWindow > 0 {
		c.rollRekeyWindow()
		c.windowStalls++
	}
}

// Outstanding reports the number of reads issued but not yet delivered.
func (c *Controller) Outstanding() uint64 {
	return c.stats.Reads - c.stats.Completions
}

// StallsTotal reports the cumulative stall count without copying the
// full Stats snapshot — cheap enough to call every cycle (the serving
// engine publishes it into its seqlocked ledger each step).
func (c *Controller) StallsTotal() uint64 { return c.stats.Stalls.Total() }

// Quiescent reports whether the controller has nothing in motion: no
// queued accesses, no in-flight bank reads, and no scheduled playbacks.
// From a quiescent state, ticking without issuing requests changes
// nothing observable except the advancing clocks.
func (c *Controller) Quiescent() bool {
	return c.totalQueued == 0 && c.inflightReads == 0 && c.dueCount == 0
}

// IdleCycles reports how many upcoming interface cycles are guaranteed
// event-free: 0 when any bank has queued or in-flight work (the memory
// side acts every cycle), the gap to the next scheduled playback when
// only deliveries remain, and ^uint64(0) when fully quiescent.
func (c *Controller) IdleCycles() uint64 {
	if c.totalQueued > 0 || c.inflightReads > 0 {
		return 0
	}
	if c.dueCount > 0 {
		return c.dueBuf[c.dueHead].at - c.cycle - 1
	}
	return ^uint64(0)
}

// SkipIdle fast-forwards up to n interface cycles through a span in
// which no event can occur, returning the cycles actually skipped
// (min(n, IdleCycles())). It is exactly equivalent to calling Tick that
// many times — the clocks, statistics ledger and probe distributions
// advance identically, which the quiescence property tests pin — but
// costs O(1), probe included: nothing moves inside the span, so the
// probe gets one observation weighted by its length. Callers with
// pending work get 0 and should Tick instead.
func (c *Controller) SkipIdle(n uint64) uint64 {
	k := c.IdleCycles()
	if k > n {
		k = n
	}
	if k == 0 {
		return 0
	}
	if c.dense {
		// The dense reference takes no shortcuts: replay the span as
		// ordinary ticks so differential drivers can call SkipIdle on
		// both implementations.
		for i := uint64(0); i < k; i++ {
			if comps := c.Tick(); len(comps) != 0 {
				panic("core: completion inside an idle span")
			}
		}
		return k
	}
	rest := k
	if c.cfg.Probe != nil && c.readsThisCycle > 0 {
		// The span opens on a cycle that granted a read (one that merged,
		// so nothing queued): only its grant count differs from the rest.
		c.skipState(1)
		c.observe(1, c.probeMaxQ, c.rowsUse)
		rest--
	}
	if rest > 0 {
		c.skipState(rest)
		if c.cfg.Probe != nil {
			c.observe(rest, c.probeMaxQ, c.rowsUse)
		}
	}
	return k
}

// skipState advances the clocks and per-cycle accumulators across k
// event-free cycles.
func (c *Controller) skipState(k uint64) {
	c.cycle += k
	c.stats.Cycles += k
	c.stats.RowOccupancySum += uint64(c.rowsUse) * k
	target := c.cycle * c.ratioNum / c.ratioDen
	c.memRem = c.cycle * c.ratioNum % c.ratioDen
	c.stats.MemCycles += target - c.memTime
	c.memTime = target
	// One endCycle covers the whole span: the request flags and ports it
	// clears are already clear after the first skipped cycle, and
	// lastGrants is only observable through the probe, which SkipIdle
	// gives the span's first cycle separately when it granted reads.
	c.endCycle()
}

// Flush ticks the controller until every queued access has been issued,
// every bank is idle, and every outstanding read has been delivered. It
// returns all completions observed while draining (with their Data
// copied, so they stay valid after further ticks). Event-free spans of
// the drain — the tail of each delivery wait — are fast-forwarded, so a
// Flush costs O(outstanding work), not O(D).
//
// Flush only drains work the controller has already accepted. A request
// that stalled belongs to the client, not the controller: if a recovery
// layer is holding it for retry (recovery.Retrier), call the Retrier's
// Flush instead, which first resolves the parked request and then
// drains. Either way the fixed-D contract holds during the drain —
// draining ticks are ordinary interface cycles, so no completion can
// arrive earlier or later than IssuedAt+D; the recovery tests assert
// this cycle-exactly.
func (c *Controller) Flush() []Completion {
	var all []Completion
	for !c.Quiescent() {
		if c.SkipIdle(^uint64(0)) > 0 {
			continue
		}
		for _, comp := range c.Tick() {
			comp.Data = append([]byte(nil), comp.Data...)
			all = append(all, comp)
		}
	}
	return all
}

// Store exposes the backing DRAM contents for tests and preloading. It
// is shared when Config.Store was set.
func (c *Controller) Store() *dram.Store { return c.mod.Store() }

// makeScratch preallocates the per-cycle completion payload words.
func makeScratch(n, word int) [][]byte {
	s := make([][]byte, n)
	for i := range s {
		s[i] = make([]byte, word)
	}
	return s
}

// bufPool recycles write-buffer data words to keep the steady state
// allocation-free.
type bufPool struct {
	word int
	bufs [][]byte
}

func (p *bufPool) get() []byte {
	if n := len(p.bufs); n > 0 {
		b := p.bufs[n-1]
		p.bufs = p.bufs[:n-1]
		return b
	}
	return make([]byte, p.word)
}

func (p *bufPool) put(b []byte) { p.bufs = append(p.bufs, b) }
