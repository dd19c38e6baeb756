package multichannel

// Out-of-order cross-channel issue. The striped interface accepts at
// most one read per channel per cycle (times the coded read-port
// count), so an in-order issuer that blocks its whole queue on one
// channel's collision wastes every other channel's slot: for 4 channels
// the steady-state expectation is ~1.82 accepted requests per cycle.
// The Stage lifts that toward the full channel count by queueing
// admitted requests per channel and issuing the oldest request of
// EVERY channel each cycle — the memory-level-parallelism-by-reordering
// argument of Kim et al. (PAPERS.md) applied above the paper's fixed-D
// controllers.
//
// Reordering is observation-free under VPNM's contract: the fixed-D
// guarantee is per-request (every read completes exactly D cycles after
// its own issue), so cross-request completion order was never anything
// but issue order — which the interface already leaves unspecified
// across channels. Same-address ordering is the one obligation, and it
// is enforced structurally: the channel selector is a pure hash of the
// address, so two requests for one address always land in the same
// per-channel FIFO, which issues head-first. Requests only ever
// overtake each other across channels, where their addresses are
// necessarily different.

import (
	"strconv"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// DefaultStageDepth bounds each channel's pending ring when NewStage is
// given a non-positive depth.
const DefaultStageDepth = 64

// Pending is one admitted request parked in the out-of-order issue
// stage. Cookie is an opaque caller correlation value (the serving
// engine stores a slot index there); Data is the write payload, owned
// by the caller until the sink observes a terminal outcome.
type Pending struct {
	Addr   uint64
	Data   []byte
	Cookie uint64
	Write  bool
	seq    uint64 // admission stamp, stage-private
}

// IssueSink receives the outcome of one issue attempt during Sweep.
// For an accepted request err is nil (and tag carries the read's
// completion tag); the sink must return true and the request is
// retired. For a memory stall (core.IsStall) the sink decides: true
// retires the request (surface/drop), false holds it at its channel's
// head for a retry next cycle. The *Pending is only valid for the
// duration of the call.
type IssueSink func(p *Pending, tag uint64, err error) bool

// stageRing is one channel's fixed-capacity pending FIFO.
type stageRing struct {
	buf  []Pending
	head int
	n    int
}

// Stage is the out-of-order issue front-end for a Memory. Requests
// enter through a single admission point (Admit) in program order and
// receive a monotone admission stamp; once per cycle, Sweep issues from
// every channel's queue head until the channel's ports are spent. The
// Stage is single-owner, like the Memory under it: only the goroutine
// that ticks the Memory may call Admit and Sweep.
type Stage struct {
	m     *Memory
	sink  IssueSink
	depth int
	q     []stageRing
	total int
	next  uint64 // next admission stamp

	// Telemetry, armed only when NewStage is given a registry; the
	// unarmed sweep skips all reorder accounting (the branch-minimal
	// path the loopback bench gates at 0 allocs/op).
	reorder *telemetry.Histogram
	occ     []*telemetry.Gauge
	bypass  *telemetry.Counter
	swept   []uint64 // per-sweep scratch: admission stamps issued

	admitted, issued, bypasses uint64
}

// StageStats is a point-in-time copy of the stage's ledger. Bypasses is
// only maintained when the stage has a telemetry registry.
type StageStats struct {
	Admitted, Issued, Bypasses uint64
	Pending                    int
}

// NewStage builds an out-of-order issue stage over m with per-channel
// rings of the given depth (non-positive selects DefaultStageDepth).
// sink receives every issue outcome. A non-nil reg arms the vpnm_ooo_*
// series: the reorder-depth histogram, per-channel pending occupancy
// gauges, and the head-of-line-bypass counter.
func NewStage(m *Memory, depth int, sink IssueSink, reg *telemetry.Registry) *Stage {
	if depth <= 0 {
		depth = DefaultStageDepth
	}
	st := &Stage{m: m, sink: sink, depth: depth, q: make([]stageRing, m.Channels())}
	for ch := range st.q {
		st.q[ch].buf = make([]Pending, depth)
	}
	if reg != nil {
		st.reorder = reg.Histogram("vpnm_ooo_reorder_depth",
			"Admission-order distance between an issued request and the oldest request still pending at the start of its cycle (0 = issued in order).",
			telemetry.ExponentialBounds(1, 2, 12))
		st.bypass = reg.Counter("vpnm_ooo_hol_bypass_total",
			"Requests issued while an older admitted request stayed held on another channel (head-of-line bypasses).")
		st.occ = make([]*telemetry.Gauge, len(st.q))
		for ch := range st.occ {
			st.occ[ch] = reg.Gauge("vpnm_ooo_pending",
				"Requests admitted to the out-of-order stage and not yet issued, per channel.",
				"channel", strconv.Itoa(ch))
		}
		st.swept = make([]uint64, 0, m.Ports()+len(st.q))
	}
	return st
}

// Depth reports the per-channel ring capacity.
func (st *Stage) Depth() int { return st.depth }

// Cap reports the stage's total capacity (channels times depth).
func (st *Stage) Cap() int { return len(st.q) * st.depth }

// Len reports how many admitted requests are pending across channels.
func (st *Stage) Len() int { return st.total }

// ChannelLen reports channel ch's pending count.
func (st *Stage) ChannelLen(ch int) int { return st.q[ch].n }

// Room reports whether channel ch's ring can accept another request.
func (st *Stage) Room(ch int) bool { return st.q[ch].n < st.depth }

// Admit parks p on its address's channel queue, stamping it with the
// next admission sequence. It reports false (and admits nothing) when
// that channel's ring is full — the caller holds the request and
// re-offers it after a Sweep has made room.
func (st *Stage) Admit(p Pending) bool {
	ch := st.m.Channel(p.Addr)
	q := &st.q[ch]
	if q.n == st.depth {
		return false
	}
	p.seq = st.next
	st.next++
	tail := q.head + q.n
	if tail >= st.depth {
		tail -= st.depth
	}
	q.buf[tail] = p
	q.n++
	st.total++
	st.admitted++
	if st.occ != nil {
		st.occ[ch].Set(int64(q.n))
	}
	return true
}

// minPending returns the smallest admission stamp among the channel
// queue heads — the oldest request still pending. Only called with
// total > 0.
func (st *Stage) minPending() uint64 {
	min := ^uint64(0)
	for ch := range st.q {
		q := &st.q[ch]
		if q.n > 0 && q.buf[q.head].seq < min {
			min = q.buf[q.head].seq
		}
	}
	return min
}

// Sweep runs one cycle's issue pass: for every channel, issue from the
// queue head until the channel refuses (ports spent this cycle) or the
// sink holds a stalled head. It returns the number of requests issued.
// A request the sink retires on a stall frees its slot without having
// consumed the channel's port, so the next head still gets its chance
// within the same cycle.
func (st *Stage) Sweep() int {
	if st.total == 0 {
		return 0
	}
	armed := st.reorder != nil
	var minSeq uint64
	if armed {
		minSeq = st.minPending()
		st.swept = st.swept[:0]
	}
	issued := 0
	for ch := range st.q {
		q := &st.q[ch]
		for q.n > 0 {
			p := &q.buf[q.head]
			var tag uint64
			var err error
			if p.Write {
				err = st.m.writeOn(ch, p.Addr, p.Data)
			} else {
				tag, err = st.m.readOn(ch, p.Addr)
			}
			if err == core.ErrSecondRequest {
				break // channel ports spent this cycle; hold silently
			}
			if err != nil {
				if !st.sink(p, 0, err) {
					break // held for retry; the head keeps the channel
				}
				st.pop(ch, q) // retired without consuming the port
				continue
			}
			if armed {
				st.reorder.Observe(p.seq - minSeq)
				st.swept = append(st.swept, p.seq)
			}
			st.sink(p, tag, nil)
			st.pop(ch, q)
			issued++
		}
	}
	st.issued += uint64(issued)
	if armed && st.total > 0 && len(st.swept) > 0 {
		// A head-of-line bypass is an issue that overtook an older
		// request which ended the cycle still held: count issued stamps
		// above the smallest stamp still pending after the sweep.
		held := st.minPending()
		nb := uint64(0)
		for _, s := range st.swept {
			if s > held {
				nb++
			}
		}
		if nb > 0 {
			st.bypass.Add(nb)
			st.bypasses += nb
		}
	}
	return issued
}

// pop retires channel ch's queue head.
func (st *Stage) pop(ch int, q *stageRing) {
	q.buf[q.head] = Pending{} // drop the Data reference
	q.head++
	if q.head == st.depth {
		q.head = 0
	}
	q.n--
	st.total--
	if st.occ != nil {
		st.occ[ch].Set(int64(q.n))
	}
}

// Stats snapshots the stage ledger.
func (st *Stage) Stats() StageStats {
	return StageStats{Admitted: st.admitted, Issued: st.issued, Bypasses: st.bypasses, Pending: st.total}
}
