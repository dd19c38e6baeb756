// Package vpnm is the public API of the Virtually Pipelined Network
// Memory library, a reproduction of Agrawal & Sherwood, "Virtually
// Pipelined Network Memory" (MICRO 2006).
//
// VPNM presents banked DRAM as a flat, deeply pipelined memory: every
// read issued on interface cycle t delivers its data on cycle t+D for a
// fixed, configuration-determined D, no matter what the access pattern
// is. Internally a universal hash scatters addresses over banks, a
// per-bank controller queues and reorders accesses, redundant requests
// merge into shared buffer rows, and a slightly over-clocked memory bus
// (the bus scaling ratio R) drains the queues. Stalls remain possible
// but are provably rare — the analysis sub-API quantifies them as a
// Mean Time to Stall that grows exponentially with the queue sizes.
//
// # Quick start
//
//	ctrl, err := vpnm.New(vpnm.Config{}) // paper defaults: B=32, Q=24, K=48, R=1.3
//	if err != nil { ... }
//	tag, _ := ctrl.Read(addr)       // at most one request per cycle
//	for _, c := range ctrl.Tick() { // advance one interface cycle
//	    // c.Tag == tag exactly ctrl.Delay() cycles after the Read
//	}
//
// The examples directory exercises the API on the paper's two
// applications, packet buffering and TCP reassembly, and on adversarial
// traffic against a conventional controller.
package vpnm

import (
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/recovery"
	"repro/internal/telemetry"
)

// Core controller types, re-exported from the implementation package.
type (
	// Config holds every architectural parameter (Table 1 of the paper).
	Config = core.Config
	// Controller is the virtually pipelined memory controller.
	Controller = core.Controller
	// Completion reports one delivered read.
	Completion = core.Completion
	// Stats aggregates controller counters.
	Stats = core.Stats
	// StallCounts breaks stalls down by condition.
	StallCounts = core.StallCounts
	// Tracer receives internal controller events.
	Tracer = core.Tracer
)

// Stall and protocol errors.
var (
	// ErrStall is wrapped by every stall condition.
	ErrStall = core.ErrStall
	// ErrStallDelayBuffer reports an exhausted delay storage buffer.
	ErrStallDelayBuffer = core.ErrStallDelayBuffer
	// ErrStallBankQueue reports a full bank access queue.
	ErrStallBankQueue = core.ErrStallBankQueue
	// ErrStallWriteBuffer reports a full write buffer.
	ErrStallWriteBuffer = core.ErrStallWriteBuffer
	// ErrStallCounter reports a saturated redundant-request counter.
	ErrStallCounter = core.ErrStallCounter
	// ErrSecondRequest reports two requests in one interface cycle.
	ErrSecondRequest = core.ErrSecondRequest
	// ErrUncorrectable flags a completion whose data suffered a
	// multi-bit memory error ECC detected but could not repair. The
	// completion still arrives exactly D cycles after issue; only its
	// payload is untrusted. It is not a stall.
	ErrUncorrectable = core.ErrUncorrectable
)

// Stall recovery, re-exported from the recovery package. A Retrier
// wraps a Controller and turns its stall errors into a policy: retry
// next cycle with a bounded budget, drop with accounting, or absorb
// cycles as backpressure.
type (
	// Retrier wraps Controller.Read/Write with a stall recovery policy.
	Retrier = recovery.Retrier
	// RetryPolicy selects how a Retrier handles stalls.
	RetryPolicy = recovery.Policy
	// RetrierConfig configures a Retrier.
	RetrierConfig = recovery.Config
	// RetrierCounters is the Retrier's accounting ledger.
	RetrierCounters = recovery.Counters
)

// Retry policies.
const (
	// RetryNextCycle parks a stalled request and re-presents it each
	// cycle until accepted or the attempt budget runs out.
	RetryNextCycle = recovery.RetryNextCycle
	// DropWithAccounting abandons stalled requests, counting them.
	DropWithAccounting = recovery.DropWithAccounting
	// Backpressure ticks the controller inside Read/Write until the
	// request is accepted, modeling a stalled input interface.
	Backpressure = recovery.Backpressure
)

// Retrier protocol errors.
var (
	// ErrRetrierBusy reports a request presented while one is parked.
	ErrRetrierBusy = recovery.ErrBusy
	// ErrDeferred reports a request parked for retry (it is not lost).
	ErrDeferred = recovery.ErrDeferred
	// ErrDropped wraps the stall condition of an abandoned request.
	ErrDropped = recovery.ErrDropped
)

// NewRetrier wraps ctrl with a stall recovery policy. Tick the Retrier
// (not the Controller) from then on.
func NewRetrier(ctrl *Controller, cfg RetrierConfig) *Retrier {
	return recovery.NewRetrier(ctrl, cfg)
}

// New builds a controller; zero-valued Config fields take the paper's
// defaults (B=32, L=20, Q=24, K=48, R=1.3, 64-byte words).
func New(cfg Config) (*Controller, error) { return core.New(cfg) }

// IsStall reports whether err is one of the stall conditions, which a
// client handles by retrying next cycle or dropping the request.
func IsStall(err error) bool { return core.IsStall(err) }

// DelayBufferMTS evaluates the paper's Section 5.1 closed form: the
// mean time (in cycles) to a delay-storage-buffer stall for B banks,
// K rows and an observation window of D cycles.
func DelayBufferMTS(b, k, d int) float64 { return analysis.DelayBufferMTS(b, k, d) }

// BankQueueMTS solves the Section 5.2 Markov model: the mean time (in
// memory cycles) to a bank-access-queue stall for B banks, queue depth
// Q, bank occupancy L and bus scaling ratio R.
func BankQueueMTS(b, q, l int, r float64) float64 { return analysis.BankQueueMTS(b, q, l, r) }

// Observability, re-exported from the telemetry package. Set
// Config.Probe to observe the controller — per-cycle occupancy
// distributions on the clock, queue depths, buffer occupancies and
// stall causes whenever Controller.PublishProbe is called — without
// touching the hot path's allocation behaviour (a nil Probe costs
// nothing), and Config.Trace to stream cycle-stamped events into an
// EventTrace ring for Chrome trace_event dumps.
type (
	// Probe receives per-cycle TickSamples and published Ledgers.
	Probe = telemetry.Probe
	// TickSample carries one cycle's (or one idle span's) inputs to the
	// per-cycle distributions.
	TickSample = telemetry.TickSample
	// Ledger is the scrape-time state handed to Probe.Publish.
	Ledger = telemetry.Ledger
	// StallCause labels the four stall conditions in telemetry.
	StallCause = telemetry.StallCause
	// MetricsRegistry holds allocation-free counters, gauges and
	// histograms and renders them in Prometheus text format.
	MetricsRegistry = telemetry.Registry
	// MemProbe is the standard Probe: it keeps TickSamples as
	// histograms (and optionally an MTS estimator) and copies published
	// Ledgers into registry metrics.
	MemProbe = telemetry.MemProbe
	// EventTrace is a bounded ring of cycle-stamped controller events
	// that dumps as Chrome trace_event JSON.
	EventTrace = telemetry.EventTrace
	// MTSEstimator estimates Mean Time to Stall live, from observed
	// occupancy excursions and from the paper's Markov model.
	MTSEstimator = telemetry.MTSEstimator
	// MTSReport is an MTSEstimator's point-in-time estimate pair.
	MTSReport = telemetry.MTSReport
)

// NewMetricsRegistry builds an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// NewMemProbe registers a controller's metric series (labelled with
// channel) in reg and returns the Probe to set as Config.Probe. banks,
// queueDepth and rowBound size the per-bank series and histogram
// buckets; pass the controller's B, Q and B*K.
func NewMemProbe(reg *MetricsRegistry, channel string, banks, queueDepth, rowBound int) *MemProbe {
	return telemetry.NewMemProbe(reg, channel, banks, queueDepth, rowBound)
}

// NewEventTrace builds a bounded event ring holding the last capacity
// controller events while armed.
func NewEventTrace(capacity int) *EventTrace { return telemetry.NewEventTrace(capacity) }

// NewMTSEstimator builds a live MTS estimator for bank queues of depth
// queueDepth. Feed it through MemProbe.AttachEstimator.
func NewMTSEstimator(queueDepth int) *MTSEstimator { return telemetry.NewMTSEstimator(queueDepth) }

// ExcursionMTS estimates Mean Time to Stall (in cycles) from an
// observed occupancy histogram — counts[k] cycles spent at occupancy
// level k, the last level meaning full — and the observed stall count.
func ExcursionMTS(counts []uint64, stalls uint64) float64 {
	return analysis.ExcursionMTS(counts, stalls)
}
