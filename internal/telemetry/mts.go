package telemetry

import (
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
)

// MTSEstimator turns the per-cycle occupancy samples a MemProbe feeds
// it into a running Mean-Time-to-Stall estimate. The paper computes MTS
// analytically from a Markov chain over one bank's backlog; a live
// system near its design point essentially never stalls (MTS ~ 10^13
// cycles), so the estimator instead watches the distribution of the
// deepest bank queue each cycle and extrapolates its geometric tail to
// the full-queue level (analysis.ExcursionMTS). When stalls do occur,
// the observed stall rate takes over.
//
// ObserveN is allocation-free and single-writer (the clock-owning
// goroutine); Report may be called concurrently from scrape handlers.
type MTSEstimator struct {
	counts []atomic.Uint64 // counts[k]: cycles whose max bank queue was k (clamped)
	reqs   atomic.Uint64   // cumulative requests at the last SetLedger
	stalls atomic.Uint64   // cumulative stalls at the last SetLedger

	// Optional chain-model parameters (Model).
	banks, latency int
	ratio          float64

	// Model result memo: the chain solve costs milliseconds, so it is
	// recomputed only once the observation count doubles.
	modelMu  sync.Mutex
	modelAt  uint64
	modelVal float64
}

// NewMTSEstimator sizes the estimator for a per-bank access queue of
// queueDepth entries (core.Config.QueueDepth).
func NewMTSEstimator(queueDepth int) *MTSEstimator {
	if queueDepth < 1 {
		queueDepth = 1
	}
	return &MTSEstimator{counts: make([]atomic.Uint64, queueDepth+1)}
}

// Model additionally arms the chain-model estimate: the bank-queue
// Markov chain of Section 5 solved at the *observed* request rate
// rather than the paper's assumed one-request-per-cycle load. banks and
// accessLatency are the controller's B and L; ratio its bus scaling R.
func (e *MTSEstimator) Model(banks, accessLatency int, ratio float64) {
	e.banks, e.latency, e.ratio = banks, accessLatency, ratio
}

func (e *MTSEstimator) modeled() bool { return e.banks > 0 }

// ObserveN records n cycles whose deepest bank queue was maxBankQueue.
func (e *MTSEstimator) ObserveN(maxBankQueue int, n uint64) {
	e.counts[min(max(maxBankQueue, 0), len(e.counts)-1)].Add(n)
}

// SetLedger records the cumulative request and stall counts the
// estimates divide by. They change only when requests arrive, so a
// probe sets them at scrape time rather than every cycle.
func (e *MTSEstimator) SetLedger(reqsTotal, stallsTotal uint64) {
	e.reqs.Store(reqsTotal)
	e.stalls.Store(stallsTotal)
}

// MTSReport is a point-in-time MTS estimate.
type MTSReport struct {
	// Ticks is the number of cycles observed; Requests and Stalls the
	// cumulative ledgers at the last SetLedger.
	Ticks, Requests, Stalls uint64
	// Excursion is the occupancy-excursion estimate in interface
	// cycles: observed stall rate when stalls occurred, geometric tail
	// extrapolation otherwise, analysis.MTSCap when the tail carries no
	// signal yet.
	Excursion float64
	// Model is the bank-queue chain solved at the observed request
	// rate, in interface cycles; zero unless Model was called.
	Model float64
}

// Report computes the current estimate.
func (e *MTSEstimator) Report() MTSReport {
	r := MTSReport{
		Requests: e.reqs.Load(),
		Stalls:   e.stalls.Load(),
	}
	counts := make([]uint64, len(e.counts))
	for i := range e.counts {
		counts[i] = e.counts[i].Load()
		r.Ticks += counts[i]
	}
	r.Excursion = analysis.ExcursionMTS(counts, r.Stalls)
	if e.modeled() {
		r.Model = e.modelEstimate(r)
	}
	return r
}

// modelEstimate solves the bank-queue chain at the observed load,
// memoized until the tick count doubles.
func (e *MTSEstimator) modelEstimate(r MTSReport) float64 {
	if r.Ticks == 0 || r.Requests == 0 {
		return analysis.MTSCap
	}
	e.modelMu.Lock()
	defer e.modelMu.Unlock()
	if e.modelAt > 0 && r.Ticks < 2*e.modelAt {
		return e.modelVal
	}
	// Arrival probability per memory cycle is a/(B*R) for request rate
	// a = requests/cycle; the chain encodes p = 1/(B*R'), so solve with
	// the effective ratio R' = R/a.
	a := float64(r.Requests) / float64(r.Ticks)
	if a > 1 {
		a = 1
	}
	chain, err := analysis.NewBankQueueChain(e.banks, len(e.counts)-1, e.latency, e.ratio/a)
	if err != nil {
		return analysis.MTSCap
	}
	mts := chain.MTS() / e.ratio // memory cycles -> interface cycles
	if mts > analysis.MTSCap {
		mts = analysis.MTSCap
	}
	e.modelAt, e.modelVal = r.Ticks, mts
	return mts
}
