package sim

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/recovery"
	"repro/internal/workload"
)

// ChaosOptions configures a chaos run: a workload driven through a
// recovery.Retrier against a fault-injected controller, with every VPNM
// invariant checked end to end.
type ChaosOptions struct {
	// Cycles is the number of interface cycles to simulate (the drain
	// afterwards adds more).
	Cycles int
	// Core configures the controller. When slow-bank faults are enabled
	// and Core.Delay is zero, RunChaos provisions the delay headroom
	// automatically via AutoDelayWithSlack.
	Core core.Config
	// Fault configures the injector (zero value: ECC on, no faults).
	Fault fault.Config
	// Recovery configures the Retrier; its OnAccept/OnDrop hooks are
	// chained after the harness's own bookkeeping.
	Recovery recovery.Config
	// Gen supplies the request stream. While a request is parked for
	// retry the generator is not advanced — the device is stalled.
	Gen workload.Generator
	// MaxViolations caps recorded invariant violations (default 16).
	MaxViolations int
}

// ChaosResult aggregates a chaos run. The run is judged by Violations:
// an empty list means every invariant held under fault injection.
type ChaosResult struct {
	// Sim carries throughput/latency aggregates (same shape as Run's).
	Sim *Result
	// Stats is the controller's ledger, Fault the injector's, Recovery
	// the retrier's. The three are reconciled against each other and any
	// disagreement is a violation.
	Stats    core.Stats
	Fault    fault.Counters
	Recovery recovery.Counters
	// Issued counts ops presented by the generator; Accepted and Dropped
	// partition their outcomes; Deferred counts ops that were parked at
	// least once before resolving.
	Issued, Accepted, Dropped, Deferred uint64
	// Flagged counts completions delivered with ErrUncorrectable — faults
	// the ECC layer detected but could not repair. Unflagged corrupt
	// data, by contrast, is a violation.
	Flagged uint64
	// Violations lists every invariant breach observed, capped at
	// MaxViolations.
	Violations []string
}

// Ok reports whether the run upheld every invariant.
func (r *ChaosResult) Ok() bool { return len(r.Violations) == 0 }

// String renders a multi-line report.
func (r *ChaosResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v\n", r.Sim)
	fmt.Fprintf(&b, "chaos: issued=%d accepted=%d dropped=%d deferred=%d flagged=%d\n",
		r.Issued, r.Accepted, r.Dropped, r.Deferred, r.Flagged)
	fmt.Fprintf(&b, "fault: injected-single=%d injected-double=%d stuck=%d corrected=%d uncorrectable=%d scrubs=%d slow=%d(+%d cycles) escaped=%d\n",
		r.Fault.InjectedSingle, r.Fault.InjectedDouble, r.Fault.StuckApplied,
		r.Fault.CorrectedReads, r.Fault.UncorrectableReads, r.Fault.Scrubs,
		r.Fault.SlowAccesses, r.Fault.ExtraCycles, r.Fault.Escaped)
	fmt.Fprintf(&b, "recovery: retries=%d retried-ok=%d drops=%d exhausted=%d deferred-cycles=%d stalls=%d\n",
		r.Recovery.Retries, r.Recovery.RetriedOK, r.Recovery.Drops,
		r.Recovery.Exhausted, r.Recovery.DeferredCycles, r.Recovery.Stalls.Total())
	if r.Ok() {
		fmt.Fprintf(&b, "invariants: all held")
	} else {
		fmt.Fprintf(&b, "invariants: %d VIOLATIONS\n", len(r.Violations))
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  - %s\n", v)
		}
	}
	return b.String()
}

// RunChaos drives opts.Gen through a Retrier against a fault-injected
// controller for opts.Cycles interface cycles plus a full drain, and
// checks the VPNM invariants end to end:
//
//   - every completed read arrives exactly Delay() cycles after issue,
//     faults or no faults;
//   - no corrupted data escapes ECC undetected: every unflagged
//     completion matches a serial model of accepted writes, and every
//     mismatch must carry ErrUncorrectable;
//   - every issued request resolves exactly once (accepted or dropped);
//   - the controller's, injector's and retrier's ledgers reconcile.
//
// Violations are recorded, not fatal, so tests can also assert that the
// harness detects deliberately broken configurations (ECC disabled).
func RunChaos(opts ChaosOptions) (*ChaosResult, error) {
	if opts.Cycles <= 0 {
		return nil, fmt.Errorf("sim: chaos needs Cycles > 0, got %d", opts.Cycles)
	}
	if opts.Gen == nil {
		return nil, fmt.Errorf("sim: chaos needs a workload generator")
	}
	inj, err := fault.New(opts.Fault)
	if err != nil {
		return nil, err
	}
	cfg := opts.Core
	cfg.Fault = inj
	if opts.Fault.SlowBankExtra > 0 && cfg.Delay == 0 {
		cfg.Delay = cfg.AutoDelayWithSlack(opts.Fault.SlowBankExtra)
	}
	res := &ChaosResult{Sim: &Result{latSeen: make(map[uint64]struct{})}}
	maxV := opts.MaxViolations
	if maxV <= 0 {
		maxV = 16
	}
	violate := func(format string, a ...any) {
		if len(res.Violations) < maxV {
			res.Violations = append(res.Violations, fmt.Sprintf(format, a...))
		}
	}

	word := cfg.WordBytes
	if word == 0 {
		word = core.DefaultWordBytes
	}
	model := make(map[uint64][]byte)  // serial model of accepted writes
	expect := make(map[uint64][]byte) // tag -> model snapshot at accept

	rcfg := opts.Recovery
	userAccept, userDrop := rcfg.OnAccept, rcfg.OnDrop
	rcfg.OnAccept = func(write bool, addr uint64, tag uint64, data []byte) {
		res.Accepted++
		if write {
			w := model[addr]
			if w == nil {
				w = make([]byte, word)
				model[addr] = w
			}
			n := copy(w, data)
			for i := n; i < len(w); i++ {
				w[i] = 0
			}
		} else {
			snap := make([]byte, word)
			if w := model[addr]; w != nil {
				copy(snap, w)
			}
			expect[tag] = snap
		}
		if userAccept != nil {
			userAccept(write, addr, tag, data)
		}
	}
	rcfg.OnDrop = func(write bool, addr uint64, cause error) {
		res.Dropped++
		if userDrop != nil {
			userDrop(write, addr, cause)
		}
	}

	ctrl, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	ret := recovery.NewRetrier(ctrl, rcfg)
	d := uint64(ctrl.Delay())

	check := func(comp core.Completion) {
		res.Sim.observe(comp)
		if got := comp.DeliveredAt - comp.IssuedAt; got != d {
			violate("tag %d: latency %d != D=%d", comp.Tag, got, d)
		}
		want, ok := expect[comp.Tag]
		if !ok {
			violate("unsolicited completion tag %d", comp.Tag)
			return
		}
		delete(expect, comp.Tag)
		if comp.Err != nil {
			if errors.Is(comp.Err, core.ErrUncorrectable) {
				res.Flagged++
			} else {
				violate("tag %d: unexpected completion error %v", comp.Tag, comp.Err)
			}
			return // flagged data is allowed to differ from the model
		}
		if !bytes.Equal(comp.Data, want) {
			violate("tag %d addr %d: corrupted data escaped undetected", comp.Tag, comp.Addr)
		}
	}

	var op workload.Op
	var opData []byte
	for cyc := 0; cyc < opts.Cycles; cyc++ {
		// A parked request holds the port; a successful retry inside the
		// previous Tick consumed this cycle's port. Either way the device
		// is stalled and the generator must wait.
		if !ret.PortBusy() {
			op = opts.Gen.Next()
			if op.Kind == workload.OpWrite {
				opData = append(opData[:0], op.Data...)
				op.Data = opData
			}
			var err error
			switch op.Kind {
			case workload.OpIdle:
			case workload.OpRead:
				res.Issued++
				_, err = ret.Read(op.Addr)
			case workload.OpWrite:
				res.Issued++
				err = ret.Write(op.Addr, op.Data)
			}
			switch {
			case err == nil:
			case errors.Is(err, recovery.ErrDeferred):
				res.Deferred++
			case errors.Is(err, recovery.ErrDropped):
				// accounted via OnDrop
			default:
				return nil, fmt.Errorf("sim: chaos cycle %d: %w", cyc, err)
			}
		}
		for _, comp := range ret.Tick() {
			check(comp)
		}
		res.Sim.Cycles++
	}
	for _, comp := range ret.Flush() {
		check(comp)
	}
	if n := len(expect); n > 0 {
		violate("%d accepted reads never completed", n)
	}

	res.Stats = ctrl.Stats()
	ctrl.PublishProbe() // a probed run's gauges and counters end on the same ledger
	res.Fault = inj.Counters()
	res.Recovery = ret.Counters()
	res.Sim.Reads = res.Recovery.Reads
	res.Sim.Writes = res.Recovery.Writes
	res.Sim.Stalls = res.Recovery.Stalls.Total()
	res.Sim.Drops = res.Recovery.Drops

	// Ledger reconciliation: three independent bookkeepers, one truth.
	st, rc, fc := res.Stats, res.Recovery, res.Fault
	if st.Stalls != rc.Stalls {
		violate("stall ledgers diverge: controller %+v vs retrier %+v", st.Stalls, rc.Stalls)
	}
	if st.Reads != rc.Reads || st.Writes != rc.Writes {
		violate("accept ledgers diverge: controller r=%d w=%d vs retrier r=%d w=%d",
			st.Reads, st.Writes, rc.Reads, rc.Writes)
	}
	if res.Issued != res.Accepted+res.Dropped {
		violate("request leak: issued %d != accepted %d + dropped %d",
			res.Issued, res.Accepted, res.Dropped)
	}
	if st.ECCCorrected != fc.CorrectedReads {
		violate("corrected ledgers diverge: controller %d vs injector %d",
			st.ECCCorrected, fc.CorrectedReads)
	}
	if st.ECCUncorrectable != fc.UncorrectableReads {
		violate("uncorrectable ledgers diverge: controller %d vs injector %d",
			st.ECCUncorrectable, fc.UncorrectableReads)
	}
	if st.UncorrectableDelivered != res.Flagged {
		violate("flagged ledgers diverge: controller delivered %d vs observed %d",
			st.UncorrectableDelivered, res.Flagged)
	}
	// Every poisoned row fill serves at least one completion (merges can
	// add more), so flagged completions bound uncorrectable reads below.
	if res.Flagged < st.ECCUncorrectable {
		violate("poisoned fills outnumber flagged completions: %d fills, %d flagged",
			st.ECCUncorrectable, res.Flagged)
	}
	return res, nil
}
