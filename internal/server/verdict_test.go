package server_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/qos"
	"repro/internal/recovery"
	"repro/internal/server"
	"repro/internal/wire"
)

// TestVerdictTableBothModes drives the same scripted frame through an
// in-order and an out-of-order Lockstep engine and requires identical
// per-seq verdicts and identical refusal counters: the stall / throttle
// / malformed → policy → reply table is one contract, whichever issue
// mode meets the refusal. Each script keeps the modes' issue order the
// same so only the table is under test: one channel makes the stage a
// plain FIFO where the memory refuses, and the throttle case (at most
// one grant per cycle) gets four so the in-order port budget never ends
// a cycle before the next head has met the gate.
func TestVerdictTableBothModes(t *testing.T) {
	type verdict struct {
		completed    bool
		status, code byte
	}
	type ledger struct{ stalls, stallRetries, throttled, dropped uint64 }

	const n = 16
	mixed := func(width int) []wire.Request {
		var reqs []wire.Request
		for i := uint64(0); i < n; i++ {
			r := wire.Request{Op: wire.OpRead, Seq: i, Addr: i * 64}
			if i%4 == 3 {
				r.Op, r.Data = wire.OpWrite, make([]byte, width)
			}
			reqs = append(reqs, r)
		}
		return reqs
	}
	causes := []struct {
		name     string
		cfg      core.Config
		channels int
		limit    *qos.Limit
		reqs     []wire.Request
	}{
		{"controller-stall", core.Config{Banks: 1, QueueDepth: 1, WordBytes: 8}, 1, nil, mixed(8)},
		{"tenant-throttle", smallCfg(), 4, &qos.Limit{Rate: 0.25, Burst: 1}, mixed(8)},
		{"malformed", smallCfg(), 1, nil, mixed(64)},
	}
	policies := []struct {
		name string
		pol  recovery.Policy
		max  int
	}{
		{"drop", recovery.DropWithAccounting, 0},
		{"backpressure-2", recovery.Backpressure, 2},
	}

	for _, cause := range causes {
		for _, pol := range policies {
			t.Run(cause.name+"/"+pol.name, func(t *testing.T) {
				run := func(ooo bool) (map[uint64]verdict, ledger) {
					cfg := server.Config{
						Mem:         testMem(t, cause.cfg, cause.channels),
						Policy:      pol.pol,
						MaxAttempts: pol.max,
						OOO:         ooo,
						Lockstep:    true,
					}
					if cause.limit != nil {
						cfg.QoS = testRegulator(t, map[string]qos.Limit{"t": *cause.limit})
					}
					eng, err := server.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					defer eng.Close()
					h := newHarness(t, eng)
					h.hello(0, "t")
					h.send(append(append([]wire.Request(nil), cause.reqs...),
						wire.Request{Op: wire.OpFlush, Seq: 100})...)
					h.awaitReply(100)

					got := make(map[uint64]verdict, n)
					for seq := uint64(0); seq < n; seq++ {
						r, isReply := h.awaitVerdict(seq)
						got[seq] = verdict{completed: !isReply, status: r.Status, code: r.Code}
					}
					s := eng.Snapshot()
					return got, ledger{s.Stalls, s.StallRetries, s.Throttled, s.Dropped}
				}
				inOrder, inLedger := run(false)
				outOrder, outLedger := run(true)
				for seq := uint64(0); seq < n; seq++ {
					if inOrder[seq] != outOrder[seq] {
						t.Errorf("seq %d: in-order %+v, out-of-order %+v", seq, inOrder[seq], outOrder[seq])
					}
				}
				if inLedger != outLedger {
					t.Errorf("ledgers diverge: in-order %+v, out-of-order %+v", inLedger, outLedger)
				}
				if inLedger == (ledger{}) {
					t.Errorf("script provoked no refusal (verdicts %+v)", inOrder)
				}
			})
		}
	}
}
