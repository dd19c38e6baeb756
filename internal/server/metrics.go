package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"

	"repro/internal/telemetry"
)

// WriteMetrics renders the engine's ledger as Prometheus text series
// under the vpnmd_ prefix. The values come from one seqlock-consistent
// Snapshot, so the serving-level counters in a single scrape reconcile
// with each other (reads = completions + outstanding).
func (e *Engine) WriteMetrics(w io.Writer) error {
	s := e.Snapshot()
	for _, m := range []struct {
		name, kind, help string
		value            uint64
	}{
		{"vpnmd_cycle", "gauge", "Interface cycles completed by the engine clock.", s.Cycle},
		{"vpnmd_delay_cycles", "gauge", "The fixed delay D every read pays, in interface cycles.", uint64(s.Delay)},
		{"vpnmd_channels", "gauge", "Striped VPNM channels served.", uint64(s.Channels)},
		{"vpnmd_conns", "gauge", "Live client connections.", uint64(s.Conns)},
		{"vpnmd_sessions", "gauge", "Client sessions, attached or awaiting resume.", uint64(s.Sessions)},
		{"vpnmd_draining", "gauge", "1 while the engine refuses new work.", b2u(s.Draining)},
		{"vpnmd_outstanding_reads", "gauge", "Reads accepted whose completion has not yet been routed.", s.Outstanding},
		{"vpnmd_reads_total", "counter", "Reads accepted by the memory.", s.Reads},
		{"vpnmd_writes_total", "counter", "Writes accepted by the memory.", s.Writes},
		{"vpnmd_completions_total", "counter", "Read completions routed back to clients.", s.Completions},
		{"vpnmd_stalls_surfaced_total", "counter", "Controller stalls surfaced to clients as StatusStall.", s.Stalls},
		{"vpnmd_stall_retries_total", "counter", "Hold-and-retry re-presentations of stalled requests.", s.StallRetries},
		{"vpnmd_channel_busy_retries_total", "counter", "Same-cycle channel collisions absorbed by retrying.", s.Busy},
		{"vpnmd_throttled_total", "counter", "Tenant token refusals (one per cycle a head is held or surfaced).", s.Throttled},
		{"vpnmd_dropped_total", "counter", "Requests dropped after exhausting retry attempts.", s.Dropped},
		{"vpnmd_drain_refused_total", "counter", "Reads and writes refused with CodeDraining during drain.", s.DrainRefused},
		{"vpnmd_replays_served_total", "counter", "Replayed requests answered from the session replay cache.", s.ReplaysServed},
		{"vpnmd_replays_deduped_total", "counter", "Replayed requests swallowed because the original is still live.", s.ReplaysDeduped},
		{"vpnmd_uncorrectable_total", "counter", "Completions delivered with the uncorrectable-ECC flag.", s.Uncorrectable},
		{"vpnmd_flushes_total", "counter", "Flush barriers resolved.", s.Flushes},
		{"vpnmd_mem_reads_total", "counter", "Reads recorded by the striped memory itself.", s.MemReads},
		{"vpnmd_mem_writes_total", "counter", "Writes recorded by the striped memory itself.", s.MemWrites},
		{"vpnmd_mem_stalls_total", "counter", "Controller stalls recorded by the striped memory.", s.MemStalls},
		{"vpnmd_mem_channel_busy_total", "counter", "Channel-busy refusals recorded by the striped memory.", s.MemBusy},
	} {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n",
			m.name, m.help, m.name, m.kind, m.name, m.value); err != nil {
			return err
		}
	}
	return nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// MetricsHandler serves the engine ledger plus every series in reg (the
// per-channel controller metrics the probes maintain) as one Prometheus
// text page — mount it at /metricsz. Each scrape first has the engine
// publish the probes' scrape-time ledgers at a step boundary, then
// renders while holding off other scrapes, so every channel's gauges
// and counters in one page come from the same cycle. A nil reg serves
// the engine ledger alone.
func (e *Engine) MetricsHandler(reg *telemetry.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var page bytes.Buffer
		e.pubMu.Lock()
		e.WriteMetrics(&page) //nolint:errcheck // a bytes.Buffer write cannot fail
		if reg != nil {
			e.publishProbes()
			reg.WriteTo(&page) //nolint:errcheck // a bytes.Buffer write cannot fail
		}
		e.pubMu.Unlock()
		w.Write(page.Bytes()) //nolint:errcheck // best-effort diagnostics
	})
}
