package main

import (
	"math"
	"testing"
)

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and parentheses must not shift the fields.
	const stat = "4242 (vpnmd (x) y) S 1 4242 4242 0 -1 4194560 1000 0 0 0 1234 766 0 0 20 0 7 0 100 0 0"
	got, err := parseProcStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(1234+766) / clkTck; got != want {
		t.Errorf("cpu seconds = %v, want %v", got, want)
	}
	if _, err := parseProcStatCPU("1 (x) S 1 2"); err == nil {
		t.Error("a truncated stat line parsed")
	}
}

func TestParseVmHWM(t *testing.T) {
	got, err := parseVmHWM("Name:\tvpnmd\nVmPeak:\t  999 kB\nVmHWM:\t   78848 kB\nVmRSS:\t 100 kB\n")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-77) > 1e-9 {
		t.Errorf("VmHWM = %v MB, want 77", got)
	}
	if _, err := parseVmHWM("Name:\tvpnmd\n"); err == nil {
		t.Error("a status without VmHWM parsed")
	}
}

func TestBannerAddr(t *testing.T) {
	addr, ok := bannerAddr("vpnmd: serving 4 channels x 32 banks, D=1004 cycles, word=8B, policy=backpressure on 127.0.0.1:40123")
	if !ok || addr != "127.0.0.1:40123" {
		t.Errorf("banner address = %q, %v", addr, ok)
	}
	for _, line := range []string{
		"vpnmd: /statsz /metricsz /tracez /debug/pprof on 127.0.0.1:7451",
		"vpnmd: serving nothing",
		"vpnmd: serving 4 channels on nowhere",
	} {
		if addr, ok := bannerAddr(line); ok {
			t.Errorf("%q parsed as a service banner: %q", line, addr)
		}
	}
}

func TestSumSeries(t *testing.T) {
	body := []byte(`# HELP vpnm_reads_total Reads.
# TYPE vpnm_reads_total counter
vpnm_reads_total{channel="0"} 10
vpnm_reads_total{channel="1"} 32
vpnm_stalls_total{channel="0",cause="bank-queue"} 1
vpnm_stalls_total{channel="0",cause="coded-port"} 2
vpnmd_cycle 260943
vpnm_mts_estimate_cycles{channel="0",method="model"} 1.5e+14
`)
	got := sumSeries(body)
	for name, want := range map[string]float64{
		"vpnm_reads_total": 42, "vpnm_stalls_total": 3, "vpnmd_cycle": 260943, "vpnm_mts_estimate_cycles": 1.5e14,
	} {
		if got[name] != want {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
}
