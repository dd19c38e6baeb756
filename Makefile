# Verification entry points. `make ci` is a superset of the tier-1
# verify (`go build ./... && go test ./...`) recorded in ROADMAP.md.

GO ?= go

.PHONY: ci vet build test benchmark-test race chaos netchaos fleetchaos fuzz bench bench-gate bench-diff profile-ooo profile-client profile-daemon trace-sample lint

ci: vet build test benchmark-test race chaos netchaos fleetchaos

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# benchmark/ is a nested module, so `go test ./...` never compiles it;
# this is what stops a change from deleting an internal/ symbol the
# frozen wall-clock benchmark still uses.
benchmark-test:
	cd benchmark && $(GO) vet . && $(GO) test .

# Race-check the fault/recovery/chaos stack, the core controller, the
# networked service (wire codec, vpnmd engine, batching client), and the
# telemetry plane (metrics registry, event trace, probed multichannel).
race:
	$(GO) test -race ./internal/core ./internal/coded ./internal/dram ./internal/fault ./internal/recovery ./internal/sim ./internal/wire ./internal/server ./internal/client ./internal/qos ./internal/telemetry ./internal/multichannel ./internal/shard

# Short chaos smoke: fault injection + recovery + invariant checks.
chaos:
	$(GO) test -race -run Chaos ./internal/sim ./internal/recovery ./internal/fault

# End-to-end tenant-isolation smoke: a regulated two-tenant engine over
# a real TCP loopback with FlakyConn weather on both transports, one
# forced mid-run cut, and exact ledger reconciliation after drain.
netchaos:
	$(GO) test -race -run 'NetChaos$$' -count=1 ./internal/sim

# Fleet-scale chaos smoke: a 4-shard consistent-hash fleet over real TCP
# with FlakyConn weather on a shard subset, one forced cut, and one live
# shard drain mid-traffic. Gates exactly-once delivery per key, zero
# fixed-D violations on every shard, and exact fleet-wide ledger
# reconciliation across five seeds.
fleetchaos:
	$(GO) test -race -run 'FleetChaos$$' -count=1 ./internal/sim

# Brief coverage-guided fuzz of the controller and retrier contracts,
# plus the wire codec's hostile-input surface.
fuzz:
	$(GO) test ./internal/core -fuzz FuzzControllerOps -fuzztime 10s
	$(GO) test ./internal/core -fuzz FuzzRetrierOps -fuzztime 10s
	$(GO) test ./internal/core -fuzz 'FuzzParityReconstruct$$' -fuzztime 10s
	$(GO) test ./internal/wire -fuzz 'FuzzFrameDecode$$' -fuzztime 10s
	$(GO) test ./internal/wire -fuzz 'FuzzFrameDecodeShortReads$$' -fuzztime 10s
	$(GO) test ./internal/wire -fuzz 'FuzzPooledRoundTrip$$' -fuzztime 10s
	$(GO) test ./internal/addrtab -fuzz 'FuzzAddrTable$$' -fuzztime 10s

# Gated benchmark set. BENCH_parallel.txt is benchstat-compatible raw
# output; BENCH_parallel.json is the parsed form bench-gate compares
# against bench/baseline.json. The one-shot benchmarks report
# deterministic metrics (req/cycle, speedup-x) from a single run; the
# steady-state benchmarks (loopback, ProbeOverhead, regulator) need a
# pinned iteration count both to reach their gated 0 allocs/op steady
# state and to keep the deterministic cycle counts reproducible.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkBaselineVsVPNM$$|BenchmarkSweepSpeedup$$' -benchmem -benchtime 1x -count=1 . | tee BENCH_parallel.txt
	$(GO) test -run '^$$' -bench 'BenchmarkServerLoopback$$' -benchmem -benchtime 2000x -count=1 . | tee -a BENCH_parallel.txt
	$(GO) test -run '^$$' -bench 'BenchmarkServerLoopbackOOO$$' -benchmem -benchtime 2000x -count=1 . | tee -a BENCH_parallel.txt
	$(GO) test -run '^$$' -bench 'BenchmarkServerLoopbackCoded$$' -benchmem -benchtime 6000x -count=1 . | tee -a BENCH_parallel.txt
	$(GO) test -run '^$$' -bench 'BenchmarkProbeOverhead$$' -benchmem -benchtime 20000x -count=1 . | tee -a BENCH_parallel.txt
	$(GO) test -run '^$$' -bench 'BenchmarkTickSparse$$|BenchmarkTickDense$$' -benchmem -benchtime 50000x -count=1 . | tee -a BENCH_parallel.txt
	$(GO) test -run '^$$' -bench 'BenchmarkTickCoded$$' -benchmem -benchtime 50000x -count=1 . | tee -a BENCH_parallel.txt
	$(GO) test -run '^$$' -bench 'BenchmarkServerRegulated/loopback$$' -benchmem -benchtime 2000x -count=1 . | tee -a BENCH_parallel.txt
	$(GO) test -run '^$$' -bench 'BenchmarkServerRegulated/regulator$$' -benchmem -benchtime 100000x -count=1 . | tee -a BENCH_parallel.txt
	$(GO) test -run '^$$' -bench 'BenchmarkFleetLoopback$$' -benchmem -benchtime 2000x -count=1 . | tee -a BENCH_parallel.txt
	$(GO) run ./cmd/benchgate -parse -o BENCH_parallel.json BENCH_parallel.txt

# Fail on regression vs the committed baseline: >20% on throughput
# metrics, ANY increase on allocs/op and B/op (strict units — see
# cmd/benchgate).
bench-gate: bench
	$(GO) run ./cmd/benchgate -gate -baseline bench/baseline.json -threshold 0.20 BENCH_parallel.json

# Benchstat-style old/new table of the fresh report against the
# committed baseline. Informational — it never fails the build — and
# uploaded as a CI artifact next to the gate verdict; it is where the
# machine-dependent ns/op numbers the gate ignores stay visible.
bench-diff: bench
	$(GO) run ./cmd/benchgate -diff bench/baseline.json BENCH_parallel.json | tee BENCH_diff.txt

# CPU profile of the out-of-order loopback data plane — the artifact to
# start from when hunting the next req/s increment. 8000x amortizes the
# warmup edge out of the profile; inspect with `go tool pprof ooo.pprof`.
profile-ooo:
	$(GO) test -run '^$$' -bench 'BenchmarkServerLoopbackOOO$$' -benchtime 8000x -count=1 -cpuprofile ooo.pprof .

# CPU profile of the client alone: BenchmarkClientClosedLoop keeps a
# full window of reads in flight against an in-process responder with
# no engine, so client.pprof shows only the client's per-request cost
# (window, pending table, frame encode/decode, callbacks). Inspect with
# `go tool pprof client.pprof`.
profile-client:
	$(GO) test -run '^$$' -bench 'BenchmarkClientClosedLoop$$' -benchmem -benchtime 10000000x -count=1 -cpuprofile client.pprof ./internal/client

# CPU profile of the shipped daemon under load: 10 s of vpnmload while
# daemon.pprof is pulled from /debug/pprof/profile. The daemon is killed
# however the run ends. Inspect with `go tool pprof daemon.pprof`.
# PROFILE_DAEMON_FLAGS and PROFILE_LOAD_FLAGS pick the workload shape;
# the defaults are the wall-clock benchmark's default-flags shape. The
# other benchmark shapes (benchmark/README.md) are:
#
#   write-heavy:     PROFILE_LOAD_FLAGS='-window 8192 -batch 256 -writefrac 0.5'
#   saturated-reads: PROFILE_DAEMON_FLAGS='-ooo -coded group=4,k=2'
#                    PROFILE_LOAD_FLAGS='-window 16384 -batch 256 -writefrac 0 -addrspace 16777216'
#   hot-set:         PROFILE_DAEMON_FLAGS='-ooo'
#                    PROFILE_LOAD_FLAGS='-window 8192 -batch 256 -writefrac 0 -addrspace 64'
#
# (open-100k is open loop, which vpnmload does not drive.)
PROFILE_ADDR ?= 127.0.0.1:17450
PROFILE_STATSZ ?= 127.0.0.1:17451
PROFILE_DAEMON_FLAGS ?=
PROFILE_LOAD_FLAGS ?= -window 512 -batch 256 -writefrac 0.1
profile-daemon:
	@set -eu; bin=$$(mktemp -d); pid=; \
	trap 'if [ -n "$$pid" ]; then kill $$pid 2>/dev/null || true; wait $$pid 2>/dev/null || true; fi; rm -rf $$bin' EXIT; \
	$(GO) build -o $$bin/vpnmd ./cmd/vpnmd; \
	$(GO) build -o $$bin/vpnmload ./cmd/vpnmload; \
	$$bin/vpnmd -addr $(PROFILE_ADDR) -statsz $(PROFILE_STATSZ) -q $(PROFILE_DAEMON_FLAGS) & pid=$$!; \
	for i in $$(seq 100); do curl -sf http://$(PROFILE_STATSZ)/healthz >/dev/null && break; sleep 0.1; done; \
	curl -sf -o daemon.pprof "http://$(PROFILE_STATSZ)/debug/pprof/profile?seconds=10" & prof=$$!; \
	$$bin/vpnmload -addr $(PROFILE_ADDR) -duration 11s $(PROFILE_LOAD_FLAGS); \
	wait $$prof; echo "wrote daemon.pprof"

# Sample Chrome trace artifact: 512 random reads through a small
# controller, dumped as trace_event JSON for chrome://tracing.
trace-sample:
	$(GO) run ./cmd/vpnmtrace -rand 512 -chrome trace.json

# Static analysis beyond `go vet`; CI runs this via golangci-lint-action.
lint:
	golangci-lint run ./...
