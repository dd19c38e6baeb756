#!/usr/bin/env bash
# Entry point for the benchmark driver (BENCHMARK.json "command"):
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds the benchmark (a module of its own, nested in the repository so
# it can import repro/internal/...) and runs it; the program builds
# ./cmd/vpnmd itself. Everything written lands inside the checkout:
# binaries and the Go build cache under .bench_build/, traces under
# benchmark/out/. In a directory without the repository's sources the
# build fails and the script exits nonzero without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="${GOCACHE:-$out/gocache}" GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/vpnmbench" .)
cd "$root"
exec "$out/vpnmbench" "$@"
