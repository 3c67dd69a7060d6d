#!/usr/bin/env bash
# Builds netmaster-serve and the benchmark driver from this checkout into
# .bench_build/, then runs the driver with the given arguments:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root" && go build -o "$out/netmaster-serve" ./cmd/netmaster-serve) >&2
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -serve "$out/netmaster-serve" -work "$out" "$@"
