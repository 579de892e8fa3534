#!/usr/bin/env bash
# Builds the pfbench benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash cmd/pfbench/run.sh --workload sim-q31 --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the compiler's temporary files all
# stay under .bench_build/ in the current directory. Without the rest of
# the repository next to it, the build fails and the script exits non-zero
# before printing any result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS= GOTOOLCHAIN=local GOENV=off CGO_ENABLED=0

(cd "$root/cmd/pfbench" && go build -o "$out/pfbench" .)
exec "$out/pfbench" "$@"
