#!/bin/sh
# verify.sh — the pre-commit gate: vet, build, repolint (the project's
# static-analysis suite), race-enabled tests for the concurrency-bearing
# packages and the gate pools, the full suite (tier 1), then vet and
# tests of the cmd/pfbench benchmark module.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l"
unformatted=$(gofmt -l cmd internal)
if [ -n "$unformatted" ]; then
    echo "verify: FAIL: gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== repolint ./..."
go run ./cmd/repolint ./...

echo "== repolint selfcheck (bad fixtures fail, clean fixtures pass)"
./scripts/selfcheck.sh

echo "== go test -race -count=1 ./internal/netsim ./internal/faults ./internal/obsv ./internal/core ./internal/collectives ./internal/parrun ./internal/tsdb ./internal/critpath ./internal/chaos"
go test -race -count=1 ./internal/netsim ./internal/faults ./internal/obsv ./internal/core ./internal/collectives ./internal/parrun ./internal/tsdb ./internal/critpath ./internal/chaos

echo "== go test -race: the gate pools (perf sweeps, benchreport -parallel byte identity)"
go test -race -count=1 -run 'Deterministic|FaultFree' ./internal/perf
go test -race -count=1 -run ParallelByteIdentical ./cmd/benchreport

echo "== go test -shuffle=on ./..."
go test -shuffle=on ./...

echo "== cmd/pfbench module (its own go.mod, so ./... skips it): go vet + go test"
(cd cmd/pfbench && go vet ./... && go test ./...)

echo "== bench smoke (benchreport run, 1 iteration per benchmark)"
go run ./cmd/benchreport run -label smoke -count 1 -benchtime 1x >/dev/null

echo "== hotcheck (static alloc-free proof vs measured allocs/op)"
go run ./cmd/benchreport hotcheck -root . BENCH_smoke.json

echo "== scorecard smoke (measured-vs-model gate at q=3)"
go run ./cmd/benchreport scorecard -q 3 -m 4096 -label scorecard-smoke >/dev/null

echo "== parallel scorecard smoke (ordered-commit pool must match serial bytes)"
pardir=$(mktemp -d)
go run ./cmd/benchreport scorecard -q 3 -m 4096 -label scorecard-smoke -parallel 4 -out "$pardir" >/dev/null
if ! cmp -s BENCH_scorecard-smoke.json "$pardir/BENCH_scorecard-smoke.json"; then
    echo "verify: FAIL: -parallel 4 scorecard differs from serial" >&2
    rm -rf "$pardir"
    exit 1
fi
rm -rf "$pardir"

echo "== degraded scorecard (fault-injection recovery vs core.Degrade, q=7)"
go run ./cmd/benchreport scorecard -degraded -q 7 -label degraded-smoke >/dev/null

echo "== critical-path smoke (exact blame conservation gate, q=3)"
cpdir=$(mktemp -d)
go run ./cmd/benchreport critpath -q 3 -m 2048 -fail-at 300 -label critpath-smoke -out "$cpdir" >/dev/null
rm -rf "$cpdir"

echo "== chaos campaign smoke (invariant-checked fault-space exploration, q=5)"
camdir=$(mktemp -d)
go run ./cmd/benchreport campaign -q 5 -runs 8 -m 1024 -label campaign-smoke -out "$camdir" >/dev/null
rm -rf "$camdir"

echo "== telemetry timeline smoke (tsdb sampler/analyzer gate + ground-truth cross-check, q=5)"
tldir=$(mktemp -d)
go run ./cmd/benchreport timeline -q 5 -m 4096 -sample-every 32 -windows 32 \
    -fault-at 100 -max-bytes 40000 -label timeline-smoke -out "$tldir" >/dev/null
rm -rf "$tldir"

echo "verify: OK"
