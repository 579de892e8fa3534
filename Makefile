.PHONY: build test lint selfcheck hotcheck verify bench bench-netsim bench-netsim-event bench-model bench-critpath bench-smoke scorecard scorecard-q31 scorecard-degraded timeline critpath critpath-q31 bench-overhead campaign campaign-smoke

build:
	go build ./...

test:
	go test ./...

# lint runs the project's static-analysis suite (determinism, float
# comparison, enum exhaustiveness, error handling). Exit 1 on findings.
lint:
	go run ./cmd/repolint ./...

# selfcheck runs repolint over its own testdata fixtures at the CLI
# level: every analyzer's bad fixture must fail, every clean fixture
# must pass under the full suite.
selfcheck:
	./scripts/selfcheck.sh

# hotcheck cross-checks the static hotalloc proof against measured
# allocations: reruns the q=11 benchmarks of the one advance loop under
# both wake policies (BenchmarkCycleLoop visits every link, BenchmarkEventLoop
# only woken ones) and asserts every variant stays at or below 1
# allocs/op. Fails when the static "allocation-free" verdict and the
# measured numbers disagree — in either direction (a regression, or a
# vacuous proof), and when either policy lacks a measured witness (both
# are the hotcheck -bench default).
hotcheck:
	go run ./cmd/benchreport run -label hotcheck -bench 'CycleLoop|EventLoop' -pkg ./internal/netsim -count 3
	go run ./cmd/benchreport hotcheck -root . BENCH_hotcheck.json

# verify is the pre-commit gate: gofmt + vet + build + repolint (with
# fixture selfcheck) + race-enabled tests for the concurrency-bearing
# packages + the full suite + vet and tests of the cmd/pfbench module
# (its own go.mod, so ./... skips it) + the measured gates (bench smoke,
# hotcheck, scorecards, timeline).
verify:
	./scripts/verify.sh

# bench runs the full benchmark suite through benchreport (5 repetitions
# for spread statistics) and writes BENCH_local.json at the repo root.
bench:
	go run ./cmd/benchreport run -label local -count 5

# bench-netsim reruns the q=11 hot-loop benchmarks (fault-free and
# faulted) and writes BENCH_netsim-local.json for comparison against the
# committed recording of the current code. The threshold fails any
# ns/op, B/op or allocs/op more than 50% above the recording:
#   go run ./cmd/benchreport compare -threshold 0.5 BENCH_netsim.json BENCH_netsim-local.json
bench-netsim:
	go run ./cmd/benchreport run -label netsim-local -bench HotLoop -pkg ./internal/netsim -count 5

# bench-netsim-event reruns the wake-set policy benchmarks (the q=11
# event-policy loop, the q=31 Hamiltonian cycle-vs-event scale point and
# the q=31 low-depth sim-q31 fabric point under both policies, each with
# its ns/flit) and writes BENCH_netsim-event-local.json for comparison
# against the committed baseline. The wide threshold absorbs runner
# drift while still failing if the wake-set policy's order-of-magnitude
# advantage at q=31 evaporates:
#   go run ./cmd/benchreport compare -threshold 2.0 BENCH_netsim-event.json BENCH_netsim-event-local.json
bench-netsim-event:
	go run ./cmd/benchreport run -label netsim-event-local -bench 'EventLoop|EngineScale' -pkg ./internal/netsim -count 3

# bench-model reruns the planning-stage benchmarks: ER_q construction up
# to q=37, Instance.Embed for the low-depth, Hamiltonian and single-tree
# forests at q=11 and q=37, the Algorithm 1 waterfill on the q=11 and q=37
# low-depth and Hamiltonian forests, and the single-link worst case at
# q=11. Writes BENCH_model-local.json for comparison against the
# committed baseline. The wide threshold absorbs runner drift while still
# failing if the interned kernel's or the hash-free graph's speedup
# evaporates:
#   go run ./cmd/benchreport compare -threshold 2.0 BENCH_model.json BENCH_model-local.json
bench-model:
	go run ./cmd/benchreport run -label model-local -bench 'Waterfill|WorstCaseLink|Embed|TopologyConstruction' -pkg . -count 5

# bench-critpath reruns the critical-path builder benchmarks on a
# faulted q=11 m=1024 low-depth allreduce: BuilderObserve replays the
# recorded trace into a fresh critpath.Builder, then Analyze;
# BuilderLive runs the spec bare and with a builder attached, so its
# ns/event includes the cache contention with the simulator. Writes
# BENCH_critpath-local.json for comparison against the committed
# baseline. The wide threshold absorbs runner drift; it only fails if
# the layer gets three times slower:
#   go run ./cmd/benchreport compare -threshold 2.0 BENCH_critpath.json BENCH_critpath-local.json
bench-critpath:
	go run ./cmd/benchreport run -label critpath-local -bench 'BuilderObserve|BuilderLive' -pkg ./internal/critpath -count 5

# bench-smoke is the CI-sized variant: one iteration per benchmark, just
# enough to prove the pipeline (go test -bench → parser → snapshot)
# stays healthy. Writes BENCH_smoke.json.
bench-smoke:
	go run ./cmd/benchreport run -label smoke -count 1 -benchtime 1x

# scorecard sweeps q ∈ {3,5,7,11} through the cycle simulator and checks
# measured bandwidth against the Algorithm 1 model and the Theorem
# 7.6 / 7.19 floors. Writes BENCH_scorecard.json; exits 1 on violation.
scorecard:
	go run ./cmd/benchreport scorecard

# scorecard-q31 runs the full §7.3-scale design point: the q=31 (N=993)
# sweep on the event engine, gated against the Theorem 7.6 / 7.19 floors
# exactly like the main scorecard. The Hamiltonian fill transient grows
# with tree depth (N−1)/2 = 496, so the vector scales up with q to keep
# the steady state dominant (m=196608 lands the point at −7.5% of the
# Theorem 7.19 floor; the default m=16384 would sit at −49%). Writes
# BENCH_q31.json; exits 1 on violation. CI regenerates it and
# byte-compares against the committed snapshot (engine choice never
# changes a point). The runs are untraced; measured 715 s on a shared
# 2-core, 8 GB host (1365 s when an obsv collector folded the ~8·10⁸
# trace events per embedding), peaking near 6 GB, nearly all of it the
# N×m input and output vectors of the two embeddings in flight.
scorecard-q31:
	go run ./cmd/benchreport scorecard -q 31 -m 196608 -engine event -label q31

# scorecard-degraded fails the worst-case link mid-reduction for every
# embedding and gates the simulator's measured post-recovery bandwidth
# against the core.Degrade analytical prediction. Writes
# BENCH_degraded.json; exits 1 on violation.
scorecard-degraded:
	go run ./cmd/benchreport scorecard -degraded -label degraded

# timeline runs the streaming-telemetry gate at the default point (q=7,
# m=16384): every embedding simulated with the tsdb sampler/analyzer
# attached, bound violations and footprint checked. Writes
# TIMELINE_local.json; exits 1 on violation.
timeline:
	go run ./cmd/benchreport timeline -label local

# critpath runs the causal critical-path sweep at the default point
# (q ∈ {3,5,7,11}, m=16384, worst-case link failed at cycle 2000 in the
# faulted half) and gates on exact per-cycle blame conservation.
# Writes CRITPATH_scorecard.json; exits 1 on violation.
critpath:
	go run ./cmd/benchreport critpath -label scorecard

# critpath-q31 runs the critical-path gate at the paper's q=31 (N=993)
# on the event engine: every embedding fault-free and with the
# worst-case link failed at cycle 700, serially. Writes
# CRITPATH_q31.json; exits 1 on violation. CI regenerates it and
# byte-compares against the committed snapshot.
critpath-q31:
	go run ./cmd/benchreport critpath -q 31 -m 16384 -fail-at 700 -engine event -parallel 1 -label q31

# campaign runs the full seeded chaos campaign: 64 randomized fault
# plans per design point over q ∈ {3,5,7,11} × {low-depth, hamiltonian}
# (512 runs), checking the per-run invariants (exact outputs, flit
# conservation, exact critpath blame, Degrade-predicted bandwidth,
# classified sentinels). Writes CAMPAIGN_scorecard.json; exits 1 on any
# violation.
campaign:
	go run ./cmd/benchreport campaign -label scorecard

# campaign-smoke is the CI-sized variant: q=5 only, 16 plans per
# embedding. Writes CAMPAIGN_smoke.json; exits 1 on any violation.
campaign-smoke:
	go run ./cmd/benchreport campaign -q 5 -runs 16 -m 1024 -label smoke

# bench-overhead runs the sampled hot-loop benchmark, whose every
# iteration times an unsampled and a sampled run of one spec back to
# back (10 such pairs per benchmark line, 5 lines), and gates the
# sampling overhead at 5% of the median base time. Writes
# BENCH_overhead.json.
bench-overhead:
	go run ./cmd/benchreport run -label overhead -bench HotLoopSampled -pkg ./internal/tsdb -count 5 -benchtime 10x
	go run ./cmd/benchreport overhead BENCH_overhead.json
