package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"polarfly/internal/chaos"
	"polarfly/internal/perf"
)

// writeFixture drops a pre-captured bench output file into dir.
func writeFixture(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const benchFixture = `goos: linux
pkg: polarfly
BenchmarkAlpha-8 	 100	 1000 ns/op	 64 B/op	 2 allocs/op
BenchmarkAlpha-8 	 100	 1100 ns/op	 64 B/op	 2 allocs/op
BenchmarkBeta-8  	  50	 2000 ns/op	128 B/op	 4 allocs/op
BenchmarkBeta-8  	  50	 2100 ns/op	128 B/op	 4 allocs/op
PASS
ok  	polarfly	1.234s
`

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func loadSnapshot(t *testing.T, path string) *perf.Snapshot {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	s, err := perf.DecodeSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunFromFixture(t *testing.T) {
	dir := t.TempDir()
	in := writeFixture(t, dir, "bench.txt", benchFixture)
	code, stdout, _ := runCLI(t, "run", "-in", in, "-label", "base", "-out", dir)
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	snap := loadSnapshot(t, filepath.Join(dir, "BENCH_base.json"))
	if snap.Kind != perf.KindBench || snap.Label != "base" {
		t.Errorf("snapshot kind=%q label=%q", snap.Kind, snap.Label)
	}
	if len(snap.Benchmarks) != 2 {
		t.Fatalf("%d benchmarks, want 2", len(snap.Benchmarks))
	}
	if snap.Benchmarks[0].Name != "BenchmarkAlpha" || snap.Benchmarks[0].Procs != 8 || snap.Benchmarks[0].Runs != 2 {
		t.Errorf("first summary %+v", snap.Benchmarks[0])
	}
	if snap.GoVersion == "" {
		t.Error("GoVersion not recorded")
	}
	if !strings.Contains(stdout, "BenchmarkAlpha") || !strings.Contains(stdout, "| --- |") {
		t.Errorf("markdown table missing from stdout:\n%s", stdout)
	}
}

func TestRunFromFixtureWithFailures(t *testing.T) {
	dir := t.TempDir()
	in := writeFixture(t, dir, "bench.txt", benchFixture+
		"--- FAIL: BenchmarkBroken\nFAIL\tpolarfly/internal/netsim\t1.0s\n")
	code, _, stderr := runCLI(t, "run", "-in", in, "-label", "bad", "-out", dir)
	if code != 1 {
		t.Fatalf("exit %d, want 1 for a run with failed benchmarks", code)
	}
	if !strings.Contains(stderr, "BenchmarkBroken") {
		t.Errorf("stderr does not name the failed benchmark:\n%s", stderr)
	}
	snap := loadSnapshot(t, filepath.Join(dir, "BENCH_bad.json"))
	if len(snap.Failed) != 2 { // benchmark + package
		t.Errorf("snapshot failed list %v, want benchmark and package", snap.Failed)
	}
}

// TestCompareExitCodes is the acceptance check: identical snapshots exit
// 0; an injected ns/op regression exits 1.
func TestCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	in := writeFixture(t, dir, "bench.txt", benchFixture)
	if code, _, _ := runCLI(t, "run", "-in", in, "-label", "old", "-out", dir); code != 0 {
		t.Fatal("baseline run failed")
	}
	oldPath := filepath.Join(dir, "BENCH_old.json")

	// Identical snapshots: exit 0.
	code, stdout, _ := runCLI(t, "compare", oldPath, oldPath)
	if code != 0 {
		t.Errorf("compare(identical) exit %d, want 0\n%s", code, stdout)
	}

	// Inject a 3× ns/op regression into BenchmarkAlpha and re-compare.
	snap := loadSnapshot(t, oldPath)
	for i := range snap.Benchmarks {
		for j := range snap.Benchmarks[i].Metrics {
			if snap.Benchmarks[i].Name == "BenchmarkAlpha" && snap.Benchmarks[i].Metrics[j].Unit == "ns/op" {
				m := &snap.Benchmarks[i].Metrics[j]
				m.Min *= 3
				m.Median *= 3
				m.Mean *= 3
				m.Max *= 3
			}
		}
	}
	snap.Label = "regressed"
	newPath := filepath.Join(dir, "BENCH_regressed.json")
	f, err := os.Create(newPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	code, stdout, stderr := runCLI(t, "compare", oldPath, newPath)
	if code != 1 {
		t.Errorf("compare(regressed) exit %d, want 1\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "**regression**") {
		t.Errorf("markdown does not flag the regression:\n%s", stdout)
	}
	if !strings.Contains(stderr, "regression") {
		t.Errorf("stderr does not mention the regression:\n%s", stderr)
	}
}

// TestCompareFailsWhenNothingMatches: a baseline recorded under another
// GOMAXPROCS shares no (name, procs) pair with the rerun, so every
// benchmark reads as added or removed; compare must exit 1 instead of
// passing a gate that compared nothing.
func TestCompareFailsWhenNothingMatches(t *testing.T) {
	dir := t.TempDir()
	in := writeFixture(t, dir, "bench.txt", benchFixture)
	if code, _, _ := runCLI(t, "run", "-in", in, "-label", "old", "-out", dir); code != 0 {
		t.Fatal("baseline run failed")
	}
	oldPath := filepath.Join(dir, "BENCH_old.json")
	snap := loadSnapshot(t, oldPath)
	for i := range snap.Benchmarks {
		snap.Benchmarks[i].Procs = 1
	}
	newPath := filepath.Join(dir, "BENCH_onecore.json")
	f, err := os.Create(newPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runCLI(t, "compare", oldPath, newPath)
	if code != 1 || !strings.Contains(stderr, "share no") {
		t.Errorf("compare(disjoint procs) exit %d stderr %q, want 1 and the no-shared-pair message", code, stderr)
	}
}

// TestRunPinsOneProc: benchreport run records every benchmark at
// GOMAXPROCS 1, whatever the runner's core count, so committed baselines
// and CI reruns share (name, procs) pairs.
func TestRunPinsOneProc(t *testing.T) {
	for _, pkgs := range []string{"./...", "./internal/netsim, ./internal/tsdb"} {
		args := goTestArgs("HotLoop", "", 1, pkgs)
		cpu := -1
		for i, a := range args {
			if a == "-cpu" {
				cpu = i
			}
		}
		if cpu < 0 || cpu+1 >= len(args) || args[cpu+1] != "1" {
			t.Errorf("-pkg %q: go test args %q do not pin -cpu 1", pkgs, args)
		}
	}
}

func TestCompareRejectsBadSchema(t *testing.T) {
	dir := t.TempDir()
	bad := writeFixture(t, dir, "bad.json", `{"schema":"other/v9","label":"x"}`)
	if code, _, stderr := runCLI(t, "compare", bad, bad); code != 1 ||
		!strings.Contains(stderr, "schema") {
		t.Errorf("exit %d stderr %q, want schema rejection", code, stderr)
	}
}

// The sweep smoke tests pass a non-default value for every shared fabric
// flag, each distinct from the others, and check that the snapshot
// records every flag they passed, so a field swapped or dropped in the
// shared flag registration fails them. -parallel and -engine never reach
// a snapshot (the output is identical under every value), so the tests
// only exercise them.
const smokeLatency, smokeVC, smokeSeed = 2, 6, 7

// checkConfig compares a persisted sweep config with the one the test's
// flags describe.
func checkConfig(t *testing.T, got, want any) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("persisted config %+v, want %+v", got, want)
	}
}

// TestScorecardSmoke runs the real simulator at the smallest design point.
func TestScorecardSmoke(t *testing.T) {
	dir := t.TempDir()
	code, stdout, stderr := runCLI(t, "scorecard", "-q", "3", "-m", "4096",
		"-latency", "2", "-vc", "6", "-seed", "7", "-parallel", "2", "-engine", "event",
		"-out", dir, "-label", "smoke")
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstderr: %s", code, stderr)
	}
	snap := loadSnapshot(t, filepath.Join(dir, "BENCH_smoke.json"))
	if snap.Kind != perf.KindScorecard || snap.Label != "smoke" || len(snap.Scorecard) != 3 {
		t.Fatalf("kind=%q label=%q points=%d, want scorecard smoke with 3 points", snap.Kind, snap.Label, len(snap.Scorecard))
	}
	checkConfig(t, snap.ScorecardConfig, &perf.ScorecardConfig{Qs: []int{3}, M: 4096,
		LinkLatency: smokeLatency, VCDepth: smokeVC, Seed: smokeSeed,
		Tolerance: perf.DefaultScorecardConfig().Tolerance})
	if !strings.Contains(stdout, "thm7.6") || !strings.Contains(stdout, "thm7.19") {
		t.Errorf("markdown does not cite the theorem bounds:\n%s", stdout)
	}
}

// TestScorecardDegradedSmoke runs the fault-injection sweep at the
// smallest design point: single tree aborts, multi-tree points recover
// within tolerance of the Degrade prediction.
func TestScorecardDegradedSmoke(t *testing.T) {
	dir := t.TempDir()
	code, stdout, stderr := runCLI(t, "scorecard", "-degraded",
		"-q", "3", "-m", "6144", "-fail-at", "800", "-latency", "2", "-vc", "6", "-seed", "7",
		"-out", dir, "-label", "degsmoke")
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstderr: %s", code, stderr)
	}
	snap := loadSnapshot(t, filepath.Join(dir, "BENCH_degsmoke.json"))
	if snap.Kind != perf.KindDegraded || snap.Label != "degsmoke" || len(snap.Degraded) != 3 {
		t.Fatalf("kind=%q label=%q points=%d, want degraded-scorecard degsmoke with 3 points", snap.Kind, snap.Label, len(snap.Degraded))
	}
	checkConfig(t, snap.DegradedConfig, &perf.DegradedConfig{Q: 3, M: 6144,
		LinkLatency: smokeLatency, VCDepth: smokeVC, FailAt: 800, Seed: smokeSeed,
		Tolerance: perf.DefaultDegradedConfig().Tolerance})
	if !strings.Contains(stdout, "aborted as predicted") {
		t.Errorf("markdown does not show the single-tree abort:\n%s", stdout)
	}
}

// TestCritPathSmoke runs the causal critical-path sweep at the smallest
// design point: every analysed run must conserve its cycle count exactly
// across the blame classes, fault-free runs must be serialization-
// dominated, and the faulted single tree must abort.
func TestCritPathSmoke(t *testing.T) {
	dir := t.TempDir()
	code, stdout, stderr := runCLI(t, "critpath",
		"-q", "3", "-m", "2048", "-fail-at", "300", "-latency", "2", "-vc", "6", "-seed", "7",
		"-engine", "event", "-out", dir, "-label", "cpsmoke")
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstderr: %s", code, stderr)
	}
	snap := loadSnapshot(t, filepath.Join(dir, "CRITPATH_cpsmoke.json"))
	if snap.Kind != perf.KindCritPath || snap.Label != "cpsmoke" || len(snap.CritPath) != 6 {
		t.Fatalf("kind=%q label=%q points=%d, want critpath cpsmoke with 6 points", snap.Kind, snap.Label, len(snap.CritPath))
	}
	checkConfig(t, snap.CritPathConfig, &perf.CritPathConfig{Qs: []int{3}, M: 2048,
		LinkLatency: smokeLatency, VCDepth: smokeVC, FailAt: 300, Seed: smokeSeed})
	for _, pt := range snap.CritPath {
		if !pt.AllTreesLost && !pt.ConservationOK {
			t.Errorf("q=%d %s faulted=%v: conservation violated in snapshot", pt.Q, pt.Embedding, pt.Faulted)
		}
	}
	for _, want := range []string{"serialization", "aborted as predicted", "fault-free"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("markdown missing %q:\n%s", want, stdout)
		}
	}
}

// TestCampaignSmoke runs a small seeded chaos campaign end to end: every
// run must complete with the invariants intact or terminate classified,
// the report must decode back, and the markdown must carry the
// survival/classification table.
func TestCampaignSmoke(t *testing.T) {
	dir := t.TempDir()
	code, stdout, stderr := runCLI(t, "campaign",
		"-q", "3", "-embeddings", "low-depth,hamiltonian", "-runs", "8",
		"-m", "512", "-latency", "2", "-vc", "6", "-seed", "7", "-parallel", "2",
		"-out", dir, "-label", "camsmoke")
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstderr: %s", code, stderr)
	}
	f, err := os.Open(filepath.Join(dir, "CAMPAIGN_camsmoke.json"))
	if err != nil {
		t.Fatalf("campaign snapshot missing: %v", err)
	}
	defer func() { _ = f.Close() }()
	rep, err := chaos.DecodeReport(f)
	if err != nil {
		t.Fatalf("DecodeReport: %v", err)
	}
	if rep.Label != "camsmoke" || len(rep.Points) != 2 {
		t.Fatalf("label=%q points=%d, want camsmoke with 2 points", rep.Label, len(rep.Points))
	}
	want := chaos.DefaultConfig()
	want.Qs, want.Runs, want.M = []int{3}, 8, 512
	want.LinkLatency, want.VCDepth, want.Seed = smokeLatency, smokeVC, smokeSeed
	checkConfig(t, rep.Config, want)
	for _, pt := range rep.Points {
		if pt.Runs != 8 {
			t.Errorf("q=%d %s: runs %d, want 8", pt.Q, pt.Embedding, pt.Runs)
		}
		if got := pt.Completed + pt.AllTreesLost + pt.RecoveryLimit; got != pt.Runs {
			t.Errorf("q=%d %s: %d of %d runs classified", pt.Q, pt.Embedding, got, pt.Runs)
		}
	}
	if fails := rep.Failures(); len(fails) != 0 {
		t.Errorf("campaign recorded violations:\n%s", strings.Join(fails, "\n"))
	}
	for _, want := range []string{"Chaos campaign", "all-trees-lost", "classified sentinel"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("markdown missing %q:\n%s", want, stdout)
		}
	}
}

// TestScorecardFailsOutsideTolerance: an absurdly tight tolerance must
// trip the gate (pipeline fill keeps measured below model).
func TestScorecardFailsOutsideTolerance(t *testing.T) {
	dir := t.TempDir()
	code, _, stderr := runCLI(t, "scorecard", "-q", "3", "-m", "256", "-tol", "0.0001", "-out", dir)
	if code != 1 {
		t.Fatalf("exit %d, want 1 at near-zero tolerance\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "FAIL") {
		t.Errorf("stderr does not list the violations:\n%s", stderr)
	}
}

func TestUsageAndUnknownCommand(t *testing.T) {
	if code, _, _ := runCLI(t); code != 2 {
		t.Error("no-args exit != 2")
	}
	if code, _, stderr := runCLI(t, "frobnicate"); code != 2 || !strings.Contains(stderr, "unknown command") {
		t.Errorf("unknown command: exit %d stderr %q", code, stderr)
	}
	if code, stdout, _ := runCLI(t, "help"); code != 0 || !strings.Contains(stdout, "scorecard") {
		t.Error("help does not document the subcommands")
	}
}

func TestSanitizeLabel(t *testing.T) {
	cases := map[string]string{
		"main":        "main",
		"feature/x y": "feature-x-y",
		"v1.2_rc-3":   "v1.2_rc-3",
		"":            "snapshot",
		"../escape":   "..-escape",
	}
	for in, want := range cases {
		if got := sanitizeLabel(in); got != want {
			t.Errorf("sanitizeLabel(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestSnapshotJSONDeterminism: the same fixture parsed twice must produce
// byte-identical JSON (modulo nothing — no timestamps in the schema).
func TestSnapshotJSONDeterminism(t *testing.T) {
	dir := t.TempDir()
	in := writeFixture(t, dir, "bench.txt", benchFixture)
	read := func(label string) []byte {
		if code, _, stderr := runCLI(t, "run", "-in", in, "-label", label, "-out", dir); code != 0 {
			t.Fatalf("run failed: %s", stderr)
		}
		raw, err := os.ReadFile(filepath.Join(dir, "BENCH_"+label+".json"))
		if err != nil {
			t.Fatal(err)
		}
		// Neutralise the only run-dependent field.
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		delete(m, "label")
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if a, b := read("one"), read("two"); !bytes.Equal(a, b) {
		t.Errorf("snapshots differ between identical runs:\n%s\n%s", a, b)
	}
}

func TestTimelineSmoke(t *testing.T) {
	dir := t.TempDir()
	code, stdout, stderr := runCLI(t, "timeline",
		"-q", "5", "-m", "2048", "-sample-every", "32", "-windows", "32",
		"-fault-at", "100", "-max-bytes", "2000000", "-parallel", "2",
		"-latency", "2", "-vc", "6", "-seed", "7", "-engine", "event",
		"-label", "tl", "-out", dir)
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr:\n%s", code, stderr)
	}
	for _, want := range []string{"# Telemetry timelines — tl", "## Telemetry timeline — q=5",
		"Cross-check against trace ground truth: **exact match**"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q", want)
		}
	}
	snap := loadSnapshot(t, filepath.Join(dir, "TIMELINE_tl.json"))
	if snap.Kind != perf.KindTimeline || snap.Label != "tl" || len(snap.Timeline) == 0 {
		t.Fatalf("snapshot kind=%q label=%q runs=%d", snap.Kind, snap.Label, len(snap.Timeline))
	}
	def := perf.DefaultTimelineConfig()
	checkConfig(t, snap.TimelineConfig, &perf.TimelineConfig{Q: 5, M: 2048,
		LinkLatency: smokeLatency, VCDepth: smokeVC, SampleEvery: 32, Windows: 32,
		Levels: def.Levels, Factor: def.Factor, Seed: smokeSeed, Tolerance: def.Tolerance,
		MaxBytes: 2000000, FaultAt: 100})
}

func TestTimelineFootprintGate(t *testing.T) {
	dir := t.TempDir()
	code, _, stderr := runCLI(t, "timeline",
		"-q", "3", "-m", "512", "-sample-every", "32", "-windows", "32",
		"-max-bytes", "1", "-label", "tiny", "-out", dir)
	if code != 1 {
		t.Fatalf("exit %d, want 1 for a 1-byte footprint ceiling", code)
	}
	if !strings.Contains(stderr, "ceiling") {
		t.Errorf("stderr does not mention the footprint ceiling:\n%s", stderr)
	}
}

func TestOverheadCLI(t *testing.T) {
	dir := t.TempDir()
	mkSnap := func(name string, sampledNs int) string {
		fixture := "goos: linux\npkg: polarfly/internal/tsdb\n" +
			"BenchmarkHotLoopSampled/q=11/single-8 \t 10\t " + strconv.Itoa(100000+sampledNs) + " ns/op\t" +
			" 100000 base-ns/op\t " + strconv.Itoa(sampledNs) + " sampled-ns/op\nPASS\n"
		in := writeFixture(t, dir, name+".txt", fixture)
		code, _, stderr := runCLI(t, "run", "-in", in, "-label", name, "-out", dir)
		if code != 0 {
			t.Fatalf("run exit %d: %s", code, stderr)
		}
		return filepath.Join(dir, "BENCH_"+name+".json")
	}

	ok := mkSnap("fast", 103000) // 3% overhead
	code, stdout, _ := runCLI(t, "overhead", ok)
	if code != 0 {
		t.Fatalf("exit %d, want 0 for 3%% overhead", code)
	}
	if !strings.Contains(stdout, "HotLoopSampled/q=11/single") || !strings.Contains(stdout, "+3.0%") {
		t.Errorf("overhead table wrong:\n%s", stdout)
	}

	bad := mkSnap("slow", 112000) // 12% overhead
	code, _, stderr := runCLI(t, "overhead", bad)
	if code != 1 {
		t.Fatalf("exit %d, want 1 for 12%% overhead", code)
	}
	if !strings.Contains(stderr, "budget") {
		t.Errorf("stderr does not mention the budget:\n%s", stderr)
	}
	if code, _, _ := runCLI(t, "overhead", "-max", "0.2", bad); code != 0 {
		t.Fatalf("exit %d, want 0 with a 20%% budget", code)
	}

	// A snapshot with no sampled series must fail loudly, not pass silently.
	empty := writeFixture(t, dir, "empty.txt", benchFixture)
	if code, _, _ := runCLI(t, "run", "-in", empty, "-label", "plain", "-out", dir); code != 0 {
		t.Fatal("plain run failed")
	}
	code, _, stderr = runCLI(t, "overhead", filepath.Join(dir, "BENCH_plain.json"))
	if code != 1 || !strings.Contains(stderr, "no base") {
		t.Fatalf("exit %d, stderr %q: want 1 and a no-pairs message", code, stderr)
	}
}

const cycleLoopFixture = `goos: linux
pkg: polarfly/internal/netsim
BenchmarkCycleLoop/q=11/single-8 	 3	 110000000 ns/op	 0 B/op	 0 allocs/op
BenchmarkCycleLoop/q=11/lowdepth-8 	 3	 205000000 ns/op	 0 B/op	 0 allocs/op
BenchmarkEventLoop/q=11/single-8 	 3	 180000000 ns/op	 0 B/op	 0 allocs/op
PASS
`

const cycleLoopRegressedFixture = `goos: linux
pkg: polarfly/internal/netsim
BenchmarkCycleLoop/q=11/single-8 	 3	 110000000 ns/op	 4096 B/op	 128 allocs/op
BenchmarkEventLoop/q=11/single-8 	 3	 180000000 ns/op	 0 B/op	 0 allocs/op
PASS
`

// cycleOnlyFixture has a clean visit-all witness but none for the
// wake-set policy.
const cycleOnlyFixture = `goos: linux
pkg: polarfly/internal/netsim
BenchmarkCycleLoop/q=11/single-8 	 3	 110000000 ns/op	 0 B/op	 0 allocs/op
PASS
`

// hotcheckModule builds a minimal module for the static half of the gate:
// one hotpath root whose body is provably allocation-free.
func hotcheckModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	writeFixture(t, root, "go.mod", "module hotmod\n\ngo 1.22\n")
	writeFixture(t, root, "hot.go", `package hotmod

//lint:hotpath test root
func Step(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}
`)
	return root
}

// TestHotcheck exercises the static-vs-measured cross-check end to end:
// agreement passes, a measured allocation regression fails, and a
// snapshot without the witness benchmark fails rather than passing
// vacuously.
func TestHotcheck(t *testing.T) {
	dir := t.TempDir()
	root := hotcheckModule(t)

	in := writeFixture(t, dir, "bench.txt", cycleLoopFixture)
	if code, _, stderr := runCLI(t, "run", "-in", in, "-label", "clean", "-out", dir); code != 0 {
		t.Fatal(stderr)
	}
	code, stdout, stderr := runCLI(t, "hotcheck", "-root", root, filepath.Join(dir, "BENCH_clean.json"))
	if code != 0 {
		t.Fatalf("clean hotcheck exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "agree") {
		t.Errorf("missing agreement summary:\n%s", stdout)
	}

	in = writeFixture(t, dir, "bench2.txt", cycleLoopRegressedFixture)
	if code, _, stderr := runCLI(t, "run", "-in", in, "-label", "regressed", "-out", dir); code != 0 {
		t.Fatal(stderr)
	}
	code, stdout, stderr = runCLI(t, "hotcheck", "-root", root, filepath.Join(dir, "BENCH_regressed.json"))
	if code != 1 {
		t.Fatalf("regressed hotcheck exit %d, want 1\nstdout:\n%s", code, stdout)
	}
	if !strings.Contains(stderr, "contradict") {
		t.Errorf("missing contradiction report:\n%s", stderr)
	}

	in = writeFixture(t, dir, "bench3.txt", benchFixture)
	if code, _, stderr := runCLI(t, "run", "-in", in, "-label", "nowitness", "-out", dir); code != 0 {
		t.Fatal(stderr)
	}
	code, _, stderr = runCLI(t, "hotcheck", "-root", root, filepath.Join(dir, "BENCH_nowitness.json"))
	if code != 1 {
		t.Fatalf("witness-less hotcheck exit %d, want 1", code)
	}
	if !strings.Contains(stderr, "no benchmark") {
		t.Errorf("missing no-witness diagnostic:\n%s", stderr)
	}
}

// TestHotcheckStaticFailure proves the static half gates independently: a
// module whose hotpath root allocates fails before any snapshot is read.
func TestHotcheckStaticFailure(t *testing.T) {
	root := t.TempDir()
	writeFixture(t, root, "go.mod", "module hotmod\n\ngo 1.22\n")
	writeFixture(t, root, "hot.go", `package hotmod

//lint:hotpath test root
func Step(n int) []int {
	return make([]int, n)
}
`)
	dir := t.TempDir()
	in := writeFixture(t, dir, "bench.txt", cycleLoopFixture)
	if code, _, stderr := runCLI(t, "run", "-in", in, "-label", "ok", "-out", dir); code != 0 {
		t.Fatal(stderr)
	}
	code, _, stderr := runCLI(t, "hotcheck", "-root", root, filepath.Join(dir, "BENCH_ok.json"))
	if code != 1 {
		t.Fatalf("exit %d for allocating hot path, want 1", code)
	}
	if !strings.Contains(stderr, "FAIL static") {
		t.Errorf("missing static failure report:\n%s", stderr)
	}
}

// TestHotcheckDefaultWitnesses pins the -bench default: both wake policies
// of the advance loop need a measured witness, so a snapshot with only
// BenchmarkCycleLoop fails on the missing BenchmarkEventLoop, and an
// explicit -bench narrows the gate back to one prefix.
func TestHotcheckDefaultWitnesses(t *testing.T) {
	dir := t.TempDir()
	root := hotcheckModule(t)
	in := writeFixture(t, dir, "bench.txt", cycleOnlyFixture)
	if code, _, stderr := runCLI(t, "run", "-in", in, "-label", "cycleonly", "-out", dir); code != 0 {
		t.Fatal(stderr)
	}
	snap := filepath.Join(dir, "BENCH_cycleonly.json")
	code, _, stderr := runCLI(t, "hotcheck", "-root", root, snap)
	if code != 1 || !strings.Contains(stderr, "no benchmark named BenchmarkEventLoop") {
		t.Fatalf("default hotcheck without an event-policy witness: exit %d, stderr:\n%s", code, stderr)
	}
	if code, stdout, stderr := runCLI(t, "hotcheck", "-bench", "BenchmarkCycleLoop", "-root", root, snap); code != 0 {
		t.Fatalf("-bench BenchmarkCycleLoop: exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}
