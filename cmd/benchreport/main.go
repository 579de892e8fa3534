// benchreport runs, snapshots, and gates on the repository's benchmarks
// and measured-vs-model scorecard.
//
// Usage:
//
//	benchreport run -label main -count 5            # run `go test -bench`, write BENCH_main.json
//	benchreport run -label pr -in bench.txt         # parse pre-captured bench output instead
//	benchreport compare BENCH_main.json BENCH_pr.json -threshold 0.10
//	                                                # diff two snapshots; exit 1 on regression
//	                                                # or when no benchmark is on both sides
//	benchreport scorecard -q 3,5,7,11               # simulate every design point, check the
//	                                                # Alg. 1 / Thm 7.6 / Thm 7.19 contract
//	benchreport scorecard -degraded -q 7            # inject the worst-case link failure per
//	                                                # embedding, gate post-recovery bandwidth
//	                                                # against the core.Degrade prediction
//	benchreport timeline -q 7 -fault-at 200         # simulate with the streaming telemetry
//	                                                # sampler attached, write TIMELINE_<label>.json,
//	                                                # gate on bounds / footprint / ground truth
//	benchreport critpath -q 3,5,7,11                # reconstruct each run's causal critical
//	                                                # path, write CRITPATH_<label>.json, gate
//	                                                # on exact cycle conservation and blame
//	benchreport campaign -q 3,5,7,11 -runs 64       # seeded chaos campaign: randomized fault
//	                                                # plans per design point, write
//	                                                # CAMPAIGN_<label>.json, gate on per-run
//	                                                # invariants (exact outputs, flit
//	                                                # conservation, critpath conservation,
//	                                                # Degrade-tracked bandwidth, classified
//	                                                # terminations)
//	benchreport overhead BENCH_main.json            # pair X ↔ XSampled benchmarks, gate the
//	                                                # sampling cost against the 5% budget
//	benchreport hotcheck BENCH_main.json            # assert the hotalloc analyzer's static
//	                                                # allocation-free proof agrees with the
//	                                                # measured BenchmarkCycleLoop and
//	                                                # BenchmarkEventLoop allocs/op
//
// Snapshots are written to BENCH_<label>.json (schema polarfly-bench/v1,
// see internal/perf); timeline sweeps go to TIMELINE_<label>.json with the
// same envelope. A markdown rendering goes to stdout. Exit codes: 0 clean,
// 1 failed benchmarks / gating regression / scorecard violation, 2 usage
// error.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"polarfly/internal/analysis"
	"polarfly/internal/chaos"
	"polarfly/internal/netsim"
	"polarfly/internal/parrun"
	"polarfly/internal/perf"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: benchreport <command> [flags]

commands:
  run        run (or parse with -in) go test benchmarks and snapshot them
  compare    diff two snapshots and gate on regressions
  scorecard  run the measured-vs-model simulation sweep
  timeline   run the streaming-telemetry sweep and emit a phase timeline
  critpath   run the causal critical-path sweep and gate on exact
             per-cycle blame conservation
  campaign   run the seeded chaos campaign and gate on per-run
             fault-schedule invariants
  overhead   gate the telemetry sampling cost from a bench snapshot
  hotcheck   cross-check the static hot-path allocation proof against
             measured allocs/op from a bench snapshot

run 'benchreport <command> -h' for the command's flags`)
}

// run is main with injectable args and streams, so the command can be
// tested end to end without a subprocess.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "run":
		return cmdRun(args[1:], stdout, stderr)
	case "compare":
		return cmdCompare(args[1:], stdout, stderr)
	case "scorecard":
		return cmdScorecard(args[1:], stdout, stderr)
	case "timeline":
		return cmdTimeline(args[1:], stdout, stderr)
	case "critpath":
		return cmdCritPath(args[1:], stdout, stderr)
	case "campaign":
		return cmdCampaign(args[1:], stdout, stderr)
	case "overhead":
		return cmdOverhead(args[1:], stdout, stderr)
	case "hotcheck":
		return cmdHotcheck(args[1:], stdout, stderr)
	case "help", "-h", "-help", "--help":
		usage(stdout)
		return 0
	}
	fmt.Fprintf(stderr, "benchreport: unknown command %q\n", args[0])
	usage(stderr)
	return 2
}

// defaultHotBench names the hotcheck witnesses: the one //lint:hotpath
// advance loop timed under each wake policy.
const defaultHotBench = "BenchmarkCycleLoop,BenchmarkEventLoop"

// cmdHotcheck closes the loop between the hotalloc analyzer and the
// benchmark record: the static claim "everything reachable from the
// //lint:hotpath roots is allocation-free" must agree with the measured
// allocs/op of the benchmarks that time exactly those roots. Either side
// failing alone is a red flag — a broken proof or a stale suppression.
func cmdHotcheck(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchreport hotcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPrefix := fs.String("bench", defaultHotBench, "comma-separated benchmark name prefixes measuring the hot path; every prefix needs a measured witness")
	maxAllocs := fs.Float64("max", perf.DefaultHotAllocBudget, "maximum measured allocs/op consistent with the static claim")
	root := fs.String("root", ".", "module root for the static analysis")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: benchreport hotcheck [-bench prefix] [-max f] [-root dir] BENCH.json")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchreport:", err)
		return 1
	}

	// Static half: hotalloc over the whole module must be clean.
	pkgs, err := analysis.LoadModule(*root)
	if err != nil {
		return fail(err)
	}
	var allow []analysis.AllowRule
	if data, err := os.ReadFile(filepath.Join(*root, "repolint.allow")); err == nil {
		if allow, err = analysis.ParseAllowFile(string(data)); err != nil {
			return fail(err)
		}
	}
	diags := analysis.Run(pkgs, []*analysis.Analyzer{analysis.HotAlloc}, allow)
	for _, d := range diags {
		fmt.Fprintln(stderr, "benchreport: FAIL static:", d)
	}
	if len(diags) > 0 {
		return 1
	}

	// Measured half: the hot-loop benchmarks must corroborate the proof.
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	defer func() { _ = f.Close() }()
	snap, err := perf.DecodeSnapshot(f)
	if err != nil {
		return fail(err)
	}
	var results []perf.HotCheckResult
	for _, prefix := range strings.Split(*benchPrefix, ",") {
		if prefix = strings.TrimSpace(prefix); prefix == "" {
			continue
		}
		rs, err := perf.HotAllocCrossCheck(snap, prefix, *maxAllocs)
		if err != nil {
			return fail(err)
		}
		results = append(results, rs...)
	}
	bad := 0
	for _, r := range results {
		status := "ok"
		if !r.OK {
			status = "FAIL"
			bad++
		}
		fmt.Fprintf(stdout, "hotcheck: %-4s %s  allocs/op=%g (budget %g)\n", status, r.Name, r.Allocs, *maxAllocs)
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "benchreport: %d benchmark(s) contradict the static allocation-free claim\n", bad)
		return 1
	}
	fmt.Fprintf(stdout, "hotcheck: static hotalloc proof and %d measured benchmark(s) agree\n", len(results))
	return 0
}

// sanitizeLabel maps a label to the filename-safe alphabet so
// "feature/x y" cannot escape the output directory or break globbing.
func sanitizeLabel(label string) string {
	var b strings.Builder
	for _, r := range label {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			b.WriteRune(r)
		default:
			b.WriteRune('-')
		}
	}
	if b.Len() == 0 {
		return "snapshot"
	}
	return b.String()
}

func snapshotPath(dir, prefix, label string) string {
	return filepath.Join(dir, prefix+"_"+sanitizeLabel(label)+".json")
}

// jsonWriter is a snapshot that serialises itself: a perf.Snapshot or a
// chaos.Report.
type jsonWriter interface{ WriteJSON(io.Writer) error }

func writeJSON(path string, s jsonWriter) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteJSON(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func cmdRun(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchreport run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	label := fs.String("label", "local", "snapshot label; output file is BENCH_<label>.json")
	in := fs.String("in", "", "parse this pre-captured `go test -bench` output file ('-' for stdin) instead of running go test")
	benchRe := fs.String("bench", ".", "benchmark regex passed to go test -bench")
	benchtime := fs.String("benchtime", "", "go test -benchtime value (e.g. 1x, 100ms); empty for the default")
	count := fs.Int("count", 5, "go test -count repetitions (run-to-run spread needs >1)")
	pkgs := fs.String("pkg", "./...", "comma-separated package patterns passed to go test")
	outDir := fs.String("out", ".", "directory for the BENCH_<label>.json snapshot")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchreport:", err)
		return 1
	}

	var raw io.Reader
	benchFailed := false
	switch {
	case *in == "-":
		raw = os.Stdin
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			return fail(err)
		}
		defer func() { _ = f.Close() }()
		raw = f
	default:
		var buf bytes.Buffer
		cmd := exec.Command("go", goTestArgs(*benchRe, *benchtime, *count, *pkgs)...)
		// Tee the raw bench output to stderr so progress is visible while
		// the buffer feeds the parser; stdout stays reserved for markdown.
		cmd.Stdout = io.MultiWriter(&buf, stderr)
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			// go test exits 1 when a benchmark fails; the output still
			// parses, so record the failure instead of bailing.
			if _, ok := err.(*exec.ExitError); !ok {
				return fail(err)
			}
			benchFailed = true
		}
		raw = &buf
	}

	parsed, err := perf.ParseBench(raw)
	if err != nil {
		return fail(err)
	}
	snap := &perf.Snapshot{
		Schema:     perf.SnapshotSchema,
		Label:      *label,
		Kind:       perf.KindBench,
		GoVersion:  runtime.Version(),
		Packages:   parsed.Packages,
		Failed:     append(parsed.Failed, parsed.FailedPackages...),
		Benchmarks: perf.Summarize(parsed.Results),
	}
	path := snapshotPath(*outDir, "BENCH", *label)
	if err := writeJSON(path, snap); err != nil {
		return fail(err)
	}
	if err := perf.WriteBenchMarkdown(stdout, snap); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stderr, "benchreport: wrote %s (%d benchmarks)\n", path, len(snap.Benchmarks))
	if benchFailed || !parsed.OK() {
		fmt.Fprintf(stderr, "benchreport: run had failures: %s\n", strings.Join(snap.Failed, ", "))
		return 1
	}
	if len(snap.Benchmarks) == 0 {
		fmt.Fprintln(stderr, "benchreport: no benchmarks matched")
		return 1
	}
	return 0
}

// goTestArgs builds the `go test` command line of `benchreport run`.
// It pins -cpu 1: compare matches benchmarks by (name, GOMAXPROCS), so a
// snapshot recorded on one core count must be rerun on the same one, and
// one proc is the count every runner has.
func goTestArgs(benchRe, benchtime string, count int, pkgs string) []string {
	gt := []string{"test", "-run", "^$", "-bench", benchRe, "-benchmem", "-cpu", "1"}
	if benchtime != "" {
		gt = append(gt, "-benchtime", benchtime)
	}
	if count > 1 {
		gt = append(gt, "-count", strconv.Itoa(count))
	}
	// -pkg accepts a comma-separated list so one run can cover several
	// packages (e.g. ./internal/netsim,./internal/tsdb) — required for
	// the overhead gate, which pairs base and sampled benchmarks from
	// the same snapshot.
	for _, p := range strings.Split(pkgs, ",") {
		if p = strings.TrimSpace(p); p != "" {
			gt = append(gt, p)
		}
	}
	return gt
}

func cmdCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchreport compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threshold := fs.Float64("threshold", 0.10, "relative change below which a delta is noise")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchreport compare [-threshold f] OLD.json NEW.json")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchreport:", err)
		return 1
	}
	load := func(path string) (*perf.Snapshot, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer func() { _ = f.Close() }()
		return perf.DecodeSnapshot(f)
	}
	oldSnap, err := load(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	newSnap, err := load(fs.Arg(1))
	if err != nil {
		return fail(err)
	}
	cmp := perf.Compare(oldSnap, newSnap, *threshold)
	if err := perf.WriteCompareMarkdown(stdout, cmp); err != nil {
		return fail(err)
	}
	if !cmp.OK() {
		fmt.Fprintf(stderr, "benchreport: %d gating regression(s) beyond %.0f%%\n",
			cmp.Regressions, 100**threshold)
		return 1
	}
	if cmp.Matched == 0 {
		// Nothing was compared, so nothing was gated: a baseline recorded
		// under another GOMAXPROCS, or another benchmark set, must fail
		// the gate rather than pass it vacuously.
		fmt.Fprintf(stderr, "benchreport: %s and %s share no (benchmark, procs) pair; nothing was compared\n",
			fs.Arg(0), fs.Arg(1))
		return 1
	}
	return 0
}

// sweep is what the five simulation sweep commands share: one
// registration of -m -latency -vc -seed -parallel -engine -label -out,
// one parse, and the emit step that writes, renders and gates the
// snapshot.
type sweep struct {
	*flag.FlagSet
	m, latency, vc, parallel int
	seed                     int64
	engineName, label, out   string
	engine                   netsim.Engine
	// prefix names the snapshot file, <prefix>_<label>.json.
	prefix         string
	stdout, stderr io.Writer
}

// newSweep registers the shared flags with the command's defaults; the
// command registers its own flags on the returned set before parse.
func newSweep(name, prefix, label string, m, latency, vc int, seed int64, stdout, stderr io.Writer) *sweep {
	s := &sweep{FlagSet: flag.NewFlagSet("benchreport "+name, flag.ContinueOnError),
		prefix: prefix, stdout: stdout, stderr: stderr}
	s.SetOutput(stderr)
	s.IntVar(&s.m, "m", m, "Allreduce vector elements")
	s.IntVar(&s.latency, "latency", latency, "link latency in cycles")
	s.IntVar(&s.vc, "vc", vc, "virtual channel depth in flits")
	s.Int64Var(&s.seed, "seed", seed, "workload seed")
	s.IntVar(&s.parallel, "parallel", 0, "simulation worker-pool size; 1 forces serial, <1 means GOMAXPROCS (output is byte-identical either way)")
	// The wake policies are differentially tested byte-identical, so the
	// snapshots do not record the choice.
	s.StringVar(&s.engineName, "engine", "cycle", "netsim wake policy: cycle (visit every link every cycle) or event (visit woken links, skip idle cycles); byte-identical output")
	s.StringVar(&s.label, "label", label, "snapshot label; output file is "+prefix+"_<label>.json")
	s.StringVar(&s.out, "out", ".", "directory for the "+prefix+"_<label>.json snapshot")
	return s
}

// parse parses args, then the -q list when qList is non-nil, then
// -engine. It reports a usage error on stderr and returns false.
func (s *sweep) parse(args []string, qList *string) ([]int, bool) {
	if err := s.Parse(args); err != nil {
		return nil, false
	}
	var qs []int
	if qList != nil {
		var err error
		if qs, err = parseInts(*qList); err != nil {
			fmt.Fprintln(s.stderr, "benchreport: -q:", err)
			return nil, false
		}
	}
	eng, err := netsim.ParseEngine(s.engineName)
	if err != nil {
		fmt.Fprintln(s.stderr, "benchreport: -engine:", err)
		return nil, false
	}
	s.engine = eng
	return qs, true
}

func (s *sweep) fail(err error) int {
	fmt.Fprintln(s.stderr, "benchreport:", err)
	return 1
}

// snapshot is the envelope of a perf snapshot of the given kind.
func (s *sweep) snapshot(kind string) *perf.Snapshot {
	return &perf.Snapshot{Schema: perf.SnapshotSchema, Label: s.label, Kind: kind, GoVersion: runtime.Version()}
}

// emit writes snap to <prefix>_<label>.json under -out, renders it on
// stdout, names the file and what it holds on stderr, and exits 1 on
// every gate violation in fails.
func emit[T jsonWriter](s *sweep, snap T, render func(io.Writer, T) error, holds string, fails []string) int {
	path := snapshotPath(s.out, s.prefix, s.label)
	if err := writeJSON(path, snap); err != nil {
		return s.fail(err)
	}
	if err := render(s.stdout, snap); err != nil {
		return s.fail(err)
	}
	fmt.Fprintf(s.stderr, "benchreport: wrote %s (%s)\n", path, holds)
	if len(fails) == 0 {
		return 0
	}
	for _, f := range fails {
		fmt.Fprintln(s.stderr, "benchreport: FAIL:", f)
	}
	return 1
}

func cmdScorecard(args []string, stdout, stderr io.Writer) int {
	def := perf.DefaultScorecardConfig()
	s := newSweep("scorecard", "BENCH", "scorecard", def.M, def.LinkLatency, def.VCDepth, def.Seed, stdout, stderr)
	qList := s.String("q", joinInts(def.Qs), "comma-separated PolarFly orders to sweep")
	tol := s.Float64("tol", def.Tolerance, "measured-vs-model tolerance (relative)")
	degraded := s.Bool("degraded", false, "run the fault-injection sweep instead: inject the worst-case link failure per embedding and gate measured post-recovery bandwidth against the core.Degrade prediction")
	failAt := s.Int("fail-at", perf.DefaultDegradedConfig().FailAt, "cycle the worst-case link fails (with -degraded)")
	qs, ok := s.parse(args, qList)
	if !ok {
		return 2
	}
	if *degraded {
		return cmdScorecardDegraded(s, qs, *failAt, *tol)
	}
	cfg := perf.ScorecardConfig{
		Qs: qs, M: s.m, LinkLatency: s.latency, VCDepth: s.vc,
		Seed: s.seed, Tolerance: *tol, Parallel: s.parallel, Engine: s.engine,
	}
	points, err := perf.Scorecard(cfg)
	if err != nil {
		return s.fail(err)
	}
	snap := s.snapshot(perf.KindScorecard)
	snap.Scorecard, snap.ScorecardConfig = points, &cfg
	return emit(s, snap, perf.WriteScorecardMarkdown, fmt.Sprintf("%d design points", len(points)),
		perf.ScorecardFailures(points, cfg.Tolerance))
}

// cmdScorecardDegraded runs the fault-injection sweep for every listed q:
// the worst-case single link failure per embedding, gated on recovery
// happening, outputs staying numerically correct, and the measured
// post-recovery bandwidth landing within tolerance of core.Degrade.
func cmdScorecardDegraded(s *sweep, qs []int, failAt int, tol float64) int {
	// Each q's fault sweep is independent; run them on a parrun pool and
	// flatten in input order so the snapshot matches the serial loop
	// byte for byte. DegradedScorecard fans out across embeddings with
	// the same pool size internally.
	cfgs := make([]perf.DegradedConfig, len(qs))
	for i, q := range qs {
		cfgs[i] = perf.DegradedConfig{
			Q: q, M: s.m, LinkLatency: s.latency, VCDepth: s.vc,
			FailAt: failAt, Seed: s.seed, Tolerance: tol, Parallel: s.parallel,
			Engine: s.engine,
		}
	}
	perQ, err := parrun.Map(s.parallel, len(cfgs), func(i int) ([]perf.DegradedPoint, error) {
		return perf.DegradedScorecard(cfgs[i])
	})
	if err != nil {
		return s.fail(err)
	}
	var points []perf.DegradedPoint
	for _, pts := range perQ {
		points = append(points, pts...)
	}
	snap := s.snapshot(perf.KindDegraded)
	snap.Degraded, snap.DegradedConfig = points, &cfgs[len(cfgs)-1]
	return emit(s, snap, perf.WriteDegradedMarkdown, fmt.Sprintf("%d fault-injected points", len(points)),
		perf.DegradedFailures(points))
}

// cmdTimeline runs the streaming-telemetry sweep: one sampled simulation
// per embedding of the design point, a TIMELINE_<label>.json snapshot,
// the markdown phase timeline on stdout, and a non-zero exit when any run
// violates the telemetry contract (bounds, footprint, ground truth).
func cmdTimeline(args []string, stdout, stderr io.Writer) int {
	def := perf.DefaultTimelineConfig()
	s := newSweep("timeline", "TIMELINE", "timeline", def.M, def.LinkLatency, def.VCDepth, def.Seed, stdout, stderr)
	q := s.Int("q", def.Q, "PolarFly order")
	sampleEvery := s.Int("sample-every", def.SampleEvery, "telemetry sampling window in cycles")
	windows := s.Int("windows", def.Windows, "ring capacity per resolution level")
	levels := s.Int("levels", def.Levels, "downsampling levels (1×, 8×, 64×, ...)")
	factor := s.Int("factor", def.Factor, "downsampling factor between levels")
	tol := s.Float64("tol", def.Tolerance, "bound-check tolerance (relative)")
	maxBytes := s.Int("max-bytes", 0, "fail if the sampler footprint exceeds this many bytes per run (0 disables)")
	faultAt := s.Int("fault-at", 0, "inject a link failure at this cycle on multi-tree embeddings and cross-check the telemetry-derived events against the trace (0 disables)")
	if _, ok := s.parse(args, nil); !ok {
		return 2
	}
	cfg := perf.TimelineConfig{
		Q: *q, M: s.m, LinkLatency: s.latency, VCDepth: s.vc,
		SampleEvery: *sampleEvery, Windows: *windows, Levels: *levels, Factor: *factor,
		Seed: s.seed, Tolerance: *tol, MaxBytes: *maxBytes, FaultAt: *faultAt,
		Parallel: s.parallel, Engine: s.engine,
	}
	runs, err := perf.Timeline(cfg)
	if err != nil {
		return s.fail(err)
	}
	snap := s.snapshot(perf.KindTimeline)
	snap.Timeline, snap.TimelineConfig = runs, &cfg
	return emit(s, snap, perf.WriteTimelineMarkdown, fmt.Sprintf("%d embeddings", len(runs)),
		perf.TimelineFailures(runs, cfg))
}

// cmdCritPath runs the causal critical-path sweep: every embedding of
// every listed q fault-free and under the worst-case link failure, a
// CRITPATH_<label>.json snapshot, the blame scorecard on stdout, and a
// non-zero exit when any run violates the conservation contract (blame
// not summing exactly to the cycle count, unattributed residue, a
// fault-free run not dominated by serialization, or recovery blame
// disagreeing with the measured recovery latency).
func cmdCritPath(args []string, stdout, stderr io.Writer) int {
	def := perf.DefaultCritPathConfig()
	s := newSweep("critpath", "CRITPATH", "critpath", def.M, def.LinkLatency, def.VCDepth, def.Seed, stdout, stderr)
	qList := s.String("q", joinInts(def.Qs), "comma-separated PolarFly orders to sweep")
	failAt := s.Int("fail-at", def.FailAt, "cycle the worst-case link fails in the faulted half of the sweep")
	qs, ok := s.parse(args, qList)
	if !ok {
		return 2
	}
	cfg := perf.CritPathConfig{
		Qs: qs, M: s.m, LinkLatency: s.latency, VCDepth: s.vc,
		FailAt: *failAt, Seed: s.seed, Parallel: s.parallel, Engine: s.engine,
	}
	points, err := perf.CritPath(cfg)
	if err != nil {
		return s.fail(err)
	}
	snap := s.snapshot(perf.KindCritPath)
	snap.CritPath, snap.CritPathConfig = points, &cfg
	return emit(s, snap, perf.WriteCritPathMarkdown, fmt.Sprintf("%d design points", len(points)),
		perf.CritPathFailures(points))
}

// cmdCampaign runs the seeded chaos campaign: thousands of randomized
// fault plans across the design points, each checked against the
// fault-schedule invariants (exact outputs, flit conservation, critpath
// conservation, Degrade-tracked post-recovery bandwidth, and classified
// terminations). It writes CAMPAIGN_<label>.json, renders the
// survival/classification table on stdout, and exits 1 on any
// violation.
func cmdCampaign(args []string, stdout, stderr io.Writer) int {
	def := chaos.DefaultConfig()
	s := newSweep("campaign", "CAMPAIGN", "campaign", def.M, def.LinkLatency, def.VCDepth, def.Seed, stdout, stderr)
	s.Lookup("seed").Usage = "campaign seed; each run's plan derives from (seed, q, embedding, run)"
	qList := s.String("q", joinInts(def.Qs), "comma-separated PolarFly orders to sweep")
	embeddings := s.String("embeddings", strings.Join(def.Embeddings, ","), "comma-separated embedding kinds per q")
	runs := s.Int("runs", def.Runs, "randomized fault plans per (q, embedding) design point")
	tolerance := s.Float64("tolerance", def.Tolerance, "relative error allowed between measured post-recovery bandwidth and the Degrade prediction")
	qs, ok := s.parse(args, qList)
	if !ok {
		return 2
	}
	cfg := def
	cfg.Qs, cfg.Embeddings, cfg.Runs = qs, nil, *runs
	for _, part := range strings.Split(*embeddings, ",") {
		if part = strings.TrimSpace(part); part != "" {
			cfg.Embeddings = append(cfg.Embeddings, part)
		}
	}
	cfg.M, cfg.LinkLatency, cfg.VCDepth, cfg.Seed = s.m, s.latency, s.vc, s.seed
	cfg.Tolerance, cfg.Parallel, cfg.Engine = *tolerance, s.parallel, s.engine
	rep, err := chaos.Campaign(cfg)
	if err != nil {
		return s.fail(err)
	}
	rep.Label = s.label
	total := 0
	for _, pt := range rep.Points {
		total += pt.Runs
	}
	return emit(s, rep, chaos.WriteMarkdown, fmt.Sprintf("%d design points, %d runs", len(rep.Points), total),
		rep.Failures())
}

// cmdOverhead loads a bench snapshot, pairs every XSampled benchmark with
// its X twin, and gates the median ns/op overhead against the budget.
func cmdOverhead(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchreport overhead", flag.ContinueOnError)
	fs.SetOutput(stderr)
	max := fs.Float64("max", perf.DefaultMaxOverhead, "maximum allowed sampling overhead (relative ns/op)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: benchreport overhead [-max f] BENCH.json")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchreport:", err)
		return 1
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	defer func() { _ = f.Close() }()
	snap, err := perf.DecodeSnapshot(f)
	if err != nil {
		return fail(err)
	}
	pairs := perf.TelemetryOverhead(snap)
	if err := perf.WriteOverheadMarkdown(stdout, pairs, *max); err != nil {
		return fail(err)
	}
	if len(pairs) == 0 {
		fmt.Fprintln(stderr, "benchreport: no base↔sampled benchmark pairs in the snapshot; run both packages into one snapshot (e.g. -pkg ./internal/netsim,./internal/tsdb)")
		return 1
	}
	if fails := perf.OverheadFailures(pairs, *max); len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintln(stderr, "benchreport: FAIL:", f)
		}
		return 1
	}
	return 0
}

func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
