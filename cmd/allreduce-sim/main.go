// allreduce-sim runs cycle-accurate in-network Allreduce simulations on
// PolarFly and compares the embeddings against the analytic model and the
// host-based baselines.
//
// Usage:
//
//	allreduce-sim -q 7 -m 4096                 # compare all embeddings
//	allreduce-sim -q 7 -m 4096 -hosts          # include host-based MPI-style baselines
//	allreduce-sim -q 7 -m 64 -latency 20       # latency-bound regime
//	allreduce-sim -q 7 -m 4096 -trace-out t.json -metrics-out m.json
//	                                           # export a chrome://tracing /
//	                                           # Perfetto trace and per-link metrics
//	allreduce-sim -q 7 -m 16384 -fail-links 0-1 -fail-at 2000
//	                                           # fail link 0-1 mid-run; degraded-run table
//	allreduce-sim -q 7 -m 16384 -fault-seed 7  # one random link failure per embedding
//	allreduce-sim -q 7 -m 16384 -fault-plan plan.json
//	                                           # replay a JSON fault plan (internal/faults)
//	allreduce-sim -q 7 -m 16384 -ts-out tl.md -sample-every 64
//	                                           # attach the bounded-memory telemetry sampler
//	                                           # and write the markdown phase timeline
//	allreduce-sim -q 7 -m 16384 -critpath-out cp.md
//	                                           # reconstruct each embedding's causal
//	                                           # critical path and write the per-cycle
//	                                           # blame report
//	allreduce-sim -q 31 -m 65536 -progress     # heartbeat on stderr for long runs,
//	                                           # with simulated cycles/s and an ETA
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"polarfly/internal/bandwidth"
	"polarfly/internal/chaos"
	"polarfly/internal/core"
	"polarfly/internal/critpath"
	"polarfly/internal/faults"
	"polarfly/internal/netsim"
	"polarfly/internal/obsv"
	"polarfly/internal/parrun"
	"polarfly/internal/trees"
	"polarfly/internal/tsdb"
	"polarfly/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable args and streams, so the command can be
// smoke-tested end to end.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("allreduce-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	q := fs.Int("q", 7, "prime power order")
	m := fs.Int("m", 4096, "vector elements")
	latency := fs.Int("latency", 10, "link latency in cycles")
	vc := fs.Int("vc", 10, "virtual channel depth in flits")
	hosts := fs.Bool("hosts", false, "also run host-based baselines")
	alpha := fs.Float64("alpha", 500, "host-based per-round software overhead (cycles)")
	seed := fs.Int64("seed", core.DefaultSeed, "workload seed")
	sweep := fs.Bool("sweep", false, "sweep vector sizes geometrically up to -m and report the latency/bandwidth crossover")
	parallel := fs.Int("parallel", 0, "worker-pool size for the embedding comparison and -sweep; 1 forces serial, <1 means GOMAXPROCS (output is byte-identical either way)")
	traceOut := fs.String("trace-out", "", "write a Chrome trace-event JSON (chrome://tracing, Perfetto) to this file")
	metricsOut := fs.String("metrics-out", "", "write per-link/per-tree telemetry JSON to this file")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile (runtime/pprof) to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile (runtime/pprof) to this file")
	failLinks := fs.String("fail-links", "", "comma-separated undirected links u-v to fail (link-down) at -fail-at; runs the degraded-run table")
	failAt := fs.Int("fail-at", 1000, "activation cycle for -fail-links and the window start for -fault-seed")
	faultSeed := fs.Int64("fault-seed", 0, "non-zero: generate one random link-down fault per embedding (from its own tree links, activation uniform in [fail-at, 2·fail-at]); runs the degraded-run table")
	faultPlan := fs.String("fault-plan", "", "JSON fault plan file (internal/faults schema) applied to every embedding; runs the degraded-run table")
	failRouters := fs.String("fail-routers", "", "comma-separated router nodes to fail (router-down: every incident link, atomically) at -fail-at; runs the degraded-run table")
	chaosSeed := fs.Int64("chaos-seed", 0, "non-zero: draw one weighted chaos scenario per embedding (the campaign generator: correlated groups, storms, router-down, ...), activations uniform in [fail-at, 2·fail-at]; runs the degraded-run table")
	tsOut := fs.String("ts-out", "", "attach the bounded-memory telemetry sampler and write the markdown phase timeline to this file")
	sampleEvery := fs.Int("sample-every", 64, "telemetry sampling window in cycles (with -ts-out)")
	tsWindows := fs.Int("ts-windows", 64, "telemetry ring capacity per resolution level (with -ts-out)")
	critpathOut := fs.String("critpath-out", "", "reconstruct each embedding's causal critical path from the trace stream and write the markdown blame report to this file")
	progress := fs.Bool("progress", false, "print a heartbeat with simulated cycles/s and an ETA to stderr while simulations run (stdout is unchanged)")
	engineName := fs.String("engine", "cycle", "netsim wake policy: cycle (visit every link every cycle; faster when most links are busy) or event (visit woken links, skip idle cycles; faster when most links idle, required at q=127 scale); output is byte-identical")
	embeddings := fs.String("embeddings", "", "comma-separated embedding kinds to run in the comparison (low-depth, hamiltonian, single-tree); empty runs the full sweep")
	maxSimBytes := fs.Int64("max-sim-bytes", 0, "fail if any completed run's simulator arena footprint exceeds this many bytes, on every path that simulates (0 disables; the footprint is deterministic, see netsim.ArenaFootprint)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	engine, err := netsim.ParseEngine(*engineName)
	if err != nil {
		fmt.Fprintln(stderr, "allreduce-sim: -engine:", err)
		return 2
	}
	var kinds []core.EmbeddingKind
	if *embeddings != "" {
		for _, name := range strings.Split(*embeddings, ",") {
			k, err := chaos.ParseEmbedding(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(stderr, "allreduce-sim: -embeddings:", err)
				return 2
			}
			kinds = append(kinds, k)
		}
	}
	meter := &progressMeter{}
	if *progress {
		stop := startHeartbeat(stderr, meter)
		defer stop()
	} else {
		meter = nil
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "allreduce-sim:", err)
		return 1
	}

	// closeProfile closes a profile file, surfacing the error a bare
	// deferred Close would swallow: an unflushed profile reads as truncated.
	closeProfile := func(f *os.File) {
		if err := f.Close(); err != nil {
			fmt.Fprintln(stderr, "allreduce-sim:", err)
		}
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		defer closeProfile(f)
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(stderr, "allreduce-sim:", err)
				return
			}
			defer closeProfile(f)
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "allreduce-sim:", err)
			}
		}()
	}

	// Validate the telemetry flags before any simulation spends cycles.
	if *tsOut != "" {
		if _, err := tsdb.New(tsdb.Config{SampleEvery: *sampleEvery, Windows: *tsWindows}); err != nil {
			return fail(err)
		}
	}

	if *sweep {
		return runSweep(*q, *m, *latency, *vc, *parallel, *seed, engine, *maxSimBytes, stdout, stderr)
	}
	obs := &observers{q: *q, m: *m, latency: *latency, vc: *vc, sampleEvery: *sampleEvery, tsWindows: *tsWindows,
		traceOut: *traceOut, metricsOut: *metricsOut, tsOut: *tsOut, critpathOut: *critpathOut}
	if *failLinks != "" || *faultSeed != 0 || *faultPlan != "" || *failRouters != "" || *chaosSeed != 0 {
		return runFaults(*q, *m, *latency, *vc, *parallel, *seed,
			*failLinks, *failRouters, *failAt, *faultSeed, *chaosSeed, *faultPlan,
			obs, engine, *maxSimBytes, meter, stdout, stderr)
	}

	cfg := netsim.Config{LinkLatency: *latency, VCDepth: *vc, Engine: engine}

	var prep func(core.EmbeddingKind, *core.Embedding, *netsim.Config)
	if obs.on() || meter != nil {
		prep = func(_ core.EmbeddingKind, e *core.Embedding, c *netsim.Config) {
			if obs.on() {
				obs.attach(e, false, c)
			}
			if meter != nil {
				meter.attach(c, estimateCycles(*m, e))
			}
		}
	}

	rows, err := core.SimulationSweep(*q, *m, cfg, *seed, *parallel, kinds, prep)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "PolarFly q=%d (N=%d, radix=%d), m=%d elements, link latency=%d, VC depth=%d\n",
		*q, (*q)*(*q)+(*q)+1, *q+1, *m, *latency, *vc)
	fmt.Fprintf(stdout, "%-12s %8s %10s %10s %8s %6s %6s %11s %9s %9s %13s\n",
		"embedding", "trees", "model B", "meas. B", "cycles", "depth", "cong", "util(m/p)", "util err", "speedup", "red/bc cyc")
	for _, r := range rows {
		trees := 1
		switch r.Kind {
		case core.SingleTree:
			trees = 1
		case core.LowDepth, core.DepthTwo:
			trees = *q
		case core.Hamiltonian:
			trees = (*q + 1) / 2
		}
		fmt.Fprintf(stdout, "%-12v %8d %10.3f %10.3f %8d %6d %6d %5.2f/%4.2f %+8.2f%% %8.2fx %6d/%6d\n",
			r.Kind, trees, r.ModelBW, r.MeasuredBW, r.Cycles, r.MaxDepth, r.MaxCongestion,
			r.MaxLinkUtil, r.ModelMaxLinkUtil, 100*r.UtilRelErr, r.SpeedupVsOne,
			r.ReduceCycles, r.BcastCycles)
	}
	for i, r := range obs.runs {
		r.finish(rows[i].Cycles)
		if r.col != nil {
			r.col.SetArena(rows[i].Arena)
		}
	}

	// Memory-ceiling gate: the arena footprint is derived from the spec,
	// so the same command line yields the same number on every machine —
	// the q=127 smoke asserts its ceiling here.
	if *maxSimBytes > 0 {
		for _, r := range rows {
			fmt.Fprintf(stdout, "arena: %-12v %d bytes (ceiling %d)\n", r.Kind, r.Arena.TotalBytes, *maxSimBytes)
			if err := arenaCeiling(r.Kind.String(), r.Arena, *maxSimBytes); err != nil {
				return fail(err)
			}
		}
	}

	if err := obs.write(stdout); err != nil {
		return fail(err)
	}

	if *hosts {
		hrows, err := core.HostComparison(*q, *m, *alpha, float64(*latency), 1.0, *seed)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "\nhost-based baselines (α=%.0f cycles/round):\n", *alpha)
		fmt.Fprintf(stdout, "%-20s %10s %7s\n", "algorithm", "cycles", "rounds")
		for _, r := range hrows {
			fmt.Fprintf(stdout, "%-20s %10.0f %7d\n", r.Algorithm, r.Time, r.Rounds)
		}
	}
	return 0
}

// metricsFile is the -metrics-out schema: one telemetry section per
// embedding, each with the structured summary and a flat metric snapshot.
type metricsFile struct {
	Q           int                         `json:"q"`
	M           int                         `json:"m"`
	LinkLatency int                         `json:"link_latency"`
	VCDepth     int                         `json:"vc_depth"`
	Embeddings  map[string]embeddingMetrics `json:"embeddings"`
}

type embeddingMetrics struct {
	Summary *obsv.Report  `json:"summary"`
	Metrics obsv.Snapshot `json:"metrics"`
}

// tsRig is the per-embedding telemetry rig -ts-out attaches: the
// bounded-memory sampler, the hotspot/bounds analyzer, and the snapshot
// metadata captured at wiring time.
type tsRig struct {
	sampler  *tsdb.Sampler
	analyzer *tsdb.Analyzer
	meta     tsdb.SnapshotMeta
}

// newTSRig wires a sampler and analyzer into one embedding's run config.
// The sampler config must have been validated up front (run() does), so
// construction cannot fail here. faulted disables the fault-free floor
// check, which a mid-run link failure would legitimately break.
func newTSRig(q, m, sampleEvery, windows int, e *core.Embedding, faulted bool, c *netsim.Config) *tsRig {
	s := tsdb.MustNew(tsdb.Config{SampleEvery: sampleEvery, Windows: windows})
	nodes := q*q + q + 1
	floor := 0.0
	switch e.Kind {
	case core.SingleTree:
		floor = 1.0
	case core.LowDepth:
		floor = bandwidth.LowDepthBound(q, 1.0)
	case core.Hamiltonian:
		floor = bandwidth.HamiltonianBound(len(e.Forest), 1.0)
	default: // DepthTwo has no proven floor
	}
	a := tsdb.NewAnalyzer(s, tsdb.AnalyzerConfig{
		Tolerance: 0.10,
		Bounds: tsdb.Bounds{
			Nodes:     nodes,
			Aggregate: e.Model.Aggregate,
			Optimal:   bandwidth.Optimal(q, 1.0),
			Floor:     floor,
			FaultFree: !faulted,
		},
		Predicted: core.ModelLinkLoads(e),
	})
	c.SampleEvery = sampleEvery
	c.Sample = s.Sample
	return &tsRig{sampler: s, analyzer: a, meta: tsdb.SnapshotMeta{
		Q: q, Kind: e.Kind.String(), M: m, Nodes: nodes,
		Aggregate: e.Model.Aggregate, Optimal: bandwidth.Optimal(q, 1.0), Floor: floor}}
}

// observers is what -trace-out, -metrics-out, -ts-out and -critpath-out
// attach to each embedding's run (an obsv collector, a telemetry rig, a
// critical-path builder), and the files they write afterwards. The
// comparison and the fault path both wire every run before their worker
// pool dispatches, so the run list needs no locks and -parallel N output
// stays byte-identical to a serial run.
type observers struct {
	q, m, latency, vc, sampleEvery, tsWindows int
	traceOut, metricsOut, tsOut, critpathOut  string
	runs                                      []*observed
}

// observed is one embedding's observer set. cycles is the completed
// run's length; cp is nil when the run completed nothing to analyse.
type observed struct {
	kind   core.EmbeddingKind
	col    *obsv.Collector
	rig    *tsRig
	cp     *critpath.Builder
	cycles int
}

func (o *observers) on() bool {
	return o.traceOut != "" || o.metricsOut != "" || o.tsOut != "" || o.critpathOut != ""
}

// attach wires the requested observers into one embedding's run config,
// in run order.
func (o *observers) attach(e *core.Embedding, faulted bool, c *netsim.Config) *observed {
	r := &observed{kind: e.Kind}
	if o.traceOut != "" || o.metricsOut != "" {
		r.col = obsv.NewCollector()
		r.col.Attach(c)
	}
	if o.tsOut != "" {
		r.rig = newTSRig(o.q, o.m, o.sampleEvery, o.tsWindows, e, faulted, c)
	}
	if o.critpathOut != "" {
		r.cp = critpath.NewBuilder()
		r.cp.Attach(c)
	}
	o.runs = append(o.runs, r)
	return r
}

// finish records a completed run's cycle count.
func (r *observed) finish(cycles int) {
	r.cycles = cycles
	if r.col != nil {
		r.col.SetCycles(cycles)
	}
}

// write writes every requested file, one section per run in run order,
// and names each file on stdout.
func (o *observers) write(stdout io.Writer) error {
	if o.traceOut != "" {
		ct := obsv.NewChromeTrace()
		for _, r := range o.runs {
			ct.Add(r.kind.String(), r.col)
		}
		if err := writeFile(o.traceOut, ct.Write); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nchrome trace written to %s (load in chrome://tracing or https://ui.perfetto.dev)\n", o.traceOut)
	}
	if o.metricsOut != "" {
		out := metricsFile{Q: o.q, M: o.m, LinkLatency: o.latency, VCDepth: o.vc,
			Embeddings: make(map[string]embeddingMetrics, len(o.runs))}
		for _, r := range o.runs {
			reg := obsv.NewRegistry()
			rep := r.col.Metrics(reg)
			out.Embeddings[r.kind.String()] = embeddingMetrics{Summary: rep, Metrics: reg.Snapshot()}
		}
		if err := writeFile(o.metricsOut, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(out)
		}); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "metrics written to %s\n", o.metricsOut)
	}
	if o.tsOut != "" {
		if err := writeFile(o.tsOut, o.writeTimelines); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "telemetry timeline written to %s\n", o.tsOut)
	}
	if o.critpathOut != "" {
		if err := writeFile(o.critpathOut, o.writeCritPaths); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "critical-path report written to %s\n", o.critpathOut)
	}
	return nil
}

// writeTimelines renders every rig's phase timeline.
func (o *observers) writeTimelines(w io.Writer) error {
	for i, r := range o.runs {
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if err := tsdb.BuildSnapshot(r.rig.sampler, r.rig.analyzer, r.rig.meta).WriteMarkdown(w); err != nil {
			return err
		}
	}
	return nil
}

// writeCritPaths analyses every builder's trace index against its run's
// final cycle count and renders one blame report per embedding. An
// Analyze error (a causal-model inconsistency) aborts the whole file — a
// partial report would hide the engine bug.
func (o *observers) writeCritPaths(w io.Writer) error {
	first := true
	for _, r := range o.runs {
		if r.cp == nil {
			continue
		}
		a, err := r.cp.Analyze(r.cycles)
		if err != nil {
			return fmt.Errorf("critical path for %v: %w", r.kind, err)
		}
		if !first {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		first = false
		if _, err := fmt.Fprintf(w, "Embedding: %s\n\n", r.kind); err != nil {
			return err
		}
		if err := critpath.WriteMarkdown(w, a, 10); err != nil {
			return err
		}
	}
	return nil
}

// progressMeterSampleEvery is the sampling stride the -progress tap uses
// when no telemetry sampler is attached: coarse enough to stay invisible
// in the advance loop, fine enough for a live rate.
const progressMeterSampleEvery = 1024

// progressMeter aggregates simulated-cycle progress across concurrently
// running simulations so the heartbeat can print a rate and an ETA. The
// counters are atomics because -parallel runs sample from pool workers.
type progressMeter struct {
	cycles   atomic.Int64 // simulated cycles advanced, summed over runs
	expected atomic.Int64 // rough model-predicted total, summed over runs
}

// attach taps one run's sampling hook, chaining any sampler already
// wired (e.g. -ts-out). Sampling is observational, so results and stdout
// stay byte-identical with or without the tap.
func (p *progressMeter) attach(c *netsim.Config, estimate int) {
	p.expected.Add(int64(estimate))
	prev := c.Sample
	if prev == nil {
		c.SampleEvery = progressMeterSampleEvery
	}
	last := new(int64)
	c.Sample = func(f *netsim.SampleFrame) {
		p.cycles.Add(int64(f.Cycle) - *last)
		*last = int64(f.Cycle)
		if prev != nil {
			prev(f)
		}
	}
}

// estimateCycles is the waterfill model's guess at a run's simulated
// length (m over the aggregate bandwidth), used only for the -progress
// ETA — fill, drain, and faults make the real run somewhat longer.
func estimateCycles(m int, e *core.Embedding) int {
	if e.Model.Aggregate <= 0 {
		return 0
	}
	return int(float64(m) / e.Model.Aggregate)
}

// heartbeatLine formats one -progress stderr line. The rate appears once
// simulations have advanced, and the ETA once the model estimate says
// work remains; a pure function so the format is testable without timers.
func heartbeatLine(elapsed time.Duration, cycles, expected int64) string {
	line := fmt.Sprintf("allreduce-sim: still running (%s elapsed", elapsed.Round(time.Second))
	secs := elapsed.Seconds()
	if cycles > 0 && secs > 0 {
		rate := float64(cycles) / secs
		line += fmt.Sprintf(", %.3g Mcycles/s", rate/1e6)
		if expected > cycles && rate > 0 {
			eta := time.Duration(float64(expected-cycles) / rate * float64(time.Second))
			line += fmt.Sprintf(", ~%s left", eta.Round(time.Second))
		}
	}
	return line + ")"
}

// startHeartbeat prints a liveness line — elapsed time, simulated
// cycles/s, and a model-based ETA — to w every few seconds until the
// returned stop function is called. Stdout is untouched, so -progress
// never changes the comparison's byte-identical output contract.
func startHeartbeat(w io.Writer, meter *progressMeter) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		start := time.Now()
		t := time.NewTicker(2 * time.Second)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				fmt.Fprintln(w, heartbeatLine(time.Since(start),
					meter.cycles.Load(), meter.expected.Load()))
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		// The write error is the root cause; the best-effort close only
		// releases the descriptor.
		_ = f.Close()
		return err
	}
	return f.Close()
}

// parseFailLinks parses a comma-separated list of undirected "u-v" link
// specs into link-down faults activating at cycle at.
func parseFailLinks(s string, at int) (*faults.Plan, error) {
	plan := &faults.Plan{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		uv := strings.Split(part, "-")
		if len(uv) != 2 {
			return nil, fmt.Errorf("bad link %q: want u-v", part)
		}
		u, err := strconv.Atoi(uv[0])
		if err != nil {
			return nil, fmt.Errorf("bad link %q: %v", part, err)
		}
		v, err := strconv.Atoi(uv[1])
		if err != nil {
			return nil, fmt.Errorf("bad link %q: %v", part, err)
		}
		plan.Faults = append(plan.Faults, faults.Fault{Kind: faults.LinkDown, U: u, V: v, At: at})
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return plan, nil
}

// parseFailRouters parses the -fail-routers node list into a router-down
// plan: every node fails atomically at cycle at, taking all its incident
// links with it.
func parseFailRouters(routers string, at int) (*faults.Plan, error) {
	plan := &faults.Plan{}
	for _, part := range strings.Split(routers, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad router %q: %v", part, err)
		}
		plan.Faults = append(plan.Faults, faults.Fault{Kind: faults.RouterDown, Node: n, At: at})
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return plan, nil
}

// dedupLinks canonicalises (u < v), sorts, and deduplicates an
// undirected link list — router expansion can duplicate an explicitly
// failed link.
func dedupLinks(in [][2]int) [][2]int {
	seen := make(map[[2]int]bool, len(in))
	out := in[:0]
	for _, l := range in {
		if l[0] > l[1] {
			l[0], l[1] = l[1], l[0]
		}
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// treeLinks returns the undirected links the embedding's forest uses, in
// deterministic (u, v) order.
func treeLinks(e *core.Embedding) [][2]int {
	cong := trees.Congestion(e.Forest)
	out := make([][2]int, 0, len(cong))
	for l := range cong {
		out = append(out, [2]int{l.U, l.V})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// runFaults injects a fault plan into a full Allreduce for every embedding
// kind and prints the degraded-run table: the recovery the simulator
// performed, the measured post-recovery bandwidth, and the core.Degrade
// analytical prediction it is compared against. Exactly one of plan,
// links, routers, fseed, or chaosSeed selects the faults:
//
//   - plan: a JSON fault plan applied verbatim to every embedding,
//   - links: comma-separated u-v links going down at cycle at,
//   - routers: comma-separated nodes going down (every incident link,
//     atomically) at cycle at,
//   - fseed: one generated link-down fault per embedding, drawn from that
//     embedding's own tree links (ER and Singer topologies number nodes
//     differently, so a shared random link would be meaningless),
//   - chaosSeed: one weighted chaos scenario per embedding, drawn by the
//     campaign engine's generator from the embedding's own topology.
//
// Each embedding's simulation is an independent job on a parrun pool
// (rows render to strings inside the jobs and print afterwards in
// embedding order), so -parallel N output is byte-identical to serial.
func runFaults(q, m, latency, vc, parallel int, seed int64, links, routers string, at int, fseed, chaosSeed int64, planPath string,
	obs *observers, engine netsim.Engine, maxSimBytes int64, meter *progressMeter, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "allreduce-sim:", err)
		return 1
	}
	set := 0
	for _, on := range []bool{planPath != "", links != "", routers != "", fseed != 0, chaosSeed != 0} {
		if on {
			set++
		}
	}
	if set > 1 {
		return fail(errors.New("use only one of -fault-plan, -fail-links, -fail-routers, -fault-seed, -chaos-seed"))
	}
	if at < 1 {
		return fail(fmt.Errorf("-fail-at %d: activation cycle must be ≥ 1", at))
	}

	// A shared plan (file, explicit links, or explicit routers) applies to
	// every embedding; with -fault-seed or -chaos-seed the plan is
	// generated per embedding below.
	var shared *faults.Plan
	switch {
	case planPath != "":
		f, err := os.Open(planPath)
		if err != nil {
			return fail(err)
		}
		shared, err = faults.DecodePlan(f)
		_ = f.Close()
		if err != nil {
			return fail(err)
		}
	case links != "":
		var err error
		shared, err = parseFailLinks(links, at)
		if err != nil {
			return fail(err)
		}
	case routers != "":
		var err error
		shared, err = parseFailRouters(routers, at)
		if err != nil {
			return fail(err)
		}
	}

	inst, err := core.NewInstance(q)
	if err != nil {
		return fail(err)
	}
	inputs := workload.Vectors(inst.N(), m, 1000, seed)
	want := netsim.ExpectedOutput(inputs)

	// faultJob is one embedding's fully-prepared degraded run. Prep runs
	// serially; the simulations then run as independent parrun jobs, each
	// touching only its own job state and its own observers.
	type faultJob struct {
		kind  core.EmbeddingKind
		e     *core.Embedding
		cfg   netsim.Config
		pred  float64
		label string
		obs   *observed
	}
	var jobs []faultJob
	for _, kind := range core.ComparisonKinds(q) {
		e, err := inst.Embed(kind)
		if err != nil {
			return fail(err)
		}
		plan := shared
		switch {
		case plan != nil:
		case chaosSeed != 0:
			plan, err = chaos.RandomPlan(inst, e, latency, at, 2*at, chaosSeed)
			if err != nil {
				return fail(err)
			}
		default:
			plan, err = faults.Generate(treeLinks(e), 1, at, 2*at, fseed)
			if err != nil {
				return fail(err)
			}
		}
		// The lossy link set for the prediction: explicit link faults plus
		// every link incident to a failed router, expanded through the
		// embedding's own topology (a pure-data plan cannot know the
		// adjacency). Routers show as r<node> in the failed-links column.
		failed := plan.FailedLinks()
		linkCol := make([]string, len(failed))
		for i, l := range failed {
			linkCol[i] = fmt.Sprintf("%d-%d", l[0], l[1])
		}
		for _, n := range plan.FailedRouters() {
			linkCol = append(linkCol, fmt.Sprintf("r%d", n))
			for _, nb := range e.Topology.Neighbors(n) {
				failed = append(failed, [2]int{n, nb})
			}
		}
		failed = dedupLinks(failed)
		label := strings.Join(linkCol, ",")
		if label == "" {
			label = "-"
		}

		// The analytical prediction: drop every tree crossing a failed
		// link, re-run the waterfill on the survivors.
		pred := 0.0
		deg, degErr := core.Degrade(e, failed)
		if degErr == nil {
			pred = deg.Model.Aggregate
		}

		job := faultJob{kind: kind, e: e, pred: pred, label: label,
			cfg: netsim.Config{LinkLatency: latency, VCDepth: vc, Faults: plan, Engine: engine}}
		// With observers, the fault and recovery marks land in the exported
		// telemetry; the telemetry rig's floor checks are off, since a fault
		// legitimately breaks them.
		if obs.on() {
			job.obs = obs.attach(e, len(plan.Faults) > 0, &job.cfg)
		}
		if meter != nil {
			meter.attach(&job.cfg, estimateCycles(m, e))
		}
		jobs = append(jobs, job)
	}

	// faultRow is one job's rendered table line plus what the serial
	// commit below needs: rows print in embedding order after the pool
	// drains, keeping stdout byte-identical at any -parallel.
	type faultRow struct {
		line    string
		cycles  int
		allLost bool
	}
	rows, err := parrun.Map(parallel, len(jobs), func(i int) (faultRow, error) {
		job := jobs[i]
		var row faultRow
		res, err := inst.Allreduce(job.e, inputs, job.cfg)
		if errors.Is(err, netsim.ErrAllTreesLost) {
			row.allLost = true
			row.line = fmt.Sprintf("%-12v %6d %-14s %-10s %9s %8s %8s %8s %10s %10s %8s %8s\n",
				job.kind, len(job.e.Forest), job.label, "all", "-", "-", "-", "-", "0.000", "-", "-", "aborted")
			return row, nil
		}
		if err != nil {
			return row, fmt.Errorf("%v: %w", job.kind, err)
		}
		if err := arenaCeiling(job.kind.String(), res.Arena, maxSimBytes); err != nil {
			return row, err
		}
		row.cycles = res.Cycles

		outputs := "ok"
		for v := range res.Outputs {
			for k := range want {
				if res.Outputs[v][k] != want[k] {
					outputs = "WRONG"
					break
				}
			}
			if outputs != "ok" {
				break
			}
		}
		recoverAt, reissued := "-", 0
		if len(res.Recoveries) > 0 {
			last := res.Recoveries[len(res.Recoveries)-1]
			recoverAt = fmt.Sprintf("%d", last.Cycle)
			reissued = last.Reissued
		}
		// Without a recovery (the plan never touched this embedding's
		// links) there is no post-recovery window to measure.
		meas, relErr := "-", "-"
		if len(res.Recoveries) > 0 {
			meas = fmt.Sprintf("%.3f", res.PostRecoveryBW)
			if job.pred > 0 {
				relErr = fmt.Sprintf("%+.2f%%", 100*(res.PostRecoveryBW-job.pred)/job.pred)
			}
		}
		row.line = fmt.Sprintf("%-12v %6d %-14s %-10s %9s %8d %8d %8d %10.3f %10s %8s %8s\n",
			job.kind, len(job.e.Forest), job.label, fmt.Sprintf("%v", res.DeadTrees), recoverAt,
			res.DroppedFlits, reissued, res.Cycles, job.pred, meas, relErr, outputs)
		return row, nil
	})
	if err != nil {
		return fail(err)
	}

	fmt.Fprintf(stdout, "degraded runs, PolarFly q=%d (N=%d), m=%d elements, link latency=%d, VC depth=%d\n",
		q, q*q+q+1, m, latency, vc)
	fmt.Fprintf(stdout, "%-12s %6s %-14s %-10s %9s %8s %8s %8s %10s %10s %8s %8s\n",
		"embedding", "trees", "failed links", "dead", "recover@", "dropped", "reissued", "cycles",
		"pred B", "meas B", "err", "outputs")
	for i, row := range rows {
		fmt.Fprint(stdout, row.line)
		switch r := jobs[i].obs; {
		case r == nil:
		case row.allLost:
			r.cp = nil // no completed run, so no critical path to analyse
		default:
			r.finish(row.cycles)
		}
	}
	if err := obs.write(stdout); err != nil {
		return fail(err)
	}
	return 0
}

// arenaCeiling enforces -max-sim-bytes on one completed run: an error
// naming the run when its arena footprint exceeds a positive ceiling.
func arenaCeiling(run string, a netsim.ArenaFootprint, ceiling int64) error {
	if ceiling > 0 && a.TotalBytes > ceiling {
		return fmt.Errorf("%s arena footprint %d bytes exceeds -max-sim-bytes %d", run, a.TotalBytes, ceiling)
	}
	return nil
}

// runSweep prints per-embedding cycle counts over a geometric vector-size
// sweep, marking the winner at each point — the latency/bandwidth
// crossover study of Figure 5's discussion. The m points are independent
// (SimulationComparison builds its own instance and workload per call),
// so they run on a parrun pool; rows are rendered to strings inside the
// jobs and printed afterwards in m order, keeping stdout byte-identical
// to the serial sweep.
func runSweep(q, maxM, latency, vc, parallel int, seed int64, engine netsim.Engine, maxSimBytes int64, stdout, stderr io.Writer) int {
	cfg := netsim.Config{LinkLatency: latency, VCDepth: vc, Engine: engine}
	var ms []int
	for m := 8; m <= maxM; m *= 4 {
		ms = append(ms, m)
	}
	lines, err := parrun.Map(parallel, len(ms), func(i int) (string, error) {
		m := ms[i]
		rows, err := core.SimulationComparison(q, m, cfg, seed)
		if err != nil {
			return "", err
		}
		cycles := map[core.EmbeddingKind]int{}
		// worstErr is the design point's measured-vs-model utilization
		// error: the largest-magnitude relative error across embeddings.
		worstErr := 0.0
		// Rows come in core.ComparisonKinds order, so ties resolve
		// identically on every run.
		winner, best := core.SingleTree, 0
		for _, r := range rows {
			if err := arenaCeiling(fmt.Sprintf("%v m=%d", r.Kind, m), r.Arena, maxSimBytes); err != nil {
				return "", err
			}
			cycles[r.Kind] = r.Cycles
			if e := r.UtilRelErr; math.Abs(e) > math.Abs(worstErr) {
				worstErr = e
			}
			if best == 0 || r.Cycles < best {
				winner, best = r.Kind, r.Cycles
			}
		}
		low := "-"
		if c, ok := cycles[core.LowDepth]; ok {
			low = fmt.Sprintf("%d", c)
		}
		return fmt.Sprintf("%8d %12d %12s %12d %10v %+9.2f%%\n",
			m, cycles[core.SingleTree], low, cycles[core.Hamiltonian], winner, 100*worstErr), nil
	})
	if err != nil {
		fmt.Fprintln(stderr, "allreduce-sim:", err)
		return 1
	}
	fmt.Fprintf(stdout, "vector-size sweep, PolarFly q=%d, link latency=%d\n", q, latency)
	fmt.Fprintf(stdout, "%8s %12s %12s %12s %10s %10s\n",
		"m", "single", "low-depth", "hamiltonian", "winner", "util err")
	for _, line := range lines {
		fmt.Fprint(stdout, line)
	}
	return 0
}
