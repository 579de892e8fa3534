package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"polarfly/internal/bandwidth"
	"polarfly/internal/chaos"
	"polarfly/internal/core"
	"polarfly/internal/critpath"
	"polarfly/internal/er"
	"polarfly/internal/faults"
	"polarfly/internal/netsim"
	"polarfly/internal/obsv"
	"polarfly/internal/perf"
	"polarfly/internal/singer"
	"polarfly/internal/trees"
	"polarfly/internal/tsdb"
	"polarfly/internal/workload"
)

// bench is one workload built from a seed: setup builds what the measured
// operation reuses, op runs that operation once and checks its outputs.
// A nil ledger means untraced.
type bench interface {
	setup(tr *ledger, t *tally) error
	op(tr *ledger, t *tally)
}

// workloadSpec names a bench and declares the peak RSS above which a run of
// it fails.
type workloadSpec struct {
	name      string
	ceilingMB float64
	build     func(seed int64, smoke bool) bench
}

// workloads are the benchmark's workloads in the order the suite
// interleaves them. Sizes are fixed here; -smoke shrinks q for tests.
var workloads = []workloadSpec{
	{"sim-q31", 400, newSim},
	{"observe-q11", 300, newObserve},
	{"faults-q11", 300, newFaults},
	{"plan-q37", 300, newPlan},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// tally counts a run's checked operations. Simulated counters must repeat
// exactly: each operation hands its counters to repeat, and any difference
// from the run's first operation is a failure.
type tally struct {
	attempted, failed int
	errs              []string
	first             []int
	seen              bool
}

// check counts one operation, failed when fails is non-empty.
func (t *tally) check(what string, fails ...string) {
	t.count(1, min(1, len(fails)), what, fails)
}

// count adds n operations of which bad failed.
func (t *tally) count(n, bad int, what string, fails []string) {
	t.attempted += n
	t.failed += bad
	for _, f := range fails {
		t.errs = append(t.errs, what+": "+f)
	}
}

func (t *tally) repeat(what string, sig []int) {
	if !t.seen {
		t.first, t.seen = sig, true
		return
	}
	var fails []string
	if !slices.Equal(sig, t.first) {
		fails = append(fails, fmt.Sprintf("simulated counters %v differ from the first operation's %v", sig, t.first))
	}
	t.check(what+" repeat", fails...)
}

var sweepKinds = []core.EmbeddingKind{core.SingleTree, core.LowDepth, core.Hamiltonian}

// buildInstance is core.NewInstance. Traced, it makes the same layer calls
// itself so that each gets a span.
func buildInstance(q int, tr *ledger) (*core.Instance, error) {
	if tr == nil {
		return core.NewInstance(q)
	}
	stop := tr.start("er.new_s")
	pg, err := er.New(q)
	stop()
	if err != nil {
		return nil, err
	}
	stop = tr.start("singer.new_s")
	s, err := singer.New(q)
	stop()
	if err != nil {
		return nil, err
	}
	inst := &core.Instance{Q: q, ER: pg, Singer: s}
	if q%2 == 1 {
		stop = tr.start("er.layout_s")
		inst.Layout, err = er.NewLayout(pg, -1)
		stop()
	}
	return inst, err
}

// embed is inst.Embed. Traced, it builds the forest and runs the
// Algorithm 1 waterfill as separate spans.
func embed(inst *core.Instance, kind core.EmbeddingKind, tr *ledger) (*core.Embedding, error) {
	if tr == nil {
		return inst.Embed(kind)
	}
	var forest []*trees.Tree
	var err error
	topo := inst.ER.G
	switch kind {
	case core.SingleTree:
		stop := tr.start("trees.single_s")
		var t *trees.Tree
		t, err = trees.SingleTreeBaseline(inst.ER.G, 0)
		stop()
		forest = []*trees.Tree{t}
	case core.LowDepth:
		if inst.Layout == nil {
			return nil, fmt.Errorf("pfbench: the low-depth forest needs odd q, got %d", inst.Q)
		}
		stop := tr.start("trees.lowdepth_s")
		forest, err = trees.LowDepthForest(inst.Layout)
		stop()
	case core.Hamiltonian:
		stop := tr.start("trees.hamiltonian_s")
		forest, err = trees.HamiltonianForest(inst.Singer, core.DefaultMISTries, core.DefaultSeed)
		stop()
		topo = inst.Singer.Topology()
	default:
		return nil, fmt.Errorf("pfbench: no traced path for the %v embedding", kind)
	}
	if err != nil {
		return nil, err
	}
	e := &core.Embedding{Kind: kind, Forest: forest, Topology: topo, LinkB: 1}
	for _, t := range forest {
		tr.add("trees.edges", float64(t.N()-1))
		e.MaxDepth = max(e.MaxDepth, t.MaxDepth())
	}
	stop := tr.start("bandwidth.waterfill_s")
	e.Model = bandwidth.ForForest(forest, e.LinkB)
	stop()
	tr.add("bandwidth.waterfill_calls", 1)
	return e, nil
}

func embedAll(inst *core.Instance, kinds []core.EmbeddingKind, tr *ledger) ([]*core.Embedding, error) {
	out := make([]*core.Embedding, len(kinds))
	for i, kind := range kinds {
		e, err := embed(inst, kind, tr)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

// modelAggregate is the closed form the Algorithm 1 aggregate attains
// exactly on odd q: one link for the single tree, q/2 for the low-depth
// forest (Thm 7.6) and (q+1)/2 for the Hamiltonian paths (Thm 7.19).
func modelAggregate(q int, kind core.EmbeddingKind) float64 {
	switch kind {
	case core.LowDepth:
		return bandwidth.LowDepthBound(q, 1)
	case core.Hamiltonian:
		return bandwidth.HamiltonianBound((q+1)/2, 1)
	default:
		return 1
	}
}

func modelFailures(q int, e *core.Embedding) []string {
	if want := modelAggregate(q, e.Kind); math.Abs(e.Model.Aggregate-want) > 1e-9 {
		return []string{fmt.Sprintf("aggregate %v, want exactly %v", e.Model.Aggregate, want)}
	}
	return nil
}

// outputFailures checks the exact sum on every node and flit conservation.
func outputFailures(res *core.AllreduceResult, want []int64) []string {
	var fails []string
	for v, out := range res.Outputs {
		if !slices.Equal(out, want) {
			fails = append(fails, fmt.Sprintf("node %d does not hold the exact sum", v))
			break
		}
	}
	if res.FlitsSent != res.DeliveredFlits+res.DroppedFlits {
		fails = append(fails, fmt.Sprintf("sent %d flits, delivered %d, dropped %d",
			res.FlitsSent, res.DeliveredFlits, res.DroppedFlits))
	}
	return fails
}

// bare runs a spec with no trace consumer and books it as simulation
// time. It returns the run's seconds.
func bare(tr *ledger, inst *core.Instance, e *core.Embedding, inputs [][]int64, cfg netsim.Config) (float64, error) {
	var res *core.AllreduceResult
	var err error
	d := seconds(func() { res, err = inst.Allreduce(e, inputs, cfg) })
	tr.add("netsim.run_s", d)
	if res != nil {
		tr.sim(res)
	}
	return d, err
}

// simBench is the core.SimulationSweep sequence written out as layer
// calls, on the event engine with no trace consumer.
type simBench struct {
	q, m   int
	seed   int64
	inst   *core.Instance
	embeds []*core.Embedding
	inputs [][]int64
	want   []int64
}

func newSim(seed int64, smoke bool) bench {
	b := &simBench{q: 31, m: 1024, seed: seed}
	if smoke {
		b.q = 5
	}
	return b
}

func (b *simBench) setup(tr *ledger, t *tally) error {
	inst, err := buildInstance(b.q, tr)
	if err != nil {
		return err
	}
	embeds, err := embedAll(inst, sweepKinds, tr)
	if err != nil {
		return err
	}
	for _, e := range embeds {
		t.check(fmt.Sprintf("q=%d %v model", b.q, e.Kind), modelFailures(b.q, e)...)
	}
	stop := tr.start("workload.vectors_s")
	b.inputs = workload.Vectors(inst.N(), b.m, 1000, b.seed)
	stop()
	stop = tr.start("netsim.expected_s")
	b.want = netsim.ExpectedOutput(b.inputs)
	stop()
	b.inst, b.embeds = inst, embeds
	return nil
}

func (b *simBench) op(tr *ledger, t *tally) {
	cfg := netsim.Config{LinkLatency: 1, VCDepth: 4, Engine: netsim.EngineEvent}
	var sig []int
	for _, e := range b.embeds {
		what := fmt.Sprintf("q=%d %v allreduce", b.q, e.Kind)
		stop := tr.start("netsim.run_s")
		res, err := b.inst.Allreduce(e, b.inputs, cfg)
		stop()
		if err != nil {
			t.check(what, err.Error())
			continue
		}
		tr.sim(res)
		tr.max("bandwidth.model_cycles_err", math.Abs(float64(res.Cycles)-res.ModelCycles)/float64(res.Cycles))
		t.check(what, outputFailures(res, b.want)...)
		sig = append(sig, res.Cycles, res.FlitsSent)
	}
	t.repeat("sim", sig)
}

// planBench builds the largest instance the benchmark plans on and derives
// every embedding and its Algorithm 1 model, with no simulation.
type planBench struct {
	q, m int
	inst *core.Instance
}

func newPlan(seed int64, smoke bool) bench {
	b := &planBench{q: 37}
	if smoke {
		b.q = 7
	}
	// The seed draws the length of the vector the plan splits.
	b.m = 1<<16 + rand.New(rand.NewSource(seed)).Intn(1<<20)
	return b
}

func (b *planBench) setup(tr *ledger, _ *tally) error {
	inst, err := buildInstance(b.q, tr)
	b.inst = inst
	return err
}

func (b *planBench) op(tr *ledger, t *tally) {
	var sig []int
	for _, kind := range []core.EmbeddingKind{core.LowDepth, core.Hamiltonian, core.SingleTree} {
		what := fmt.Sprintf("q=%d %v plan", b.q, kind)
		e, err := embed(b.inst, kind, tr)
		if err != nil {
			t.check(what, err.Error())
			continue
		}
		fails := modelFailures(b.q, e)
		stop := tr.start("bandwidth.split_s")
		split, err := bandwidth.SubvectorSplit(b.m, e.Model.PerTree)
		stop()
		total := 0
		for _, s := range split {
			total += s
		}
		switch {
		case err != nil:
			fails = append(fails, err.Error())
		case len(split) != len(e.Forest) || total != b.m:
			fails = append(fails, fmt.Sprintf("split of %d elements over %d trees is %v", b.m, len(e.Forest), split))
		}
		t.check(what, fails...)
		sig = append(sig, len(e.Forest), e.MaxDepth)
	}
	t.repeat("plan", sig)
}

// observeBench is the scorecard, critical-path and timeline gates: the
// simulator with the obsv collector, the critpath builder and the tsdb
// sampler attached, on the cycle engine.
type observeBench struct {
	q      int
	sc     perf.ScorecardConfig
	cp     perf.CritPathConfig
	tl     perf.TimelineConfig
	inst   *core.Instance
	embeds []*core.Embedding
}

func newObserve(seed int64, smoke bool) bench {
	q := 11
	if smoke {
		q = 3
	}
	b := &observeBench{q: q, sc: perf.DefaultScorecardConfig(),
		cp: perf.DefaultCritPathConfig(), tl: perf.DefaultTimelineConfig()}
	b.sc.Qs, b.sc.M, b.sc.Seed, b.sc.Parallel = []int{q}, 8192, seed, 1
	b.cp.Qs, b.cp.M, b.cp.FailAt, b.cp.Seed, b.cp.Parallel = []int{q}, 1024, 100, seed, 1
	b.tl.Q, b.tl.M, b.tl.Seed, b.tl.Parallel = q, 8192, seed, 1
	return b
}

// setup builds the instance and embeddings the gates' outputs are checked
// against, and the traced pass replays.
func (b *observeBench) setup(tr *ledger, _ *tally) error {
	inst, err := buildInstance(b.q, tr)
	if err != nil {
		return err
	}
	b.embeds, err = embedAll(inst, sweepKinds, tr)
	b.inst = inst
	return err
}

func (b *observeBench) op(tr *ledger, t *tally) {
	var sig []int
	stop := tr.start("perf.scorecard_s")
	sc, err := perf.Scorecard(b.sc)
	stop()
	if err != nil {
		t.check("scorecard", err.Error())
	} else {
		fails := perf.ScorecardFailures(sc, b.sc.Tolerance)
		if len(sc) != len(b.embeds) {
			fails = append(fails, fmt.Sprintf("%d points, want %d", len(sc), len(b.embeds)))
		}
		for i, pt := range sc {
			if i < len(b.embeds) && (pt.Trees != len(b.embeds[i].Forest) ||
				math.Abs(pt.ModelBW-b.embeds[i].Model.Aggregate) > 1e-9) {
				fails = append(fails, fmt.Sprintf("%s: %d trees at model %v, want %d at %v", pt.Embedding,
					pt.Trees, pt.ModelBW, len(b.embeds[i].Forest), b.embeds[i].Model.Aggregate))
			}
			sig = append(sig, pt.Cycles)
		}
		t.check("scorecard", fails...)
	}

	stop = tr.start("perf.critpath_s")
	cp, err := perf.CritPath(b.cp)
	stop()
	if err != nil {
		t.check("critpath", err.Error())
	} else {
		t.check("critpath", perf.CritPathFailures(cp)...)
		for _, pt := range cp {
			sig = append(sig, pt.Cycles, pt.RecoveriesMeasured)
		}
	}

	stop = tr.start("perf.timeline_s")
	tl, err := perf.Timeline(b.tl)
	stop()
	if err != nil {
		t.check("timeline", err.Error())
	} else {
		t.check("timeline", perf.TimelineFailures(tl, b.tl)...)
		for _, sn := range tl {
			sig = append(sig, sn.Cycles)
		}
	}
	t.repeat("observe", sig)
	if tr != nil {
		b.attribute(tr, t)
	}
}

// attribute replays each gate's fault-free spec per embedding: a bare run,
// then a run with the gate's trace consumer attached. The untraced
// operation makes none of these runs, so they count as reference time.
func (b *observeBench) attribute(tr *ledger, t *tally) {
	t0 := time.Now()
	defer func() { tr.ref += time.Since(t0).Seconds() }()
	var errs []string
	note := func(err error) {
		if err != nil {
			errs = append(errs, err.Error())
		}
	}
	base := netsim.Config{LinkLatency: b.sc.LinkLatency, VCDepth: b.sc.VCDepth}
	n := b.inst.N()
	inSc := workload.Vectors(n, b.sc.M, 1000, b.sc.Seed)
	inCp := workload.Vectors(n, b.cp.M, 1000, b.cp.Seed)
	inTl := workload.Vectors(n, b.tl.M, 1000, b.tl.Seed)
	for _, e := range b.embeds {
		// The scorecard's metrics-only obsv collector.
		ref, err := bare(tr, b.inst, e, inSc, base)
		note(err)
		cfg, events := base, 0
		col := obsv.NewCollector()
		col.DisableSpans = true
		col.Attach(&cfg)
		countEvents(&cfg, &events)
		var res *core.AllreduceResult
		d := seconds(func() { res, err = b.inst.Allreduce(e, inSc, cfg) })
		note(err)
		tr.add("obsv.observe_s", d-ref)
		tr.add("obsv.events", float64(events))
		if res != nil {
			stop := tr.start("obsv.metrics_s")
			col.SetCycles(res.Cycles)
			col.Metrics(obsv.NewRegistry())
			stop()
		}

		// The critical-path builder and its backward walk.
		ref, err = bare(tr, b.inst, e, inCp, base)
		note(err)
		cfg, events = base, 0
		bld := critpath.NewBuilder()
		bld.Attach(&cfg)
		countEvents(&cfg, &events)
		d = seconds(func() { res, err = b.inst.Allreduce(e, inCp, cfg) })
		note(err)
		tr.add("critpath.observe_s", d-ref)
		tr.add("critpath.events", float64(events))
		if res != nil {
			stop := tr.start("critpath.analyze_s")
			_, err = bld.Analyze(res.Cycles)
			stop()
			note(err)
		}

		// The tsdb sampler, its analyzer and the snapshot it reports.
		ref, err = bare(tr, b.inst, e, inTl, base)
		note(err)
		sampler, err := tsdb.New(tsdb.Config{SampleEvery: b.tl.SampleEvery,
			Windows: b.tl.Windows, Levels: b.tl.Levels, Factor: b.tl.Factor})
		if err != nil {
			note(err)
			continue
		}
		bounds := tsdb.Bounds{Nodes: n, Aggregate: e.Model.Aggregate,
			Optimal: bandwidth.Optimal(b.q, 1), Floor: modelAggregate(b.q, e.Kind), FaultFree: true}
		an := tsdb.NewAnalyzer(sampler, tsdb.AnalyzerConfig{Tolerance: b.tl.Tolerance,
			Bounds: bounds, Predicted: core.ModelLinkLoads(e)})
		frames := 0
		cfg = base
		cfg.SampleEvery = b.tl.SampleEvery
		cfg.Sample = func(fr *netsim.SampleFrame) {
			frames++
			sampler.Sample(fr)
		}
		d = seconds(func() { _, err = b.inst.Allreduce(e, inTl, cfg) })
		note(err)
		tr.add("tsdb.sample_s", d-ref)
		tr.add("tsdb.frames", float64(frames))
		tr.max("tsdb.footprint_bytes", float64(sampler.FootprintBytes()))
		stop := tr.start("tsdb.report_s")
		tsdb.BuildSnapshot(sampler, an, tsdb.SnapshotMeta{Q: b.q, Kind: e.Kind.String(), M: b.tl.M,
			Nodes: n, Aggregate: bounds.Aggregate, Optimal: bounds.Optimal, Floor: bounds.Floor})
		stop()
	}
	t.check("observe attribution", errs...)
}

// faultsBench is the chaos campaign and the degraded scorecard: many short
// lossy runs with recovery and a per-run critical path, on the cycle
// engine and a two-worker pool.
type faultsBench struct {
	q      int
	cc     chaos.Config
	dc     perf.DegradedConfig
	inst   *core.Instance
	embeds []*core.Embedding
	worst  [][2]int
}

func newFaults(seed int64, smoke bool) bench {
	q, runs := 11, 8
	if smoke {
		q, runs = 3, 2
	}
	b := &faultsBench{q: q, cc: chaos.DefaultConfig(), dc: perf.DefaultDegradedConfig()}
	b.cc.Qs, b.cc.Runs, b.cc.Seed, b.cc.Parallel = []int{q}, runs, seed, workers()
	b.dc.Q, b.dc.M, b.dc.FailAt, b.dc.Seed, b.dc.Parallel = q, 8192, 1000, seed, 1
	return b
}

// setup builds the embeddings and worst-case links the degraded
// scorecard's outputs are checked against, and the traced pass replays.
func (b *faultsBench) setup(tr *ledger, _ *tally) error {
	inst, err := buildInstance(b.q, tr)
	if err != nil {
		return err
	}
	embeds, err := embedAll(inst, sweepKinds, tr)
	if err != nil {
		return err
	}
	b.worst = make([][2]int, len(embeds))
	for i, e := range embeds {
		stop := tr.start("core.worst_link_s")
		b.worst[i], _, err = core.WorstCaseLink(e)
		stop()
		if err != nil {
			return err
		}
	}
	b.inst, b.embeds = inst, embeds
	return nil
}

func (b *faultsBench) op(tr *ledger, t *tally) {
	var sig []int
	stop := tr.start("chaos.campaign_s")
	rep, err := chaos.Campaign(b.cc)
	stop()
	if err != nil {
		t.check("campaign", err.Error())
	} else {
		for _, pt := range rep.Points {
			aborts := pt.AllTreesLost + pt.RecoveryLimit
			t.count(pt.Runs, pt.Runs-pt.Completed-aborts, fmt.Sprintf("q=%d %s campaign", pt.Q, pt.Embedding), pt.Violations)
			tr.add("chaos.runs", float64(pt.Runs))
			tr.add("chaos.completed", float64(pt.Completed))
			tr.add("chaos.classified_aborts", float64(aborts))
			sig = append(sig, pt.Completed, aborts, pt.Recoveries, pt.MaxGeneration)
		}
	}

	stop = tr.start("perf.degraded_s")
	pts, err := perf.DegradedScorecard(b.dc)
	stop()
	if err != nil {
		t.check("degraded scorecard", err.Error())
	} else {
		fails := perf.DegradedFailures(pts)
		if len(pts) != len(b.worst) {
			fails = append(fails, fmt.Sprintf("%d points, want %d", len(pts), len(b.worst)))
		}
		for i, pt := range pts {
			if i < len(b.worst) && pt.FailedLink != b.worst[i] {
				fails = append(fails, fmt.Sprintf("%s failed link %v, want the worst case %v", pt.Embedding, pt.FailedLink, b.worst[i]))
			}
			sig = append(sig, pt.Cycles, pt.DroppedFlits)
		}
		t.check("degraded scorecard", fails...)
	}
	t.repeat("faults", sig)
	if tr != nil {
		b.attribute(tr, t)
	}
}

// attribute replays every campaign run from its own seed, first bare and
// then as the campaign runs it: with the critpath builder attached, the
// path analysed and, after a recovery, the degraded forest priced. It
// then replays the degraded scorecard's faulted runs bare. The untraced
// operation makes none of these runs, so they count as reference time.
func (b *faultsBench) attribute(tr *ledger, t *tally) {
	t0 := time.Now()
	defer func() { tr.ref += time.Since(t0).Seconds() }()
	var errs []string
	base := netsim.Config{LinkLatency: b.cc.LinkLatency, VCDepth: b.cc.VCDepth}
	inputs := workload.Vectors(b.inst.N(), b.cc.M, 1000, b.cc.Seed)
	for ki, name := range b.cc.Embeddings {
		kind, err := chaos.ParseEmbedding(name)
		if err != nil {
			errs = append(errs, err.Error())
			continue
		}
		e := b.embeds[slices.Index(sweepKinds, kind)]
		for r := 0; r < b.cc.Runs; r++ {
			plan, err := chaos.RandomPlan(b.inst, e, b.cc.LinkLatency, b.cc.MinAt, b.cc.MaxAt,
				chaos.RunSeed(b.cc.Seed, b.q, ki, r))
			if err != nil {
				errs = append(errs, err.Error())
				continue
			}
			cfg := base
			cfg.Faults = plan
			// Aborts are classified by the campaign; the replay only times them.
			ref, _ := bare(tr, b.inst, e, inputs, cfg)

			start := time.Now()
			events := 0
			bld := critpath.NewBuilder()
			bld.Attach(&cfg)
			countEvents(&cfg, &events)
			res, err := b.inst.Allreduce(e, inputs, cfg)
			tr.add("critpath.observe_s", time.Since(start).Seconds()-ref)
			tr.add("critpath.events", float64(events))
			if err == nil {
				stop := tr.start("critpath.analyze_s")
				_, err = bld.Analyze(res.Cycles)
				stop()
				if err != nil {
					errs = append(errs, err.Error())
				}
				var failed [][2]int
				for _, rec := range res.Recoveries {
					failed = append(failed, rec.FailedLinks...)
				}
				if len(failed) > 0 {
					stop = tr.start("core.degrade_s")
					_, err = core.Degrade(e, failed)
					stop()
					if err != nil {
						errs = append(errs, err.Error())
					}
				}
			}
			tr.runs = append(tr.runs, time.Since(start).Seconds())
		}
	}
	inD := workload.Vectors(b.inst.N(), b.dc.M, 1000, b.dc.Seed)
	for i, e := range b.embeds {
		cfg := netsim.Config{LinkLatency: b.dc.LinkLatency, VCDepth: b.dc.VCDepth, Faults: &faults.Plan{
			Faults: []faults.Fault{{Kind: faults.LinkDown, U: b.worst[i][0], V: b.worst[i][1], At: b.dc.FailAt}}}}
		// The single-tree run aborts by design; the scorecard checks that.
		_, _ = bare(tr, b.inst, e, inD, cfg)
	}
	t.check("faults attribution", errs...)
}
