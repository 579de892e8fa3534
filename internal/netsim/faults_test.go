package netsim

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"polarfly/internal/bandwidth"
	"polarfly/internal/er"
	"polarfly/internal/faults"
	"polarfly/internal/graph"
	"polarfly/internal/singer"
	"polarfly/internal/trees"
)

// buildPolarSpec assembles an ER_q Allreduce spec with the Equation 2
// split, without running it — fault tests pick their own configs.
func buildPolarSpec(t *testing.T, q, m int, forestKind string) (Spec, float64) {
	t.Helper()
	pg, err := er.New(q)
	if err != nil {
		t.Fatal(err)
	}
	var forest []*trees.Tree
	var topo *graph.Graph
	switch forestKind {
	case "lowdepth":
		l, err := er.NewLayout(pg, -1)
		if err != nil {
			t.Fatal(err)
		}
		forest, err = trees.LowDepthForest(l)
		if err != nil {
			t.Fatal(err)
		}
		topo = pg.G
	case "hamiltonian":
		s, err := singer.New(q)
		if err != nil {
			t.Fatal(err)
		}
		forest, err = trees.HamiltonianForest(s, 30, 42)
		if err != nil {
			t.Fatal(err)
		}
		topo = s.Topology()
	case "single":
		tr, err := trees.SingleTreeBaseline(pg.G, 0)
		if err != nil {
			t.Fatal(err)
		}
		forest = []*trees.Tree{tr}
		topo = pg.G
	default:
		t.Fatalf("unknown forest kind %q", forestKind)
	}
	wf := bandwidth.ForForest(forest, 1.0)
	split, err := bandwidth.SubvectorSplit(m, wf.PerTree)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Topology: topo, Forest: forest, Split: split,
		Inputs: randInputs(topo.N(), m, int64(q))}
	return spec, wf.Aggregate
}

// firstTreeLink returns the first parent edge of forest tree ti,
// canonicalised to u < v.
func firstTreeLink(spec Spec, ti int) [2]int {
	for v, p := range spec.Forest[ti].Parent {
		if p >= 0 {
			if v < p {
				return [2]int{v, p}
			}
			return [2]int{p, v}
		}
	}
	panic("tree has no edges")
}

// TestFaultRecoveryPerEmbedding is the tentpole acceptance scenario: a
// single link fails mid-reduction on ER_7 under each multi-tree
// embedding; the run must detect the loss, abort the crossing trees,
// re-issue their elements, and still deliver a numerically correct
// allreduce at every node, with post-recovery bandwidth matching the
// surviving forest's waterfill.
func TestFaultRecoveryPerEmbedding(t *testing.T) {
	for _, kind := range []string{"lowdepth", "hamiltonian"} {
		t.Run(kind, func(t *testing.T) {
			m := 3000
			spec, _ := buildPolarSpec(t, 7, m, kind)
			link := firstTreeLink(spec, 0)
			plan := &faults.Plan{Faults: []faults.Fault{
				{Kind: faults.LinkDown, U: link[0], V: link[1], At: 200},
			}}
			cfg := Config{LinkLatency: 3, VCDepth: 6, Faults: plan}
			res, err := Run(spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkOutputs(t, spec, res)

			if len(res.Recoveries) != 1 {
				t.Fatalf("recoveries = %d, want 1 (%+v)", len(res.Recoveries), res.Recoveries)
			}
			rec := res.Recoveries[0]
			if len(rec.FailedLinks) != 1 || rec.FailedLinks[0] != link {
				t.Errorf("recovery blamed links %v, want [%v]", rec.FailedLinks, link)
			}
			if rec.Cycle <= 200 {
				t.Errorf("recovery at cycle %d, before the fault at 200", rec.Cycle)
			}
			if res.DroppedFlits == 0 {
				t.Error("link failure mid-reduction dropped no flits")
			}
			maxDead := 2 // low-depth congestion bound (Theorem 7.6)
			if kind == "hamiltonian" {
				maxDead = 1 // edge-disjoint trees (Theorem 7.19)
			}
			if len(res.DeadTrees) < 1 || len(res.DeadTrees) > maxDead {
				t.Errorf("%d dead trees %v, want 1..%d", len(res.DeadTrees), res.DeadTrees, maxDead)
			}

			// Post-recovery bandwidth ≈ the surviving forest's waterfill.
			dead := make(map[int]bool)
			for _, ti := range res.DeadTrees {
				dead[ti] = true
			}
			var survivors []*trees.Tree
			for ti, tr := range spec.Forest {
				if !dead[ti] {
					survivors = append(survivors, tr)
				}
			}
			agg := bandwidth.ForForest(survivors, 1.0).Aggregate
			if res.PostRecoveryBW < 0.7*agg || res.PostRecoveryBW > 1.15*agg {
				t.Errorf("post-recovery bandwidth %.3f vs surviving waterfill %.3f (outside [0.7, 1.15]×)",
					res.PostRecoveryBW, agg)
			}
		})
	}
}

// TestSingleTreeLinkFailureLosesEverything: the single-tree baseline has
// no survivors to recover onto — any used-link failure is fatal.
func TestSingleTreeLinkFailureLosesEverything(t *testing.T) {
	spec, _ := buildPolarSpec(t, 7, 2000, "single")
	link := firstTreeLink(spec, 0)
	plan := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.LinkDown, U: link[0], V: link[1], At: 100},
	}}
	_, err := Run(spec, Config{LinkLatency: 3, VCDepth: 6, Faults: plan})
	if !errors.Is(err, ErrAllTreesLost) {
		t.Fatalf("err = %v, want ErrAllTreesLost", err)
	}
}

// TestTransientFaultStillKillsTree: a transient window that loses flits
// breaks the stream permanently — the link heals, but the trees crossing
// it are aborted and their work re-issued, and the result stays correct.
func TestTransientFaultStillKillsTree(t *testing.T) {
	m := 1200
	spec, _ := buildPolarSpec(t, 3, m, "lowdepth")
	link := firstTreeLink(spec, 0)
	plan := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.LinkTransient, U: link[0], V: link[1], At: 150, Until: 200},
	}}
	res, err := Run(spec, Config{LinkLatency: 3, VCDepth: 6, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	checkOutputs(t, spec, res)
	if len(res.Recoveries) != 1 {
		t.Fatalf("recoveries = %d, want 1", len(res.Recoveries))
	}
	if len(res.DeadTrees) == 0 {
		t.Error("transient loss killed no trees")
	}
}

// TestDegradedLinkNoRecovery: a degraded link loses nothing, so no
// recovery fires — the run just slows to the token-bucket rate.
func TestDegradedLinkNoRecovery(t *testing.T) {
	m := 512
	spec := lineSpec(t, 5, m)
	base, err := Run(spec, Config{LinkLatency: 2, VCDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	plan := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.LinkDegraded, U: 1, V: 2, At: 1, Bandwidth: 0.25},
	}}
	res, err := Run(spec, Config{LinkLatency: 2, VCDepth: 8, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	checkOutputs(t, spec, res)
	if len(res.Recoveries) != 0 || res.DroppedFlits != 0 || len(res.DeadTrees) != 0 {
		t.Errorf("degraded link triggered recovery: %+v", res)
	}
	// The reduce stream over 1→2 is metered at 0.25 flits/cycle, so the
	// run serialises to ≥ 4m cycles, versus ~m fault-free.
	if res.Cycles < 4*m {
		t.Errorf("cycles = %d with a 0.25× link, want ≥ %d (fault-free: %d)", res.Cycles, 4*m, base.Cycles)
	}
	if res.Cycles > 4*m+600 {
		t.Errorf("cycles = %d way above the metering bound %d", res.Cycles, 4*m)
	}
	if res.Cycles <= base.Cycles {
		t.Errorf("degraded run (%d cycles) not slower than fault-free (%d)", res.Cycles, base.Cycles)
	}
}

// TestEngineStallDelaysRun: a stalled reduction engine back-pressures
// without losing anything; the run finishes correctly, later.
func TestEngineStallDelaysRun(t *testing.T) {
	m := 256
	spec := lineSpec(t, 5, m) // root is node 2
	base, err := Run(spec, Config{LinkLatency: 2, VCDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	stallEnd := base.Cycles + 100
	plan := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.EngineStall, Node: 2, At: 1, Until: stallEnd},
	}}
	res, err := Run(spec, Config{LinkLatency: 2, VCDepth: 8, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	checkOutputs(t, spec, res)
	if len(res.Recoveries) != 0 || res.DroppedFlits != 0 {
		t.Errorf("engine stall dropped flits or recovered: %+v", res)
	}
	// The root computes nothing before stallEnd, so the broadcast cannot
	// have finished earlier.
	if res.Cycles < stallEnd {
		t.Errorf("cycles = %d, want ≥ stall window end %d", res.Cycles, stallEnd)
	}
	if res.Cycles <= base.Cycles {
		t.Errorf("stalled run (%d cycles) not slower than fault-free (%d)", res.Cycles, base.Cycles)
	}
}

// TestEngineStallReturnsProgressError: an engine stall loses nothing, so
// no recovery fires, and one that outlasts the progress timeout strands
// the run. Both policies abort at the first cycle past the timeout with
// a diagnostic naming the stalled tree.
func TestEngineStallReturnsProgressError(t *testing.T) {
	spec := lineSpec(t, 5, 256) // root is node 2
	plan := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.EngineStall, Node: 2, At: 50}, // never ends
	}}
	for _, e := range []Engine{EngineCycle, EngineEvent} {
		_, err := Run(spec, Config{LinkLatency: 2, VCDepth: 4, Faults: plan, Engine: e})
		var pe *ProgressError
		if !errors.As(err, &pe) {
			t.Fatalf("%v: err = %v (%T), want *ProgressError", e, err, err)
		}
		if pe.IdleCycles != DefaultProgressTimeout+1 || pe.Cycle != pe.LastProgressCycle+pe.IdleCycles {
			t.Errorf("%v: gave up at cycle %d after %d idle cycles from %d, want %d idle cycles",
				e, pe.Cycle, pe.IdleCycles, pe.LastProgressCycle, DefaultProgressTimeout+1)
		}
		if pe.LastProgressCycle < 50 {
			t.Errorf("%v: last progress at cycle %d, before the stall began", e, pe.LastProgressCycle)
		}
		if pe.PendingFlits <= 0 {
			t.Errorf("%v: PendingFlits = %d, want > 0", e, pe.PendingFlits)
		}
		if !reflect.DeepEqual(pe.StalledTrees, []int{0}) {
			t.Errorf("%v: StalledTrees = %v, want [0]", e, pe.StalledTrees)
		}
	}
}

// TestNewSimValidatesConfig: newSim itself validates the config and
// fills its defaults, so a simulator built without Run — as the
// advance-loop benchmarks build theirs — refuses an invalid fabric and
// recovers from a firing link failure under the default recovery cap.
func TestNewSimValidatesConfig(t *testing.T) {
	spec, _ := buildPolarSpec(t, 5, 1200, "lowdepth")
	if _, err := newSim(spec, Config{VCDepth: 4}); err == nil {
		t.Error("newSim accepted LinkLatency 0")
	}
	link := firstTreeLink(spec, 0)
	s, err := newSim(spec, Config{LinkLatency: 3, VCDepth: 6, Faults: &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.LinkDown, U: link[0], V: link[1], At: 150}}}})
	if err != nil {
		t.Fatal(err)
	}
	now, err := s.advance()
	if err != nil {
		t.Fatalf("advance: %v", err)
	}
	res, err := s.finalize(now)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recoveries) == 0 {
		t.Fatal("the link failure fired no recovery")
	}
	checkOutputs(t, spec, res)
}

// TestDetectionBeatsTimeoutAtMaxLatency pins the LinkLatency bound. On a
// one-link fabric whose only flit is lost at injection in cycle 1, nothing
// moves afterwards: detection is due at cycle 1 + DetectDeadline + 1 and
// the progress timeout at cycle 1 + DefaultProgressTimeout + 1. At the
// largest accepted latency the two coincide and detection, which runs
// first in the cycle, classifies the loss; one cycle more is refused.
func TestDetectionBeatsTimeoutAtMaxLatency(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1)
	tr, err := trees.FromParent(0, []int{-1, 0})
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Topology: g, Forest: []*trees.Tree{tr}, Split: []int{1}, Inputs: randInputs(2, 1, 3)}
	plan := &faults.Plan{Faults: []faults.Fault{{Kind: faults.LinkDown, U: 0, V: 1, At: 1}}}
	if DetectDeadline(maxLinkLatency) != DefaultProgressTimeout {
		t.Fatalf("DetectDeadline(%d) = %d, want the progress timeout %d",
			maxLinkLatency, DetectDeadline(maxLinkLatency), DefaultProgressTimeout)
	}
	for _, e := range []Engine{EngineCycle, EngineEvent} {
		_, err := Run(spec, Config{LinkLatency: maxLinkLatency, VCDepth: 1, Faults: plan, Engine: e})
		if !errors.Is(err, ErrAllTreesLost) || !strings.Contains(err.Error(), fmt.Sprintf("at cycle %d", DefaultProgressTimeout+2)) {
			t.Errorf("%v: err = %v, want ErrAllTreesLost at cycle %d", e, err, DefaultProgressTimeout+2)
		}
		if _, err := Run(spec, Config{LinkLatency: maxLinkLatency + 1, VCDepth: 1, Engine: e}); err == nil {
			t.Errorf("%v: LinkLatency %d accepted", e, maxLinkLatency+1)
		}
	}
}

// TestFaultOnUnusedLinkIsNoop: a fault on a topology link no tree uses
// must not perturb the run at all.
func TestFaultOnUnusedLinkIsNoop(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	tr, err := trees.FromParent(2, []int{1, 2, -1}) // uses (0,1) and (1,2) only
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Topology: g, Forest: []*trees.Tree{tr}, Split: []int{64},
		Inputs: randInputs(3, 64, 9)}
	base, err := Run(spec, Config{LinkLatency: 2, VCDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	plan := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.LinkDown, U: 0, V: 2, At: 10},
	}}
	res, err := Run(spec, Config{LinkLatency: 2, VCDepth: 4, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	checkOutputs(t, spec, res)
	if res.Cycles != base.Cycles || res.DroppedFlits != 0 || len(res.Recoveries) != 0 {
		t.Errorf("unused-link fault perturbed the run: %d vs %d cycles, %d drops",
			res.Cycles, base.Cycles, res.DroppedFlits)
	}
}

// TestFaultRunDeterminism: the same plan, spec, and config must replay
// bit-for-bit — identical traces, outputs, and recovery records.
func TestFaultRunDeterminism(t *testing.T) {
	m := 1200
	spec, _ := buildPolarSpec(t, 3, m, "lowdepth")
	link := firstTreeLink(spec, 0)
	plan := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.LinkDown, U: link[0], V: link[1], At: 150},
	}}
	run := func() ([]TraceEvent, *Result) {
		var evs []TraceEvent
		cfg := Config{LinkLatency: 3, VCDepth: 6, Faults: plan,
			Trace: func(ev TraceEvent) { evs = append(evs, ev) }}
		res, err := Run(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return evs, res
	}
	evA, resA := run()
	evB, resB := run()
	if len(evA) != len(evB) {
		t.Fatalf("trace lengths differ: %d vs %d", len(evA), len(evB))
	}
	for i := range evA {
		if evA[i] != evB[i] {
			t.Fatalf("trace event %d differs: %+v vs %+v", i, evA[i], evB[i])
		}
	}
	if resA.Cycles != resB.Cycles || resA.DroppedFlits != resB.DroppedFlits ||
		!reflect.DeepEqual(resA.Recoveries, resB.Recoveries) ||
		!reflect.DeepEqual(resA.Outputs, resB.Outputs) {
		t.Error("fault-injected runs diverged")
	}
	checkOutputs(t, spec, resA)
}

// TestFaultSpecValidation: plan endpoints must fit the topology and the
// op must be Allreduce.
func TestFaultSpecValidation(t *testing.T) {
	spec := lineSpec(t, 5, 8)
	out := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.LinkDown, U: 1, V: 99, At: 10},
	}}
	if _, err := Run(spec, Config{LinkLatency: 2, VCDepth: 4, Faults: out}); err == nil {
		t.Error("out-of-range link endpoint accepted")
	}
	node := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.EngineStall, Node: 7, At: 10, Until: 20},
	}}
	if _, err := Run(spec, Config{LinkLatency: 2, VCDepth: 4, Faults: node}); err == nil {
		t.Error("out-of-range stall node accepted")
	}
	ok := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.LinkDown, U: 1, V: 2, At: 10},
	}}
	spec.Op = OpReduce
	if _, err := Run(spec, Config{LinkLatency: 2, VCDepth: 4, Faults: ok}); err == nil {
		t.Error("fault plan accepted for OpReduce")
	}
}

// TestLinkStatTreesEndOfRun pins LinkStat.Trees to its end-of-run
// meaning. Fault-free, it equals the number of trees the trace shows
// sending on the link. After a recovery it counts only the trees still
// alive: for every link, the trees whose edges cross it minus the trees
// recovery aborted, while the trace still shows the aborted trees'
// pre-fault sends (q=3 low-depth: shared directed links and the
// per-link maximum drop below the trace's).
func TestLinkStatTreesEndOfRun(t *testing.T) {
	spec, _ := buildPolarSpec(t, 3, 2048, "lowdepth")
	run := func(cfg Config) (*Result, map[[2]int]map[int]bool) {
		t.Helper()
		senders := make(map[[2]int]map[int]bool)
		cfg.Trace = func(ev TraceEvent) {
			if ev.Kind != TraceSend {
				return
			}
			key := [2]int{ev.From, ev.To}
			if senders[key] == nil {
				senders[key] = make(map[int]bool)
			}
			senders[key][ev.Tree] = true
		}
		res, err := Run(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, senders
	}
	shared := func(n int) int {
		if n >= 2 {
			return 1
		}
		return 0
	}

	res, senders := run(Config{LinkLatency: 1, VCDepth: 4})
	for _, ls := range res.LinkStats {
		if got := len(senders[[2]int{ls.From, ls.To}]); ls.Trees != got {
			t.Errorf("fault-free %d→%d: Trees = %d, trace shows %d sending trees", ls.From, ls.To, ls.Trees, got)
		}
	}

	link := firstTreeLink(spec, 0)
	res, senders = run(Config{LinkLatency: 1, VCDepth: 4, Faults: &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.LinkDown, U: link[0], V: link[1], At: 100}}}})
	if len(res.DeadTrees) == 0 {
		t.Fatal("the link failure aborted no tree")
	}
	dead := make(map[int]bool)
	for _, ti := range res.DeadTrees {
		dead[ti] = true
	}
	statShared, traceShared, statMax, traceMax := 0, 0, 0, 0
	for _, ls := range res.LinkStats {
		live := 0
		for ti, tr := range spec.Forest {
			for v, p := range tr.Parent {
				if !dead[ti] && ((v == ls.From && p == ls.To) || (v == ls.To && p == ls.From)) {
					live++
				}
			}
		}
		if ls.Trees != live {
			t.Errorf("faulted %d→%d: Trees = %d, want the %d surviving trees crossing it", ls.From, ls.To, ls.Trees, live)
		}
		sent := len(senders[[2]int{ls.From, ls.To}])
		statShared += shared(ls.Trees)
		traceShared += shared(sent)
		statMax = max(statMax, ls.Trees)
		traceMax = max(traceMax, sent)
	}
	if statShared >= traceShared || statMax >= traceMax {
		t.Errorf("after recovery: %d shared links (max %d trees) in LinkStats vs %d (max %d) in the trace; want fewer in LinkStats",
			statShared, statMax, traceShared, traceMax)
	}
}
