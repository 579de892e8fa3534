package netsim

import (
	"math/rand"
	"testing"

	"polarfly/internal/bandwidth"
	"polarfly/internal/er"
	"polarfly/internal/graph"
	"polarfly/internal/singer"
	"polarfly/internal/trees"
)

// randInputs builds deterministic pseudo-random input vectors.
func randInputs(n, m int, seed int64) [][]int64 {
	rng := rand.New(rand.NewSource(seed))
	in := make([][]int64, n)
	for v := range in {
		in[v] = make([]int64, m)
		for k := range in[v] {
			in[v][k] = int64(rng.Intn(2000) - 1000)
		}
	}
	return in
}

func checkOutputs(t *testing.T, spec Spec, res *Result) {
	t.Helper()
	want := ExpectedOutput(spec.Inputs)
	for v, out := range res.Outputs {
		if len(out) != len(want) {
			t.Fatalf("node %d: output length %d, want %d", v, len(out), len(want))
		}
		for k := range want {
			if out[k] != want[k] {
				t.Fatalf("node %d element %d: got %d, want %d", v, k, out[k], want[k])
			}
		}
	}
}

// lineTopology returns a path graph and its single path tree rooted at mid.
func lineSpec(t *testing.T, n, m int) Spec {
	t.Helper()
	g := graph.New(n)
	path := make([]int, n)
	for i := 0; i < n; i++ {
		path[i] = i
		if i+1 < n {
			g.AddEdge(i, i+1)
		}
	}
	tr, err := trees.FromPath(path, (n-1)/2)
	if err != nil {
		t.Fatal(err)
	}
	return Spec{
		Topology: g,
		Forest:   []*trees.Tree{tr},
		Split:    []int{m},
		Inputs:   randInputs(n, m, 1),
	}
}

func TestSingleTreeCorrectness(t *testing.T) {
	spec := lineSpec(t, 7, 64)
	res, err := Run(spec, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkOutputs(t, spec, res)
	if res.FlitsSent != 2*6*64 { // reduce + broadcast on 6 links × 64 flits
		t.Errorf("FlitsSent = %d, want %d", res.FlitsSent, 2*6*64)
	}
	if res.TreeDone[0] != res.Cycles {
		t.Errorf("TreeDone %v vs Cycles %d", res.TreeDone, res.Cycles)
	}
}

func TestTwoNodeMinimal(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1)
	tr, err := trees.FromParent(0, []int{-1, 0})
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Topology: g, Forest: []*trees.Tree{tr}, Split: []int{5},
		Inputs: [][]int64{{1, 2, 3, 4, 5}, {10, 20, 30, 40, 50}}}
	res, err := Run(spec, Config{LinkLatency: 1, VCDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkOutputs(t, spec, res)
}

func TestSingleElement(t *testing.T) {
	spec := lineSpec(t, 5, 1)
	res, err := Run(spec, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkOutputs(t, spec, res)
	// One flit each way through depth-2 trees: latency-dominated.
	// Reduce: 2 hops, broadcast: 2 hops → ≥ 4×LinkLatency cycles.
	if res.Cycles < 4*DefaultConfig().LinkLatency {
		t.Errorf("Cycles = %d, implausibly small", res.Cycles)
	}
}

func TestZeroSplitTree(t *testing.T) {
	// A tree with zero elements participates without traffic.
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	t1, _ := trees.FromParent(0, []int{-1, 0, 1})
	t2, _ := trees.FromParent(2, []int{2, 0, -1})
	spec := Spec{Topology: g, Forest: []*trees.Tree{t1, t2}, Split: []int{8, 0},
		Inputs: randInputs(3, 8, 2)}
	res, err := Run(spec, Config{LinkLatency: 2, VCDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkOutputs(t, spec, res)
	if res.TreeDone[1] != 0 {
		t.Errorf("zero-split tree done at %d", res.TreeDone[1])
	}
}

func TestSpecValidation(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1)
	tr, _ := trees.FromParent(0, []int{-1, 0})
	good := Spec{Topology: g, Forest: []*trees.Tree{tr}, Split: []int{1},
		Inputs: [][]int64{{1}, {2}}}

	cases := []struct {
		name   string
		mutate func(Spec) Spec
	}{
		{"nil topology", func(s Spec) Spec { s.Topology = nil; return s }},
		{"empty forest", func(s Spec) Spec { s.Forest = nil; return s }},
		{"split mismatch", func(s Spec) Spec { s.Split = []int{1, 2}; return s }},
		{"negative split", func(s Spec) Spec { s.Split = []int{-1}; return s }},
		{"input count", func(s Spec) Spec { s.Inputs = s.Inputs[:1]; return s }},
		{"input length", func(s Spec) Spec {
			s.Inputs = [][]int64{{1, 2}, {3}}
			return s
		}},
	}
	for _, c := range cases {
		if _, err := Run(c.mutate(good), DefaultConfig()); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// Tree not spanning the topology.
	g3 := graph.New(3)
	g3.AddEdge(0, 1)
	g3.AddEdge(1, 2)
	badTree, _ := trees.FromParent(0, []int{-1, 0, 0}) // uses edge (0,2) ∉ g3
	bad := Spec{Topology: g3, Forest: []*trees.Tree{badTree}, Split: []int{1},
		Inputs: [][]int64{{1}, {2}, {3}}}
	if _, err := Run(bad, DefaultConfig()); err == nil {
		t.Error("non-spanning tree accepted")
	}
	// Config validation.
	if _, err := Run(good, Config{LinkLatency: 0, VCDepth: 1}); err == nil {
		t.Error("zero latency accepted")
	}
	if _, err := Run(good, Config{LinkLatency: 1, VCDepth: 0}); err == nil {
		t.Error("zero VC depth accepted")
	}
}

func TestPipelinedBandwidthSingleTree(t *testing.T) {
	// For a single tree with large m, throughput must approach one
	// element/cycle: cycles ≈ m + O(depth·latency).
	spec := lineSpec(t, 9, 2048)
	cfg := Config{LinkLatency: 4, VCDepth: 8}
	res, err := Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkOutputs(t, spec, res)
	m := 2048
	overhead := res.Cycles - m
	// Depth is 4 each way; generous bound on the pipeline fill time.
	if overhead < 0 || overhead > 40*cfg.LinkLatency {
		t.Errorf("cycles=%d for m=%d: overhead %d outside [0, %d]", res.Cycles, m, overhead, 40*cfg.LinkLatency)
	}
}

func TestVCDepthThrottlesThroughput(t *testing.T) {
	// With VCDepth < LinkLatency the credit loop caps per-link throughput
	// at VCDepth/LinkLatency flits/cycle (latency-bandwidth product).
	spec := lineSpec(t, 5, 512)
	fast, err := Run(spec, Config{LinkLatency: 8, VCDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(spec, Config{LinkLatency: 8, VCDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkOutputs(t, spec, slow)
	// Expect roughly 4× slowdown; accept anything ≥ 2.5×.
	if float64(slow.Cycles) < 2.5*float64(fast.Cycles) {
		t.Errorf("VCDepth=2 cycles %d vs VCDepth=8 cycles %d: credit loop not throttling",
			slow.Cycles, fast.Cycles)
	}
}

func TestCongestionHalvesThroughput(t *testing.T) {
	// Two trees sharing one link must each run at half rate: total time for
	// (m,m) split ≈ 2m, versus m for disjoint trees.
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 0)
	// Tree A: path 0-1-2 plus 3 hanging off 0... use parent arrays over the
	// 4-cycle: A roots at 2: 0→1→2, 3→0. B roots at 3: same middle link
	// (1,2) used in opposite... choose trees that BOTH use link (1,2):
	// A: 0→1→2←3 (root 2): parents: 0:1, 1:2, 3:2? (3,2) is an edge. Yes.
	// B: 1→2→3←0 root 3: parents: 1:2? that uses (1,2) again... but B must
	// be a spanning tree: 0→3, 2→3, 1→2.
	a, err := trees.FromParent(2, []int{1, 2, -1, 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := trees.FromParent(3, []int{3, 2, 3, -1})
	if err != nil {
		t.Fatal(err)
	}
	m := 256
	spec := Spec{Topology: g, Forest: []*trees.Tree{a, b}, Split: []int{m, m},
		Inputs: randInputs(4, 2*m, 3)}
	cfg := Config{LinkLatency: 2, VCDepth: 8}
	res, err := Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkOutputs(t, spec, res)

	// Link (1,2) carries reduce flits of both trees in the SAME direction
	// (1→2 for A, 1→2 for B)? A: parent[1]=2 → 1→2. B: parent[1]=2 → 1→2.
	// So the shared direction serialises 2m flits: cycles ≥ 2m.
	if res.Cycles < 2*m {
		t.Errorf("cycles=%d < 2m=%d despite shared link", res.Cycles, 2*m)
	}
	if res.Cycles > 2*m+60*cfg.LinkLatency {
		t.Errorf("cycles=%d way above serialisation bound %d", res.Cycles, 2*m)
	}

	// Against the analytic model: waterfill gives each tree B/2; with the
	// optimal split the predicted time is 2m/B... here both trees carry m
	// so t = m/(B/2) = 2m.
	wf := bandwidth.ForForest([]*trees.Tree{a, b}, 1.0)
	if wf.PerTree[0] != 0.5 || wf.PerTree[1] != 0.5 {
		t.Errorf("waterfill = %+v, want 0.5 each", wf)
	}
}

func TestOpposedDirectionsDoNotConflict(t *testing.T) {
	// Lemma 7.8's payoff: if two trees use a link in OPPOSITE reduction
	// directions, both proceed at full rate (separate directed links).
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	// A roots at 2: 0→1→2. B roots at 0: 2→1→0. Link (0,1) and (1,2) are
	// shared but always in opposite directions.
	a, _ := trees.FromParent(2, []int{1, 2, -1})
	b, _ := trees.FromParent(0, []int{-1, 0, 1})
	m := 256
	spec := Spec{Topology: g, Forest: []*trees.Tree{a, b}, Split: []int{m, m},
		Inputs: randInputs(3, 2*m, 4)}
	res, err := Run(spec, Config{LinkLatency: 2, VCDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	checkOutputs(t, spec, res)
	// Reduction of A (0→1→2) and B (2→1→0) never share a directed link,
	// but A's broadcast (2→1→0) shares direction with B's reduction, so
	// each shared directed link carries 2m flits total → ~2m cycles. The
	// point of this test is correctness under full-duplex sharing.
	if res.Cycles > 2*m+120 {
		t.Errorf("cycles=%d too high for opposed embedding", res.Cycles)
	}
}

func runForestOnPolarFly(t *testing.T, q, m int, forestKind string) (Spec, *Result, float64) {
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
	res, err := Run(spec, Config{LinkLatency: 3, VCDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	checkOutputs(t, spec, res)
	return spec, res, wf.Aggregate
}

func TestPolarFlyLowDepthForestSimulation(t *testing.T) {
	// End-to-end on ER_5: the q=5 low-depth forest must beat the single
	// tree by roughly its aggregate bandwidth factor.
	m := 1500
	_, single, _ := runForestOnPolarFly(t, 5, m, "single")
	_, multi, agg := runForestOnPolarFly(t, 5, m, "lowdepth")
	if agg < 2.5 {
		t.Fatalf("waterfill aggregate %f < qB/2", agg)
	}
	speedup := float64(single.Cycles) / float64(multi.Cycles)
	// Predicted speedup ≈ agg (bandwidth-bound regime); allow slack for
	// pipeline fill.
	if speedup < 0.7*agg {
		t.Errorf("speedup %.2f below 70%% of predicted %.2f (single=%d multi=%d)",
			speedup, agg, single.Cycles, multi.Cycles)
	}
}

func TestPolarFlyHamiltonianForestSimulation(t *testing.T) {
	m := 1500
	_, single, _ := runForestOnPolarFly(t, 5, m, "single")
	_, multi, agg := runForestOnPolarFly(t, 5, m, "hamiltonian")
	if agg != 3.0 { // ⌊(5+1)/2⌋ = 3 disjoint trees at B=1
		t.Fatalf("aggregate %f, want 3", agg)
	}
	speedup := float64(single.Cycles) / float64(multi.Cycles)
	if speedup < 0.7*agg {
		t.Errorf("speedup %.2f below 70%% of predicted %.2f (single=%d multi=%d)",
			speedup, agg, single.Cycles, multi.Cycles)
	}
}

func TestMeasuredMatchesModelBandwidth(t *testing.T) {
	// For large m the measured rate m/cycles must approach the waterfill
	// aggregate within 20%, for both solutions on ER_7.
	for _, kind := range []string{"lowdepth", "hamiltonian"} {
		m := 4000
		_, res, agg := runForestOnPolarFly(t, 7, m, kind)
		measured := float64(m) / float64(res.Cycles)
		if measured < 0.8*agg {
			t.Errorf("%s: measured %.2f elem/cycle < 80%% of model %.2f", kind, measured, agg)
		}
		if measured > 1.05*agg {
			t.Errorf("%s: measured %.2f elem/cycle exceeds model %.2f", kind, measured, agg)
		}
	}
}

func TestLatencyAdvantageOfLowDepthTrees(t *testing.T) {
	// Small-m regime: the depth-3 forest must complete far sooner than the
	// depth-(N−1)/2 Hamiltonian forest (Figure 5b's latency story).
	m := 8
	_, low, _ := runForestOnPolarFly(t, 5, m, "lowdepth")
	_, ham, _ := runForestOnPolarFly(t, 5, m, "hamiltonian")
	if low.Cycles >= ham.Cycles {
		t.Errorf("low-depth (%d cycles) not faster than Hamiltonian (%d cycles) at m=%d",
			low.Cycles, ham.Cycles, m)
	}
}

func TestDeterminism(t *testing.T) {
	spec := lineSpec(t, 7, 128)
	a, err := Run(spec, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.FlitsSent != b.FlitsSent || a.PeakBufferFlits != b.PeakBufferFlits {
		t.Errorf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestPeakBufferBoundedByVCDepth(t *testing.T) {
	spec := lineSpec(t, 9, 512)
	cfg := Config{LinkLatency: 4, VCDepth: 3}
	res, err := Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Total VCs = flows; each holds ≤ VCDepth.
	maxFlows := 2 * 2 * 8 // 8 links × 2 directions... bound loosely:
	if res.PeakBufferFlits > cfg.VCDepth*maxFlows {
		t.Errorf("peak buffer %d exceeds VC capacity bound %d", res.PeakBufferFlits, cfg.VCDepth*maxFlows)
	}
	if res.PeakBufferFlits == 0 {
		t.Error("peak buffer should be non-zero")
	}
}

func TestExpectedOutput(t *testing.T) {
	in := [][]int64{{1, 2}, {3, 4}, {5, 6}}
	out := ExpectedOutput(in)
	if out[0] != 9 || out[1] != 12 {
		t.Errorf("ExpectedOutput = %v", out)
	}
	if ExpectedOutput(nil) != nil {
		t.Error("ExpectedOutput(nil) should be nil")
	}
}

// TestTreeReduceDone pins the reduce/broadcast boundary in Result: the
// root computes its last flit strictly after the reduce streams start and
// strictly before the broadcast finishes, and the broadcast-only op
// reports no reduce phase.
func TestTreeReduceDone(t *testing.T) {
	spec := lineSpec(t, 5, 64)
	res, err := Run(spec, Config{LinkLatency: 2, VCDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TreeReduceDone) != 1 {
		t.Fatalf("TreeReduceDone has %d entries, want 1", len(res.TreeReduceDone))
	}
	rd := res.TreeReduceDone[0]
	if rd <= 0 || rd >= res.Cycles {
		t.Errorf("reduce phase ended at cycle %d, want inside (0, %d)", rd, res.Cycles)
	}
	if rd > res.TreeDone[0] {
		t.Errorf("reduce phase ended at %d, after the tree finished at %d", rd, res.TreeDone[0])
	}

	spec.Op = OpBroadcast
	bres, err := Run(spec, Config{LinkLatency: 2, VCDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if bres.TreeReduceDone[0] != -1 {
		t.Errorf("broadcast-only run reports reduce end %d, want -1", bres.TreeReduceDone[0])
	}

	spec.Op = OpReduce
	rres, err := Run(spec, Config{LinkLatency: 2, VCDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rres.TreeReduceDone[0] != rres.Cycles {
		t.Errorf("reduce-only run: reduce ended at %d, run at %d; they must coincide",
			rres.TreeReduceDone[0], rres.Cycles)
	}
}
