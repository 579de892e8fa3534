package core

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"polarfly/internal/bandwidth"
	"polarfly/internal/faults"
	"polarfly/internal/graph"
	"polarfly/internal/netsim"
	"polarfly/internal/trees"
	"polarfly/internal/workload"
)

func TestTreesUsingLink(t *testing.T) {
	in := instance(t, 5)
	e, err := in.Embed(LowDepth)
	if err != nil {
		t.Fatal(err)
	}
	// Every tree edge maps back to its tree.
	for ti, tr := range e.Forest {
		edges := tr.Edges()
		found := false
		for _, idx := range TreesUsingLink(e.Forest, edges[0].U, edges[0].V) {
			if idx == ti {
				found = true
			}
		}
		if !found {
			t.Fatalf("tree %d not found for its own edge", ti)
		}
	}
	// Theorem 7.6: no link serves more than 2 trees.
	for _, tr := range e.Forest {
		for _, edge := range tr.Edges() {
			if n := len(TreesUsingLink(e.Forest, edge.U, edge.V)); n > 2 {
				t.Fatalf("link %v used by %d trees", edge, n)
			}
		}
	}
}

// TestTreesUsingLinkContract pins the edge cases of the parent-array
// membership test: a self-loop panics (graph.NewEdge), an endpoint outside
// the vertex range matches no tree instead of indexing out of bounds, and
// either endpoint order names the same link.
func TestTreesUsingLinkContract(t *testing.T) {
	in := instance(t, 3)
	e, err := in.Embed(LowDepth)
	if err != nil {
		t.Fatal(err)
	}
	n := in.N()
	for _, l := range [][2]int{{-1, 0}, {0, -1}, {0, n}, {n, n + 1}, {-5, n + 3}} {
		if got := TreesUsingLink(e.Forest, l[0], l[1]); len(got) != 0 {
			t.Errorf("out-of-range link %v used by trees %v, want none", l, got)
		}
	}
	edge := e.Forest[0].Edges()[0]
	if a, b := TreesUsingLink(e.Forest, edge.U, edge.V), TreesUsingLink(e.Forest, edge.V, edge.U); !reflect.DeepEqual(a, b) || len(a) == 0 {
		t.Errorf("link %v: trees %v vs reversed %v", edge, a, b)
	}
	defer func() {
		if recover() == nil {
			t.Error("self-loop did not panic")
		}
	}()
	TreesUsingLink(e.Forest, 2, 2)
}

func TestDegradeDropsAffectedTreesOnly(t *testing.T) {
	in := instance(t, 5)
	e, err := in.Embed(Hamiltonian)
	if err != nil {
		t.Fatal(err)
	}
	// Fail one edge of tree 0: exactly one tree dies (edge-disjointness).
	victim := e.Forest[0].Edges()[3]
	deg, err := Degrade(e, [][2]int{{victim.U, victim.V}})
	if err != nil {
		t.Fatal(err)
	}
	if len(deg.Forest) != len(e.Forest)-1 {
		t.Errorf("lost %d trees, want 1", len(e.Forest)-len(deg.Forest))
	}
	if deg.Model.Aggregate != e.Model.Aggregate-1.0 {
		t.Errorf("degraded BW %f, want %f", deg.Model.Aggregate, e.Model.Aggregate-1.0)
	}

	// The degraded embedding still computes correct Allreduces.
	inputs := workload.Vectors(in.N(), 120, 100, 8)
	res, err := in.Allreduce(deg, inputs, netsim.Config{LinkLatency: 2, VCDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := netsim.ExpectedOutput(inputs)
	for v := range res.Outputs {
		for k := range want {
			if res.Outputs[v][k] != want[k] {
				t.Fatalf("degraded allreduce wrong at node %d", v)
			}
		}
	}

	// Failing every tree's first edge kills the whole forest.
	var all [][2]int
	for _, tr := range e.Forest {
		edge := tr.Edges()[0]
		all = append(all, [2]int{edge.U, edge.V})
	}
	if _, err := Degrade(e, all); err == nil {
		t.Error("total failure should error")
	}
}

// TestSingleLinkFailureProperty exercises the structural robustness claim
// across q ∈ {3, 5, 7, 11}: EVERY single link failure (not just the worst
// case) removes at most 2 low-depth trees (Theorem 7.6's congestion
// bound) and at most 1 Hamiltonian tree (Theorem 7.19's edge-
// disjointness), while the single-tree baseline loses everything on any
// used link.
func TestSingleLinkFailureProperty(t *testing.T) {
	for _, q := range []int{3, 5, 7, 11} {
		in := instance(t, q)
		cases := []struct {
			kind    EmbeddingKind
			maxLost int
		}{
			{LowDepth, 2},
			{Hamiltonian, 1},
		}
		for _, c := range cases {
			e, err := in.Embed(c.kind)
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range e.Forest {
				for _, edge := range tr.Edges() {
					deg, err := Degrade(e, [][2]int{{edge.U, edge.V}})
					if err != nil {
						t.Fatalf("q=%d %v: link %v killed all trees: %v", q, c.kind, edge, err)
					}
					lost := len(e.Forest) - len(deg.Forest)
					if lost < 1 || lost > c.maxLost {
						t.Errorf("q=%d %v: link %v lost %d trees, want 1..%d",
							q, c.kind, edge, lost, c.maxLost)
					}
				}
			}
		}
		// The single-tree baseline: every used link is fatal.
		e, err := in.Embed(SingleTree)
		if err != nil {
			t.Fatal(err)
		}
		for _, edge := range e.Forest[0].Edges() {
			if _, err := Degrade(e, [][2]int{{edge.U, edge.V}}); err == nil {
				t.Errorf("q=%d single tree survived losing link %v", q, edge)
			}
		}
	}
}

// forestLinks returns every link any tree of the embedding uses, in the
// deterministic tree/edge iteration order, deduplicated.
func forestLinks(e *Embedding) [][2]int {
	var pool [][2]int
	seen := map[[2]int]bool{}
	for _, tr := range e.Forest {
		for _, edge := range tr.Edges() {
			u, v := edge.U, edge.V
			if u > v {
				u, v = v, u
			}
			if !seen[[2]int{u, v}] {
				seen[[2]int{u, v}] = true
				pool = append(pool, [2]int{u, v})
			}
		}
	}
	return pool
}

// TestKLinkFailureProperty generalizes TestSingleLinkFailureProperty to
// correlated k-link fault domains across q ∈ {3, 5, 7, 11}: any k-subset
// of tree links leaves at least trees−2k low-depth survivors (Theorem
// 7.6: a link serves ≤ 2 trees) and at least trees−k Hamiltonian
// survivors (Theorem 7.19: edge-disjointness). Degrade may only report
// total loss when the bound itself reaches zero.
func TestKLinkFailureProperty(t *testing.T) {
	for _, q := range []int{3, 5, 7, 11} {
		in := instance(t, q)
		cases := []struct {
			kind    EmbeddingKind
			perLink int
		}{
			{LowDepth, 2},
			{Hamiltonian, 1},
		}
		for _, c := range cases {
			e, err := in.Embed(c.kind)
			if err != nil {
				t.Fatal(err)
			}
			pool := forestLinks(e)
			rng := rand.New(rand.NewSource(int64(1000 + q)))
			for k := 2; k <= 3; k++ {
				bound := len(e.Forest) - c.perLink*k
				for trial := 0; trial < 20; trial++ {
					idxs := rng.Perm(len(pool))[:k]
					fail := make([][2]int, k)
					for i, idx := range idxs {
						fail[i] = pool[idx]
					}
					deg, err := Degrade(e, fail)
					if err != nil {
						if bound >= 1 {
							t.Errorf("q=%d %v: %d-link failure %v killed all %d trees, bound promises ≥ %d survivors",
								q, c.kind, k, fail, len(e.Forest), bound)
						}
						continue
					}
					got := len(deg.Forest)
					if got < bound {
						t.Errorf("q=%d %v: %d-link failure %v left %d trees, want ≥ %d",
							q, c.kind, k, fail, got, bound)
					}
					if got >= len(e.Forest) {
						t.Errorf("q=%d %v: %d tree links failed but no tree died", q, c.kind, k)
					}
				}
			}
		}
	}
}

// TestRouterFailureProperty checks the correlated router-down domain
// across q ∈ {3, 5, 7, 11}: every spanning tree touches every node, so
// losing any router's incident links structurally kills every embedding
// (Degrade reports total loss), and the simulator classifies a mid-run
// router-down as ErrAllTreesLost instead of hanging or misreporting.
func TestRouterFailureProperty(t *testing.T) {
	for _, q := range []int{3, 5, 7, 11} {
		in := instance(t, q)
		for _, kind := range []EmbeddingKind{SingleTree, LowDepth, Hamiltonian} {
			e, err := in.Embed(kind)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(q)))
			for trial := 0; trial < 5; trial++ {
				n := rng.Intn(in.N())
				var fail [][2]int
				for _, nb := range e.Topology.Neighbors(n) {
					fail = append(fail, [2]int{n, nb})
				}
				if _, err := Degrade(e, fail); err == nil {
					t.Errorf("q=%d %v: router %d down left survivors", q, kind, n)
				}
			}
		}
		// The simulator side: a router-down before completion must abort
		// with the classified sentinel on the single-tree baseline.
		e, err := in.Embed(SingleTree)
		if err != nil {
			t.Fatal(err)
		}
		inputs := workload.Vectors(in.N(), 256, 100, 7)
		plan := &faults.Plan{Faults: []faults.Fault{{Kind: faults.RouterDown, Node: q, At: 20}}}
		if _, err := in.Allreduce(e, inputs, netsim.Config{LinkLatency: 1, VCDepth: 4, Faults: plan}); !errors.Is(err, netsim.ErrAllTreesLost) {
			t.Errorf("q=%d single-tree router-down: err=%v, want ErrAllTreesLost", q, err)
		}
	}
}

// TestWorstCaseLink pins the helper's contract: deterministic worst link,
// a survivor embedding for multi-tree forests, nil for the single tree.
func TestWorstCaseLink(t *testing.T) {
	in := instance(t, 5)
	e, err := in.Embed(LowDepth)
	if err != nil {
		t.Fatal(err)
	}
	link, deg, err := WorstCaseLink(e)
	if err != nil {
		t.Fatal(err)
	}
	if deg == nil {
		t.Fatal("low-depth worst case killed everything")
	}
	lost := len(e.Forest) - len(deg.Forest)
	if lost < 1 || lost > 2 {
		t.Errorf("worst case lost %d trees, want 1..2", lost)
	}
	if got := len(TreesUsingLink(e.Forest, link[0], link[1])); got != lost {
		t.Errorf("worst link %v used by %d trees but lost %d", link, got, lost)
	}
	link2, _, err := WorstCaseLink(e)
	if err != nil {
		t.Fatal(err)
	}
	if link != link2 {
		t.Errorf("WorstCaseLink not deterministic: %v vs %v", link, link2)
	}

	st, err := in.Embed(SingleTree)
	if err != nil {
		t.Fatal(err)
	}
	if _, deg, err := WorstCaseLink(st); err != nil || deg != nil {
		t.Errorf("single tree: deg=%v err=%v, want nil survivors", deg, err)
	}
}

// repriced returns a copy of the embedding with its model evaluated at
// link bandwidth b, as a caller that builds its own Embedding sets LinkB.
func repriced(e *Embedding, b float64) *Embedding {
	out := *e
	out.LinkB = b
	out.Model = bandwidth.ForForest(e.Forest, b)
	return &out
}

// TestDegradePreservesLinkBandwidth: the survivors' model must be
// evaluated at the original embedding's link bandwidth, not hard-coded
// 1.0.
func TestDegradePreservesLinkBandwidth(t *testing.T) {
	in := instance(t, 5)
	e, err := in.Embed(Hamiltonian)
	if err != nil {
		t.Fatal(err)
	}
	e4 := repriced(e, 4.0)
	if e4.Model.Aggregate != 4.0*e.Model.Aggregate {
		t.Fatalf("repriced aggregate %f, want %f", e4.Model.Aggregate, 4.0*e.Model.Aggregate)
	}
	victim := e4.Forest[0].Edges()[0]
	deg, err := Degrade(e4, [][2]int{{victim.U, victim.V}})
	if err != nil {
		t.Fatal(err)
	}
	if deg.LinkB != 4.0 {
		t.Errorf("degraded LinkB = %g, want 4", deg.LinkB)
	}
	// Edge-disjoint forest: each tree contributes LinkB to the aggregate.
	want := e4.Model.Aggregate - 4.0
	if deg.Model.Aggregate != want {
		t.Errorf("degraded aggregate %f at LinkB=4, want %f", deg.Model.Aggregate, want)
	}
	sub, err := SubsetEmbedding(e4, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if sub.LinkB != 4.0 || sub.Model.Aggregate != 8.0 {
		t.Errorf("subset at LinkB=4: LinkB=%g aggregate=%f, want 4 and 8", sub.LinkB, sub.Model.Aggregate)
	}
}

func TestFailureTolerance(t *testing.T) {
	rows, err := FailureTolerance(5)
	if err != nil {
		t.Fatal(err)
	}
	byKind := map[EmbeddingKind]FailureToleranceRow{}
	for _, r := range rows {
		byKind[r.Kind] = r
	}
	// Single tree: one failure loses everything.
	if byKind[SingleTree].WorstCaseLost != 1 || byKind[SingleTree].WorstCaseRemainingBW != 0 {
		t.Errorf("single tree tolerance: %+v", byKind[SingleTree])
	}
	// Low-depth: at most 2 trees lost (Theorem 7.6), ≥ q−2 survive.
	if byKind[LowDepth].WorstCaseLost > 2 {
		t.Errorf("low-depth lost %d > 2", byKind[LowDepth].WorstCaseLost)
	}
	if byKind[LowDepth].WorstCaseRemainingBW <= 0 {
		t.Error("low-depth should retain bandwidth after one failure")
	}
	// Hamiltonian: at most 1 tree lost (edge-disjoint).
	if byKind[Hamiltonian].WorstCaseLost > 1 {
		t.Errorf("hamiltonian lost %d > 1", byKind[Hamiltonian].WorstCaseLost)
	}
	if byKind[Hamiltonian].WorstCaseRemainingBW != 2.0 { // 3 trees − 1
		t.Errorf("hamiltonian remaining BW %f, want 2", byKind[Hamiltonian].WorstCaseRemainingBW)
	}
}

// bruteForceWorstCaseLink is the per-link reference for WorstCaseLink:
// Degrade every used link in (U, V) order and keep the strictly worse one.
func bruteForceWorstCaseLink(e *Embedding) ([2]int, *Embedding) {
	var links []graph.Edge
	for l := range trees.Congestion(e.Forest) {
		links = append(links, l)
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].U != links[j].U {
			return links[i].U < links[j].U
		}
		return links[i].V < links[j].V
	})
	var worst [2]int
	var worstDeg *Embedding
	worstLost := -1
	worstBW := 0.0
	for _, l := range links {
		deg, err := Degrade(e, [][2]int{{l.U, l.V}})
		lost := len(e.Forest)
		bw := 0.0
		if err == nil {
			lost = len(e.Forest) - len(deg.Forest)
			bw = deg.Model.Aggregate
		}
		if lost > worstLost || (lost == worstLost && bw < worstBW) {
			worstLost, worstBW = lost, bw
			worst = [2]int{l.U, l.V}
			worstDeg = deg
		}
	}
	return worst, worstDeg
}

// TestWorstCaseLinkMatchesBruteForce: pricing each dead-tree set once
// picks the same link and returns the same degraded embedding as
// degrading every link, on every embedding for q ∈ {3, 5, 7, 11}, at unit
// and repriced link bandwidth.
func TestWorstCaseLinkMatchesBruteForce(t *testing.T) {
	for _, q := range []int{3, 5, 7, 11} {
		in := instance(t, q)
		for _, kind := range []EmbeddingKind{SingleTree, LowDepth, Hamiltonian, DepthTwo} {
			e, err := in.Embed(kind)
			if err != nil {
				t.Fatal(err)
			}
			for _, emb := range []*Embedding{e, repriced(e, 3)} {
				link, deg, err := WorstCaseLink(emb)
				if err != nil {
					t.Fatal(err)
				}
				wantLink, wantDeg := bruteForceWorstCaseLink(emb)
				if link != wantLink || !reflect.DeepEqual(deg, wantDeg) {
					t.Errorf("q=%d %v B=%g: worst link %v (%+v), brute force %v (%+v)",
						q, kind, emb.LinkB, link, deg, wantLink, wantDeg)
				}
			}
		}
	}
}
