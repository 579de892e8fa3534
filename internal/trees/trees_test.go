package trees

import (
	"slices"
	"testing"

	"polarfly/internal/er"
	"polarfly/internal/graph"
	"polarfly/internal/singer"
)

var oddQs = []int{3, 5, 7, 9, 11, 13}

func layout(t *testing.T, q int) *er.Layout {
	t.Helper()
	pg, err := er.New(q)
	if err != nil {
		t.Fatal(err)
	}
	l, err := er.NewLayout(pg, -1)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func singerGraph(t *testing.T, q int) *singer.Graph {
	t.Helper()
	s, err := singer.New(q)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFromParentValid(t *testing.T) {
	//     0
	//    / \
	//   1   2
	//   |
	//   3
	tr, err := FromParent(0, []int{-1, 0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if tr.MaxDepth() != 2 {
		t.Errorf("depth = %d", tr.MaxDepth())
	}
	wantDepth := []int{0, 1, 1, 2}
	for v, d := range wantDepth {
		if tr.Depth[v] != d {
			t.Errorf("Depth[%d] = %d, want %d", v, tr.Depth[v], d)
		}
	}
	// Children come in ascending vertex order; a leaf has none.
	for v, want := range [][]int{{1, 2}, {3}, nil, nil} {
		if got := tr.Children(v); !slices.Equal(got, want) {
			t.Errorf("Children(%d) = %v, want %v", v, got, want)
		}
	}
	if len(tr.Edges()) != 3 {
		t.Error("edge count wrong")
	}
	if tr.N() != 4 {
		t.Error("N wrong")
	}
}

func TestFromParentRejects(t *testing.T) {
	if _, err := FromParent(5, []int{-1, 0}); err == nil {
		t.Error("out-of-range root accepted")
	}
	if _, err := FromParent(0, []int{0, 0}); err == nil {
		t.Error("root with parent accepted")
	}
	if _, err := FromParent(0, []int{-1, 2, 1}); err == nil {
		t.Error("cycle accepted")
	}
	if _, err := FromParent(0, []int{-1, 9}); err == nil {
		t.Error("invalid parent accepted")
	}
}

func TestFromPath(t *testing.T) {
	path := []int{3, 1, 4, 0, 2}
	tr, err := FromPath(path, 2) // root = 4
	if err != nil {
		t.Fatal(err)
	}
	if tr.Root != 4 {
		t.Errorf("root = %d", tr.Root)
	}
	if tr.MaxDepth() != 2 {
		t.Errorf("depth = %d, want 2", tr.MaxDepth())
	}
	// Rooting at an end gives depth 4.
	tr, err = FromPath(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.MaxDepth() != 4 {
		t.Errorf("end-rooted depth = %d, want 4", tr.MaxDepth())
	}
	if _, err := FromPath(path, 9); err == nil {
		t.Error("bad root index accepted")
	}
	if _, err := FromPath([]int{0, 1, 0}, 0); err == nil {
		t.Error("repeating path accepted")
	}
	if _, err := FromPath([]int{0, 7}, 0); err == nil {
		t.Error("out-of-range vertex accepted")
	}
}

func TestSingleTreeBaseline(t *testing.T) {
	l := layout(t, 5)
	g := l.PG.G
	tr, err := SingleTreeBaseline(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.ValidateSpanning(g); err != nil {
		t.Fatal(err)
	}
	// BFS tree of a diameter-2 graph has depth ≤ 2.
	if tr.MaxDepth() > 2 {
		t.Errorf("BFS depth %d > 2", tr.MaxDepth())
	}
	// Disconnected graph errors.
	dg := graph.New(3)
	dg.AddEdge(0, 1)
	if _, err := SingleTreeBaseline(dg, 0); err == nil {
		t.Error("disconnected graph accepted")
	}
}

func TestLowDepthForestStructure(t *testing.T) {
	// Theorems 7.4, 7.5, 7.6 and Lemma 7.8 for every odd q under test.
	for _, q := range oddQs {
		l := layout(t, q)
		forest, err := LowDepthForest(l)
		if err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		if len(forest) != q {
			t.Fatalf("q=%d: %d trees, want %d", q, len(forest), q)
		}
		for i, tr := range forest {
			// Theorem 7.4: each T_i is a spanning tree.
			if err := tr.ValidateSpanning(l.PG.G); err != nil {
				t.Errorf("q=%d T_%d: %v", q, i, err)
			}
			// Roots are the cluster centers.
			if tr.Root != l.Centers[i] {
				t.Errorf("q=%d T_%d: root %d, want %d", q, i, tr.Root, l.Centers[i])
			}
			// Theorem 7.5: depth ≤ 3.
			if d := tr.MaxDepth(); d > 3 {
				t.Errorf("q=%d T_%d: depth %d > 3", q, i, d)
			}
		}
		// Theorem 7.6: congestion ≤ 2.
		if c := MaxCongestion(forest); c > 2 {
			t.Errorf("q=%d: max congestion %d > 2", q, c)
		}
		// Lemma 7.8: opposed reduction flows on shared links.
		if err := OpposedReductionFlows(forest); err != nil {
			t.Errorf("q=%d: %v", q, err)
		}
	}
}

func TestLowDepthForestLevel3OnlyCenters(t *testing.T) {
	// Per the construction, only cluster centers may sit at depth 3.
	for _, q := range []int{5, 7, 9} {
		l := layout(t, q)
		forest, err := LowDepthForest(l)
		if err != nil {
			t.Fatal(err)
		}
		centers := make(map[int]bool)
		for _, c := range l.Centers {
			centers[c] = true
		}
		for i, tr := range forest {
			for v, d := range tr.Depth {
				if d == 3 && !centers[v] {
					t.Errorf("q=%d T_%d: non-center %d at depth 3", q, i, v)
				}
			}
		}
	}
}

func TestHamiltonianForestStructure(t *testing.T) {
	for _, q := range []int{2, 3, 4, 5, 7, 8, 9, 11, 13} {
		s := singerGraph(t, q)
		forest, err := HamiltonianForest(s, 30, 42)
		if err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		if want := (q + 1) / 2; len(forest) != want {
			t.Fatalf("q=%d: %d trees, want %d", q, len(forest), want)
		}
		for i, tr := range forest {
			if err := tr.ValidateSpanning(s.Topology()); err != nil {
				t.Errorf("q=%d T_%d: %v", q, i, err)
			}
			// Lemma 7.17: midpoint-rooted depth is (N−1)/2.
			if d := tr.MaxDepth(); d != (s.N-1)/2 {
				t.Errorf("q=%d T_%d: depth %d, want %d", q, i, d, (s.N-1)/2)
			}
		}
		// §7.2: no congestion at all.
		if !EdgeDisjoint(forest) {
			t.Errorf("q=%d: forest not edge-disjoint", q)
		}
	}
}

func TestHamiltonianForestExactFallback(t *testing.T) {
	// With zero randomized tries the search must fall back to the exact
	// maximum-independent-set path and still deliver the full forest.
	s := singerGraph(t, 7)
	forest, err := HamiltonianForest(s, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(forest) != 4 {
		t.Errorf("fallback produced %d trees, want 4", len(forest))
	}
	if !EdgeDisjoint(forest) {
		t.Error("fallback forest not edge-disjoint")
	}
}

func TestForestFromPairsRejectsNonHamiltonian(t *testing.T) {
	s := singerGraph(t, 4)
	if _, err := ForestFromPairs(s, []singer.Pair{{D0: 0, D1: 14}}); err == nil {
		t.Error("non-Hamiltonian pair accepted")
	}
}

func TestCongestionCensus(t *testing.T) {
	// Two hand-built trees sharing one edge.
	t1, _ := FromParent(0, []int{-1, 0, 1})
	t2, _ := FromParent(2, []int{1, 2, -1})
	c := Congestion([]*Tree{t1, t2})
	if c[graph.NewEdge(0, 1)] != 2 {
		t.Errorf("edge (0,1) congestion %d, want 2", c[graph.NewEdge(0, 1)])
	}
	if c[graph.NewEdge(1, 2)] != 2 {
		t.Errorf("edge (1,2) congestion %d, want 2", c[graph.NewEdge(1, 2)])
	}
	if MaxCongestion([]*Tree{t1, t2}) != 2 {
		t.Error("max congestion wrong")
	}
	if EdgeDisjoint([]*Tree{t1, t2}) {
		t.Error("overlapping trees reported disjoint")
	}
	if !EdgeDisjoint([]*Tree{t1}) {
		t.Error("single tree should be disjoint")
	}
}

func TestOpposedReductionFlows(t *testing.T) {
	// Path 0-1-2. Tree A rooted at 2 (reduction 0→1→2), tree B rooted at 0
	// (reduction 2→1→0): opposite directions on both links → OK.
	a, _ := FromParent(2, []int{1, 2, -1})
	b, _ := FromParent(0, []int{-1, 0, 1})
	if err := OpposedReductionFlows([]*Tree{a, b}); err != nil {
		t.Errorf("opposed flows rejected: %v", err)
	}
	// Two identical trees: same direction on every link → violation.
	if err := OpposedReductionFlows([]*Tree{a, a}); err == nil {
		t.Error("same-direction flows accepted")
	}
	// Congestion 3 → violation.
	if err := OpposedReductionFlows([]*Tree{a, b, a}); err == nil {
		t.Error("congestion-3 forest accepted")
	}
}

func TestValidateSpanningRejects(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	wrongSize, _ := FromParent(0, []int{-1, 0})
	if err := wrongSize.ValidateSpanning(g); err == nil {
		t.Error("wrong-size tree accepted")
	}
	h := graph.New(3)
	h.AddEdge(0, 1)
	h.AddEdge(1, 2)
	viaNonEdge, _ := FromParent(0, []int{-1, 0, 0}) // uses (0,2) ∉ h
	if err := viaNonEdge.ValidateSpanning(h); err == nil {
		t.Error("tree using non-graph edge accepted")
	}
}

// TestFromParentAllocsFlat pins FromParent's allocation count to a
// constant: its depth walks share one buffer, so a low-depth tree costs
// the same number of allocations at q=37 (N=1407) as at q=5 (N=31).
func TestFromParentAllocsFlat(t *testing.T) {
	allocs := func(q int) float64 {
		forest, err := LowDepthForest(layout(t, q))
		if err != nil {
			t.Fatal(err)
		}
		tr := forest[0]
		return testing.AllocsPerRun(10, func() {
			if _, err := FromParent(tr.Root, tr.Parent); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(5), allocs(37)
	if large != small {
		t.Errorf("FromParent makes %v allocations on a q=37 low-depth tree, %v at q=5; want the same count", large, small)
	}
}
