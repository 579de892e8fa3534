package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// pathGraph returns the path 0-1-...-(n-1).
func pathGraph(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// cycleGraph returns the cycle on n vertices.
func cycleGraph(n int) *Graph {
	g := pathGraph(n)
	g.AddEdge(n-1, 0)
	return g
}

// completeGraph returns K_n.
func completeGraph(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

// petersen returns the Petersen graph (3-regular, diameter 2, girth 5).
func petersen() *Graph {
	g := New(10)
	for i := 0; i < 5; i++ {
		g.AddEdge(i, (i+1)%5)     // outer cycle
		g.AddEdge(5+i, 5+(i+2)%5) // inner pentagram
		g.AddEdge(i, 5+i)         // spokes
	}
	return g
}

func TestEdgeCanonical(t *testing.T) {
	if NewEdge(3, 1) != (Edge{1, 3}) {
		t.Error("NewEdge should canonicalize")
	}
	e := NewEdge(2, 7)
	if e.Other(2) != 7 || e.Other(7) != 2 {
		t.Error("Other broken")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("self-loop should panic")
			}
		}()
		NewEdge(4, 4)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Other with non-endpoint should panic")
			}
		}()
		e.Other(5)
	}()
}

func TestBasicAccessors(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(1, 2) // duplicate is a no-op
	if g.N() != 5 || g.M() != 2 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if !g.HasEdge(2, 1) || g.HasEdge(0, 2) || g.HasEdge(3, 3) {
		t.Error("HasEdge wrong")
	}
	if g.Degree(1) != 2 || g.Degree(4) != 0 {
		t.Error("Degree wrong")
	}
	nb := g.Neighbors(1)
	if len(nb) != 2 || nb[0] != 0 || nb[1] != 2 {
		t.Errorf("Neighbors(1) = %v", nb)
	}
	es := g.Edges()
	if len(es) != 2 || es[0] != (Edge{0, 1}) || es[1] != (Edge{1, 2}) {
		t.Errorf("Edges = %v", es)
	}
	if g.MaxDegree() != 2 {
		t.Error("MaxDegree wrong")
	}
	c := g.Clone()
	c.AddEdge(3, 4)
	if g.M() != 2 || c.M() != 3 {
		t.Error("Clone not independent")
	}
}

func TestVertexRangePanics(t *testing.T) {
	g := New(3)
	for _, fn := range []func(){
		func() { g.AddEdge(0, 3) },
		func() { g.HasEdge(-1, 0) },
		func() { g.Degree(7) },
		func() { g.BFSDistances(3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for out-of-range vertex")
				}
			}()
			fn()
		}()
	}
}

func TestBFSAndDiameter(t *testing.T) {
	p := pathGraph(5)
	d := p.BFSDistances(0)
	for i, want := range []int{0, 1, 2, 3, 4} {
		if d[i] != want {
			t.Errorf("path dist[%d] = %d, want %d", i, d[i], want)
		}
	}
	if p.Diameter() != 4 {
		t.Errorf("path diameter = %d", p.Diameter())
	}
	if cycleGraph(6).Diameter() != 3 {
		t.Error("C6 diameter should be 3")
	}
	if completeGraph(7).Diameter() != 1 {
		t.Error("K7 diameter should be 1")
	}
	if petersen().Diameter() != 2 {
		t.Error("Petersen diameter should be 2")
	}

	disc := New(4)
	disc.AddEdge(0, 1)
	if disc.IsConnected() {
		t.Error("disconnected graph reported connected")
	}
	if disc.Diameter() != -1 {
		t.Error("diameter of disconnected graph should be -1")
	}
	if got := disc.BFSDistances(0)[3]; got != -1 {
		t.Errorf("unreachable distance = %d", got)
	}
	if !New(1).IsConnected() || !New(0).IsConnected() {
		t.Error("trivial graphs should be connected")
	}
}

func TestCommonNeighborsAndUniqueTwoPaths(t *testing.T) {
	// C4 has two common neighbors for opposite vertices.
	c4 := cycleGraph(4)
	if c4.CountCommonNeighbors(0, 2) != 2 {
		t.Error("C4 opposite vertices should share 2 neighbors")
	}
	if c4.HasUniqueTwoPaths() {
		t.Error("C4 should fail unique-2-paths")
	}
	// C5 and Petersen are C4-free.
	if !cycleGraph(5).HasUniqueTwoPaths() {
		t.Error("C5 should have unique 2-paths")
	}
	if !petersen().HasUniqueTwoPaths() {
		t.Error("Petersen should have unique 2-paths")
	}
}

func TestDegreeSequence(t *testing.T) {
	g := pathGraph(4)
	got := g.DegreeSequence()
	want := []int{1, 1, 2, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DegreeSequence = %v, want %v", got, want)
		}
	}
}

func TestIsSpanningConnectedAcyclic(t *testing.T) {
	g := completeGraph(5)
	tree := []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}}
	if !g.IsSpanningConnectedAcyclic(tree) {
		t.Error("path tree rejected")
	}
	star := []Edge{{0, 1}, {0, 2}, {0, 3}, {0, 4}}
	if !g.IsSpanningConnectedAcyclic(star) {
		t.Error("star tree rejected")
	}
	cycle := []Edge{{0, 1}, {1, 2}, {2, 0}, {3, 4}}
	if g.IsSpanningConnectedAcyclic(cycle) {
		t.Error("cycle accepted")
	}
	short := []Edge{{0, 1}, {1, 2}}
	if g.IsSpanningConnectedAcyclic(short) {
		t.Error("too-few edges accepted")
	}
	// Edge not present in the host graph.
	h := pathGraph(5)
	if h.IsSpanningConnectedAcyclic(star) {
		t.Error("tree with non-graph edges accepted")
	}
}

func TestIsSpanningConnectedAcyclicEdgeForms(t *testing.T) {
	g := pathGraph(3)
	for _, tc := range []struct {
		name  string
		edges []Edge
		want  bool
	}{
		{"valid tree", []Edge{{0, 1}, {1, 2}}, true},
		{"reversed endpoints", []Edge{{1, 0}, {2, 1}}, true},
		{"self-loop", []Edge{{0, 1}, {2, 2}}, false},
		{"negative U", []Edge{{0, 1}, {-1, 2}}, false},
		{"U past n", []Edge{{0, 1}, {3, 2}}, false},
		{"negative V", []Edge{{0, 1}, {2, -1}}, false},
		{"V past n", []Edge{{0, 1}, {2, 3}}, false},
		{"edge not in graph", []Edge{{0, 2}, {1, 2}}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := g.IsSpanningConnectedAcyclic(tc.edges); got != tc.want {
				t.Errorf("IsSpanningConnectedAcyclic(%v) = %v, want %v", tc.edges, got, tc.want)
			}
		})
	}
}

func TestRandomMaximalIndependentSet(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(30) + 2
		g := New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.3 {
					g.AddEdge(i, j)
				}
			}
		}
		set := g.RandomMaximalIndependentSet(rng)
		if !g.IsMaximalIndependentSet(set) {
			t.Fatalf("trial %d: set %v not maximal independent", trial, set)
		}
	}
}

func TestIsIndependentSetHelpers(t *testing.T) {
	g := pathGraph(4)
	if !g.IsIndependentSet([]int{0, 2}) {
		t.Error("{0,2} should be independent in P4")
	}
	if g.IsIndependentSet([]int{0, 1}) {
		t.Error("{0,1} should not be independent in P4")
	}
	if g.IsMaximalIndependentSet([]int{0}) {
		t.Error("{0} is not maximal in P4")
	}
	if !g.IsMaximalIndependentSet([]int{0, 2}) {
		t.Error("{0,2} is maximal in P4")
	}
	if !g.IsMaximalIndependentSet([]int{1, 3}) {
		t.Error("{1,3} is maximal in P4")
	}
}

func TestMaximumIndependentSetKnown(t *testing.T) {
	cases := []struct {
		g    *Graph
		want int
	}{
		{completeGraph(6), 1},
		{pathGraph(7), 4},
		{cycleGraph(7), 3},
		{cycleGraph(8), 4},
		{petersen(), 4},
		{New(5), 5}, // empty graph
	}
	for i, c := range cases {
		set := c.g.MaximumIndependentSet()
		if !c.g.IsIndependentSet(set) {
			t.Errorf("case %d: result not independent: %v", i, set)
		}
		if len(set) != c.want {
			t.Errorf("case %d: |MIS| = %d, want %d", i, len(set), c.want)
		}
	}
}

func TestSearchIndependentSet(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := petersen()
	set, ok := g.SearchIndependentSet(4, 30, rng)
	if !ok || len(set) != 4 {
		t.Errorf("SearchIndependentSet on Petersen: got %v ok=%v", set, ok)
	}
	// Unreachable target returns best effort.
	set, ok = g.SearchIndependentSet(5, 10, rng)
	if ok {
		t.Errorf("Petersen cannot have an independent set of size 5, got %v", set)
	}
	if !g.IsIndependentSet(set) {
		t.Error("best-effort set is not independent")
	}
}

func TestMaximumVsRandomConsistency(t *testing.T) {
	// On random graphs, the exact solver must never be beaten by the
	// randomized one.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(18) + 4
		g := New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.4 {
					g.AddEdge(i, j)
				}
			}
		}
		exact := g.MaximumIndependentSet()
		if !g.IsIndependentSet(exact) {
			t.Fatal("exact result not independent")
		}
		for i := 0; i < 10; i++ {
			r := g.RandomMaximalIndependentSet(rng)
			if len(r) > len(exact) {
				t.Fatalf("random set %v beats exact %v", r, exact)
			}
		}
	}
}

func TestIsomorphicPositive(t *testing.T) {
	// C5 relabeled.
	g := cycleGraph(5)
	h := New(5)
	perm := []int{2, 0, 4, 1, 3}
	for _, e := range g.Edges() {
		h.AddEdge(perm[e.U], perm[e.V])
	}
	m, ok := Isomorphic(g, h)
	if !ok {
		t.Fatal("relabeled C5 not detected isomorphic")
	}
	if !VerifyMapping(g, h, m) {
		t.Fatalf("returned mapping %v is not an isomorphism", m)
	}
	// Petersen relabeled.
	p := petersen()
	p2 := New(10)
	perm10 := rand.New(rand.NewSource(99)).Perm(10)
	for _, e := range p.Edges() {
		p2.AddEdge(perm10[e.U], perm10[e.V])
	}
	m, ok = Isomorphic(p, p2)
	if !ok || !VerifyMapping(p, p2, m) {
		t.Fatal("relabeled Petersen not matched")
	}
}

func TestIsomorphicNegative(t *testing.T) {
	// C6 vs two triangles: same degree sequence, not isomorphic.
	twoTriangles := New(6)
	twoTriangles.AddEdge(0, 1)
	twoTriangles.AddEdge(1, 2)
	twoTriangles.AddEdge(2, 0)
	twoTriangles.AddEdge(3, 4)
	twoTriangles.AddEdge(4, 5)
	twoTriangles.AddEdge(5, 3)
	if _, ok := Isomorphic(cycleGraph(6), twoTriangles); ok {
		t.Error("C6 should not be isomorphic to 2×K3")
	}
	// Different sizes.
	if _, ok := Isomorphic(cycleGraph(5), cycleGraph(6)); ok {
		t.Error("C5 vs C6 should fail")
	}
	// Same size, different edge count.
	if _, ok := Isomorphic(pathGraph(5), cycleGraph(5)); ok {
		t.Error("P5 vs C5 should fail")
	}
	// K3,3 vs K4 plus isolated: degree sequences differ.
	k33 := New(6)
	for i := 0; i < 3; i++ {
		for j := 3; j < 6; j++ {
			k33.AddEdge(i, j)
		}
	}
	prism := New(6) // triangular prism: also 3-regular on 6 vertices
	prism.AddEdge(0, 1)
	prism.AddEdge(1, 2)
	prism.AddEdge(2, 0)
	prism.AddEdge(3, 4)
	prism.AddEdge(4, 5)
	prism.AddEdge(5, 3)
	prism.AddEdge(0, 3)
	prism.AddEdge(1, 4)
	prism.AddEdge(2, 5)
	if _, ok := Isomorphic(k33, prism); ok {
		t.Error("K3,3 should not be isomorphic to the triangular prism")
	}
}

func TestIsomorphicQuickRandomRelabel(t *testing.T) {
	prop := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%12 + 3
		g := New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.4 {
					g.AddEdge(i, j)
				}
			}
		}
		perm := rng.Perm(n)
		h := New(n)
		for _, e := range g.Edges() {
			h.AddEdge(perm[e.U], perm[e.V])
		}
		m, ok := Isomorphic(g, h)
		return ok && VerifyMapping(g, h, m)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestVerifyMappingRejectsBad(t *testing.T) {
	g := cycleGraph(4)
	h := cycleGraph(4)
	if VerifyMapping(g, h, []int{0, 1, 2}) {
		t.Error("short mapping accepted")
	}
	if VerifyMapping(g, h, []int{0, 0, 1, 2}) {
		t.Error("non-bijective mapping accepted")
	}
	if VerifyMapping(g, h, []int{0, 2, 1, 3}) {
		t.Error("non-edge-preserving mapping accepted")
	}
	if !VerifyMapping(g, h, []int{0, 1, 2, 3}) {
		t.Error("identity mapping rejected")
	}
}
