package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// This file keeps the map-backed graph this package used before its
// sorted neighbor rows, verbatim apart from renames, as a test oracle.
// TestGraphMatchesReference and FuzzGraphMatchesReference build both from
// the same AddEdge sequences and require every query to agree.

// refGraph is a simple undirected graph on vertices 0..N-1.
type refGraph struct {
	n     int
	adj   []map[int]bool
	edges map[Edge]bool
}

// newRefGraph returns an empty graph on n vertices.
func newRefGraph(n int) *refGraph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	g := &refGraph{n: n, adj: make([]map[int]bool, n), edges: make(map[Edge]bool)}
	for i := range g.adj {
		g.adj[i] = make(map[int]bool)
	}
	return g
}

// N returns the number of vertices.
func (g *refGraph) N() int { return g.n }

// M returns the number of edges.
func (g *refGraph) M() int { return len(g.edges) }

func (g *refGraph) checkVertex(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, g.n))
	}
}

// AddEdge inserts the undirected edge {u, v}. Adding an existing edge is a
// no-op; adding a self-loop panics.
func (g *refGraph) AddEdge(u, v int) {
	g.checkVertex(u)
	g.checkVertex(v)
	e := NewEdge(u, v)
	if g.edges[e] {
		return
	}
	g.edges[e] = true
	g.adj[u][v] = true
	g.adj[v][u] = true
}

// HasEdge reports whether {u, v} is an edge.
func (g *refGraph) HasEdge(u, v int) bool {
	g.checkVertex(u)
	g.checkVertex(v)
	if u == v {
		return false
	}
	return g.adj[u][v]
}

// Degree returns the degree of v.
func (g *refGraph) Degree(v int) int {
	g.checkVertex(v)
	return len(g.adj[v])
}

// Neighbors returns the neighbors of v in ascending order.
func (g *refGraph) Neighbors(v int) []int {
	g.checkVertex(v)
	out := make([]int, 0, len(g.adj[v]))
	for u := range g.adj[v] {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// Edges returns all edges sorted by (U, V).
func (g *refGraph) Edges() []Edge {
	out := make([]Edge, 0, len(g.edges))
	for e := range g.edges {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// Clone returns a deep copy of g.
func (g *refGraph) Clone() *refGraph {
	c := newRefGraph(g.n)
	for e := range g.edges {
		c.AddEdge(e.U, e.V)
	}
	return c
}

// MaxDegree returns the maximum vertex degree (0 for an empty graph).
func (g *refGraph) MaxDegree() int {
	max := 0
	for v := 0; v < g.n; v++ {
		if d := len(g.adj[v]); d > max {
			max = d
		}
	}
	return max
}

// BFSDistances returns the array of hop distances from src, with -1 for
// unreachable vertices.
func (g *refGraph) BFSDistances(src int) []int {
	g.checkVertex(src)
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		// Sorted neighbor order keeps the queue (and any traversal built
		// on it) deterministic; distances alone would not need it.
		for _, u := range g.Neighbors(v) {
			if dist[u] == -1 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// CountCommonNeighbors returns |N(u) ∩ N(v)|, i.e. the number of 2-paths
// between u and v. Theorem 6.1 asserts this is at most 1 for distinct
// vertices of ER_q.
func (g *refGraph) CountCommonNeighbors(u, v int) int {
	g.checkVertex(u)
	g.checkVertex(v)
	a, b := g.adj[u], g.adj[v]
	if len(b) < len(a) {
		a, b = b, a
	}
	count := 0
	for w := range a {
		if b[w] {
			count++
		}
	}
	return count
}

// Girth returns the length of the shortest cycle of g, or -1 if g is
// acyclic. Computed by BFS from every vertex; for polarity graphs the
// answer is 3 for q ≥ 3 (self-conjugate triangles exist) while unique
// 2-paths forbid any C4 — both facts are tested in the er package.
func (g *refGraph) Girth() int {
	best := -1
	for src := 0; src < g.n; src++ {
		dist := make([]int, g.n)
		parent := make([]int, g.n)
		for i := range dist {
			dist[i] = -1
			parent[i] = -1
		}
		dist[src] = 0
		queue := []int{src}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			// Sorted neighbors pin down which BFS tree (and so which
			// parent pointers) this scan builds, making the per-source
			// cycle bound reproducible run to run.
			for _, u := range g.Neighbors(v) {
				if dist[u] == -1 {
					dist[u] = dist[v] + 1
					parent[u] = v
					queue = append(queue, u)
				} else if u != parent[v] {
					// Non-tree edge closes a cycle through src of length
					// ≥ dist[v]+dist[u]+1 (exact when both paths are
					// src-shortest and internally disjoint; taking the
					// minimum over all sources makes the bound tight).
					if c := dist[v] + dist[u] + 1; best == -1 || c < best {
						best = c
					}
				}
			}
		}
	}
	return best
}

// DegreeSequence returns the sorted (ascending) degree sequence.
func (g *refGraph) DegreeSequence() []int {
	out := make([]int, g.n)
	for v := 0; v < g.n; v++ {
		out[v] = len(g.adj[v])
	}
	sort.Ints(out)
	return out
}

// IsSpanningConnectedAcyclic reports whether the given edge set forms a
// spanning tree of g: exactly n−1 edges, all present in g, connecting every
// vertex, with no cycle.
func (g *refGraph) IsSpanningConnectedAcyclic(edges []Edge) bool {
	if len(edges) != g.n-1 {
		return false
	}
	uf := newUnionFind(g.n)
	for _, e := range edges {
		if e.U < 0 || e.V >= g.n || !g.edges[NewEdge(e.U, e.V)] {
			return false
		}
		if !uf.union(e.U, e.V) {
			return false // cycle
		}
	}
	return uf.components == 1
}

// RandomMaximalIndependentSet returns a maximal (not necessarily maximum)
// independent set of g, grown greedily over a random vertex permutation
// drawn from rng. The result is sorted ascending.
func (g *refGraph) RandomMaximalIndependentSet(rng *rand.Rand) []int {
	perm := rng.Perm(g.n)
	blocked := make([]bool, g.n)
	var set []int
	for _, v := range perm {
		if blocked[v] {
			continue
		}
		set = append(set, v)
		blocked[v] = true
		for u := range g.adj[v] {
			blocked[u] = true
		}
	}
	sort.Ints(set)
	return set
}

// MaximumIndependentSet returns a maximum independent set of g, computed by
// branch and bound with greedy bounding. Exponential in the worst case;
// intended for the small pair graphs G_S (at most a few thousand vertices
// for q < 128, and those are sparse interval-like graphs where the solver
// is fast). For larger inputs prefer SearchIndependentSet.
func (g *refGraph) MaximumIndependentSet() []int {
	// Order vertices by descending degree so branching removes many edges
	// early.
	order := make([]int, g.n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		return g.Degree(order[i]) > g.Degree(order[j])
	})

	var best []int
	var cur []int

	var rec func(candidates []int)
	rec = func(candidates []int) {
		if len(cur)+len(candidates) <= len(best) {
			return // bound: even taking every candidate cannot beat best
		}
		if len(candidates) == 0 {
			if len(cur) > len(best) {
				best = append([]int(nil), cur...)
			}
			return
		}
		v := candidates[0]
		rest := candidates[1:]

		// Branch 1: include v; drop its neighbors from the candidates.
		var pruned []int
		for _, u := range rest {
			if !g.adj[v][u] {
				pruned = append(pruned, u)
			}
		}
		cur = append(cur, v)
		rec(pruned)
		cur = cur[:len(cur)-1]

		// Branch 2: exclude v.
		rec(rest)
	}
	rec(order)
	sort.Ints(best)
	return best
}

// MaxFlow returns the maximum number of edge-disjoint paths between s and
// t in g (each undirected edge has unit capacity in both directions).
func (g *refGraph) MaxFlow(s, t int) int {
	g.checkVertex(s)
	g.checkVertex(t)
	if s == t {
		panic("graph: MaxFlow with s == t")
	}
	d := newDinic(g.n)
	for e := range g.edges {
		d.addEdge(e.U, e.V, 1, 1)
	}
	return d.maxflow(s, t)
}

// edgeOp is one AddEdge call.
type edgeOp struct{ u, v int }

// buildBoth applies ops to a Graph and a refGraph on n vertices. A
// self-loop must panic in both and is otherwise skipped.
func buildBoth(t *testing.T, n int, ops []edgeOp) (*Graph, *refGraph) {
	t.Helper()
	g, r := New(n), newRefGraph(n)
	for _, op := range ops {
		if op.u != op.v {
			g.AddEdge(op.u, op.v)
			r.AddEdge(op.u, op.v)
			continue
		}
		if !panics(func() { g.AddEdge(op.u, op.v) }) || !panics(func() { r.AddEdge(op.u, op.v) }) {
			t.Fatalf("AddEdge(%d, %d): a self-loop must panic in both graphs", op.u, op.v)
		}
	}
	return g, r
}

func panics(fn func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	fn()
	return false
}

// refSpanning is the oracle's IsSpanningConnectedAcyclic. The map-backed
// version panics on an in-range self-loop; such a set is no spanning tree,
// so the oracle answers false for it.
func refSpanning(r *refGraph, edges []Edge) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return r.IsSpanningConnectedAcyclic(edges)
}

// spanningCases returns edge lists to validate on g: a BFS tree of g when
// it is connected, the same tree with reversed endpoints, and random
// n−1-edge lists whose endpoints may repeat or fall outside [0, n).
func spanningCases(g *Graph, rng *rand.Rand) [][]Edge {
	n := g.N()
	var cases [][]Edge
	if n > 0 && g.IsConnected() {
		var tree, reversed []Edge
		dist := g.BFSDistances(0)
		for v := 1; v < n; v++ {
			for _, u := range g.Neighbors(v) {
				if dist[u] == dist[v]-1 {
					e := NewEdge(u, v)
					tree = append(tree, e)
					reversed = append(reversed, Edge{e.V, e.U})
					break
				}
			}
		}
		cases = append(cases, tree, reversed)
	}
	for i := 0; i < 4; i++ {
		es := make([]Edge, max(0, n-1))
		for j := range es {
			es[j] = Edge{rng.Intn(n+4) - 2, rng.Intn(n+4) - 2}
		}
		cases = append(cases, es)
	}
	return cases
}

// compareGraphs fails t on the first query where g and r disagree. seed
// drives the random independent sets, the max-flow pairs and the edge
// lists handed to IsSpanningConnectedAcyclic.
func compareGraphs(t *testing.T, g *Graph, r *refGraph, seed int64) {
	t.Helper()
	n := g.N()
	if g.N() != r.N() || g.M() != r.M() {
		t.Fatalf("N, M = %d, %d; reference %d, %d", g.N(), g.M(), r.N(), r.M())
	}
	if g.MaxDegree() != r.MaxDegree() || !slices.Equal(g.DegreeSequence(), r.DegreeSequence()) {
		t.Fatalf("degrees: max %d, sequence %v; reference %d, %v",
			g.MaxDegree(), g.DegreeSequence(), r.MaxDegree(), r.DegreeSequence())
	}
	for u := 0; u < n; u++ {
		if g.Degree(u) != r.Degree(u) || !slices.Equal(g.Neighbors(u), r.Neighbors(u)) {
			t.Fatalf("vertex %d: degree %d, neighbors %v; reference %d, %v",
				u, g.Degree(u), g.Neighbors(u), r.Degree(u), r.Neighbors(u))
		}
		if !slices.Equal(g.BFSDistances(u), r.BFSDistances(u)) {
			t.Fatalf("BFSDistances(%d) = %v, reference %v", u, g.BFSDistances(u), r.BFSDistances(u))
		}
		for v := 0; v < n; v++ {
			if g.HasEdge(u, v) != r.HasEdge(u, v) {
				t.Fatalf("HasEdge(%d, %d) = %v, reference %v", u, v, g.HasEdge(u, v), r.HasEdge(u, v))
			}
			if g.CountCommonNeighbors(u, v) != r.CountCommonNeighbors(u, v) {
				t.Fatalf("CountCommonNeighbors(%d, %d) = %d, reference %d",
					u, v, g.CountCommonNeighbors(u, v), r.CountCommonNeighbors(u, v))
			}
		}
	}
	if !slices.Equal(g.Edges(), r.Edges()) {
		t.Fatalf("Edges = %v, reference %v", g.Edges(), r.Edges())
	}
	if g.Girth() != r.Girth() {
		t.Fatalf("Girth = %d, reference %d", g.Girth(), r.Girth())
	}

	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 8 && n >= 2; i++ {
		s, d := rng.Intn(n), rng.Intn(n-1)
		if d >= s {
			d++
		}
		if g.MaxFlow(s, d) != r.MaxFlow(s, d) {
			t.Fatalf("MaxFlow(%d, %d) = %d, reference %d", s, d, g.MaxFlow(s, d), r.MaxFlow(s, d))
		}
	}
	got := g.RandomMaximalIndependentSet(rand.New(rand.NewSource(seed)))
	want := r.RandomMaximalIndependentSet(rand.New(rand.NewSource(seed)))
	if !slices.Equal(got, want) {
		t.Fatalf("RandomMaximalIndependentSet = %v, reference %v", got, want)
	}
	if n <= 20 && !slices.Equal(g.MaximumIndependentSet(), r.MaximumIndependentSet()) {
		t.Fatalf("MaximumIndependentSet = %v, reference %v", g.MaximumIndependentSet(), r.MaximumIndependentSet())
	}
	for _, es := range spanningCases(g, rng) {
		if got, want := g.IsSpanningConnectedAcyclic(es), refSpanning(r, es); got != want {
			t.Fatalf("IsSpanningConnectedAcyclic(%v) = %v, reference %v", es, got, want)
		}
	}

	// Clones are deep, and returned slices are the caller's to overwrite.
	c, rc := g.Clone(), r.Clone()
	if !slices.Equal(c.Edges(), rc.Edges()) {
		t.Fatalf("Clone().Edges = %v, reference %v", c.Edges(), rc.Edges())
	}
	if n >= 2 {
		c.AddEdge(0, n-1)
		if g.HasEdge(0, n-1) != r.HasEdge(0, n-1) || g.M() != r.M() {
			t.Fatal("adding an edge to a clone changed the original")
		}
	}
	for u := 0; u < n; u++ {
		nb := g.Neighbors(u)
		for i := range nb {
			nb[i] = -1
		}
		if !slices.Equal(g.Neighbors(u), r.Neighbors(u)) {
			t.Fatalf("writing into Neighbors(%d) changed the graph", u)
		}
	}
	es := g.Edges()
	for i := range es {
		es[i] = Edge{-1, -1}
	}
	if !slices.Equal(g.Edges(), r.Edges()) {
		t.Fatal("writing into Edges() changed the graph")
	}
}

// randomOps draws count AddEdge calls on n vertices, in both orientations
// and with repeats.
func randomOps(n, count int, rng *rand.Rand) []edgeOp {
	ops := make([]edgeOp, count)
	for i := range ops {
		ops[i] = edgeOp{rng.Intn(n), rng.Intn(n)}
		if ops[i].u == ops[i].v {
			ops[i].v = (ops[i].v + 1) % n
		}
	}
	return ops
}

func TestGraphMatchesReference(t *testing.T) {
	var complete, petersenOps []edgeOp
	for u := 0; u < 7; u++ {
		for v := 0; v < 7; v++ {
			if u != v {
				complete = append(complete, edgeOp{u, v}) // every edge twice
			}
		}
	}
	for i := 0; i < 5; i++ {
		petersenOps = append(petersenOps, edgeOp{(i + 1) % 5, i}, edgeOp{5 + i, 5 + (i+2)%5}, edgeOp{5 + i, i})
	}
	cases := []struct {
		name string
		n    int
		ops  []edgeOp
	}{
		{"empty", 0, nil},
		{"isolated", 5, nil},
		{"reversed-path", 6, []edgeOp{{1, 0}, {2, 1}, {3, 2}, {4, 3}, {5, 4}}},
		{"self-loop", 3, []edgeOp{{0, 1}, {2, 2}, {1, 2}}},
		{"complete-both-orientations", 7, complete},
		{"petersen", 10, petersenOps},
	}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 9, 17, 25, 40} {
		for _, density := range []int{1, 3} {
			cases = append(cases, struct {
				name string
				n    int
				ops  []edgeOp
			}{fmt.Sprintf("random-n=%d-x%d", n, density), n, randomOps(n, density*n, rng)})
		}
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, r := buildBoth(t, tc.n, tc.ops)
			compareGraphs(t, g, r, int64(i))
		})
	}
}

// FuzzGraphMatchesReference decodes n (1..40) from the first byte and an
// AddEdge sequence, self-loops included, from the byte pairs after it.
func FuzzGraphMatchesReference(f *testing.F) {
	f.Add([]byte{5, 0, 1, 1, 2, 2, 3, 3, 4, 1, 0}, int64(1))
	f.Add([]byte{3, 0, 1, 2, 2, 1, 2}, int64(2))
	f.Add([]byte{39, 0, 38, 38, 0, 7, 9, 9, 7, 12, 30, 30, 12, 12, 13}, int64(3))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		if len(data) == 0 || len(data) > 801 {
			return
		}
		n := 1 + int(data[0])%40
		ops := make([]edgeOp, 0, len(data)/2)
		for i := 1; i+1 < len(data); i += 2 {
			ops = append(ops, edgeOp{int(data[i]) % n, int(data[i+1]) % n})
		}
		g, r := buildBoth(t, n, ops)
		compareGraphs(t, g, r, seed)
	})
}
