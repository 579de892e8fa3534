// Package graph provides the undirected-graph substrate shared by the
// PolarFly constructions: adjacency queries, BFS and diameter (Theorem 6.1
// says ER_q has diameter 2 with at most one 2-path between any vertex pair),
// spanning-subgraph validation, maximal/maximum independent sets (used in
// §7.3 to select edge-disjoint Hamiltonian paths), and an isomorphism
// checker (used to verify Theorem 6.6, S_q ≅ ER_q).
//
// Vertices are dense integers 0..N-1. Graphs are simple: no self-loops, no
// parallel edges. Self-orthogonal quadrics / reflection points, which the
// paper draws with self-loops, are tracked by the er and singer packages as
// vertex attributes instead.
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Edge is an undirected edge in canonical form (U < V).
type Edge struct {
	U, V int
}

// NewEdge returns the canonical form of the edge {u, v}. It panics if
// u == v, because the graphs in this package are simple.
func NewEdge(u, v int) Edge {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
	if u > v {
		u, v = v, u
	}
	return Edge{u, v}
}

// Other returns the endpoint of e that is not w. It panics if w is not an
// endpoint of e.
func (e Edge) Other(w int) int {
	switch w {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: %d is not an endpoint of %v", w, e))
}

// Graph is a simple undirected graph on vertices 0..N-1. Each vertex keeps
// one ascending row of its neighbors, so adjacency is a binary search,
// Neighbors is a copy and Edges is a walk, with no hashing and no sort.
type Graph struct {
	n   int
	adj [][]int // adj[v]: v's neighbors, ascending
	m   int
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{n: n, adj: make([][]int, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

func (g *Graph) checkVertex(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, g.n))
	}
}

// AddEdge inserts the undirected edge {u, v}. Adding an existing edge is a
// no-op; adding a self-loop panics.
func (g *Graph) AddEdge(u, v int) {
	g.checkVertex(u)
	g.checkVertex(v)
	NewEdge(u, v) // panics on a self-loop
	i, found := slices.BinarySearch(g.adj[u], v)
	if found {
		return
	}
	g.adj[u] = slices.Insert(g.adj[u], i, v)
	j, _ := slices.BinarySearch(g.adj[v], u)
	g.adj[v] = slices.Insert(g.adj[v], j, u)
	g.m++
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	g.checkVertex(u)
	g.checkVertex(v)
	return g.adjacent(u, v)
}

// adjacent is HasEdge for vertices already known to be in range.
func (g *Graph) adjacent(u, v int) bool {
	_, found := slices.BinarySearch(g.adj[u], v)
	return found
}

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int {
	g.checkVertex(v)
	return len(g.adj[v])
}

// NeighborIndex returns the position of v in u's ascending neighbor row,
// or -1 when {u, v} is not an edge. Offset by the degrees of the vertices
// below u, it numbers the 2M directed arcs in (u, v) order.
func (g *Graph) NeighborIndex(u, v int) int {
	g.checkVertex(u)
	i, found := slices.BinarySearch(g.adj[u], v)
	if !found {
		return -1
	}
	return i
}

// Neighbors returns the neighbors of v in ascending order, in a fresh
// slice the caller may keep or modify.
func (g *Graph) Neighbors(v int) []int {
	g.checkVertex(v)
	return append(make([]int, 0, len(g.adj[v])), g.adj[v]...)
}

// Edges returns all edges sorted by (U, V).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for u, row := range g.adj {
		// The row is ascending, so the neighbors above u are its tail.
		i, _ := slices.BinarySearch(row, u)
		for _, v := range row[i:] {
			out = append(out, Edge{u, v})
		}
	}
	return out
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{n: g.n, adj: make([][]int, g.n), m: g.m}
	for v, row := range g.adj {
		c.adj[v] = slices.Clone(row)
	}
	return c
}

// MaxDegree returns the maximum vertex degree (0 for an empty graph).
func (g *Graph) MaxDegree() int {
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
func (g *Graph) BFSDistances(src int) []int {
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
		// Ascending rows keep the queue (and any traversal built on it)
		// deterministic; distances alone would not need it.
		for _, u := range g.adj[v] {
			if dist[u] == -1 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// IsConnected reports whether g is connected (true for n ≤ 1).
func (g *Graph) IsConnected() bool {
	if g.n <= 1 {
		return true
	}
	for _, d := range g.BFSDistances(0) {
		if d == -1 {
			return false
		}
	}
	return true
}

// Diameter returns the graph diameter, or -1 if g is disconnected or has
// fewer than 2 vertices.
func (g *Graph) Diameter() int {
	if g.n < 2 {
		return -1
	}
	diam := 0
	for v := 0; v < g.n; v++ {
		for _, d := range g.BFSDistances(v) {
			if d == -1 {
				return -1
			}
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}

// CountCommonNeighbors returns |N(u) ∩ N(v)|, i.e. the number of 2-paths
// between u and v. Theorem 6.1 asserts this is at most 1 for distinct
// vertices of ER_q.
func (g *Graph) CountCommonNeighbors(u, v int) int {
	g.checkVertex(u)
	g.checkVertex(v)
	// Merge the two ascending rows.
	a, b := g.adj[u], g.adj[v]
	count := 0
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			a = a[1:]
		case a[0] > b[0]:
			b = b[1:]
		default:
			count++
			a, b = a[1:], b[1:]
		}
	}
	return count
}

// HasUniqueTwoPaths reports whether every pair of distinct vertices has at
// most one common neighbor (the defining "friendship-like" property of
// polarity graphs, Theorem 6.1).
func (g *Graph) HasUniqueTwoPaths() bool {
	for u := 0; u < g.n; u++ {
		for v := u + 1; v < g.n; v++ {
			if g.CountCommonNeighbors(u, v) > 1 {
				return false
			}
		}
	}
	return true
}

// Girth returns the length of the shortest cycle of g, or -1 if g is
// acyclic. Computed by BFS from every vertex; for polarity graphs the
// answer is 3 for q ≥ 3 (self-conjugate triangles exist) while unique
// 2-paths forbid any C4 — both facts are tested in the er package.
func (g *Graph) Girth() int {
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
			// Ascending rows pin down which BFS tree (and so which
			// parent pointers) this scan builds, making the per-source
			// cycle bound reproducible run to run.
			for _, u := range g.adj[v] {
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
func (g *Graph) DegreeSequence() []int {
	out := make([]int, g.n)
	for v := 0; v < g.n; v++ {
		out[v] = len(g.adj[v])
	}
	sort.Ints(out)
	return out
}

// IsSpanningConnectedAcyclic reports whether the given edge set forms a
// spanning tree of g: exactly n−1 edges, all present in g, connecting every
// vertex, with no cycle. Endpoints may come in either order; a self-loop
// or an endpoint outside [0, n) makes the set invalid.
func (g *Graph) IsSpanningConnectedAcyclic(edges []Edge) bool {
	if len(edges) != g.n-1 {
		return false
	}
	uf := newUnionFind(g.n)
	for _, e := range edges {
		if e.U < 0 || e.U >= g.n || e.V < 0 || e.V >= g.n || !g.adjacent(e.U, e.V) {
			return false
		}
		if !uf.union(e.U, e.V) {
			return false // cycle
		}
	}
	return uf.components == 1
}

type unionFind struct {
	parent     []int
	components int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), components: n}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

// union merges the sets of a and b, returning false if they were already in
// the same set.
func (uf *unionFind) union(a, b int) bool {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return false
	}
	uf.parent[ra] = rb
	uf.components--
	return true
}
