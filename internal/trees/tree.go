// Package trees provides rooted spanning trees over PolarFly and the two
// Allreduce forests of the paper: the depth-3 congestion-2 forest of
// Algorithm 3 (§7.1) and the edge-disjoint Hamiltonian forest derived from
// Singer difference sets (§7.2). It also provides the congestion census
// used by the bandwidth model (§5) and the traffic-direction analysis of
// Lemma 7.8.
package trees

import (
	"fmt"
	"sort"

	"polarfly/internal/graph"
)

// Tree is a rooted spanning tree over vertices 0..N-1, represented by a
// parent array. In an in-network Allreduce, reduction traffic flows from
// children toward the root along these edges, and broadcast traffic flows
// back down (§4.3).
type Tree struct {
	// Root is the reduction root.
	Root int
	// Parent[v] is v's parent, with Parent[Root] == -1.
	Parent []int
	// Depth[v] is the hop distance from v to the root.
	Depth []int

	children [][]int
}

// FromParent builds a Tree from a parent array, validating that every
// vertex reaches root without cycles.
func FromParent(root int, parent []int) (*Tree, error) {
	n := len(parent)
	if root < 0 || root >= n {
		return nil, fmt.Errorf("trees: root %d out of range", root)
	}
	if parent[root] != -1 {
		return nil, fmt.Errorf("trees: parent[root=%d] = %d, want -1", root, parent[root])
	}
	t := &Tree{Root: root, Parent: append([]int(nil), parent...), Depth: make([]int, n)}
	for v := range t.Depth {
		t.Depth[v] = -1
	}
	t.Depth[root] = 0
	var chain []int // one buffer for every walk
	for v := 0; v < n; v++ {
		if t.Depth[v] >= 0 {
			continue
		}
		// Walk up to a vertex of known depth, then unwind.
		chain = chain[:0]
		u := v
		for t.Depth[u] < 0 {
			chain = append(chain, u)
			p := parent[u]
			if p < 0 || p >= n {
				return nil, fmt.Errorf("trees: vertex %d has invalid parent %d", u, p)
			}
			u = p
			if len(chain) > n {
				return nil, fmt.Errorf("trees: cycle reachable from vertex %d", v)
			}
		}
		d := t.Depth[u]
		for i := len(chain) - 1; i >= 0; i-- {
			d++
			t.Depth[chain[i]] = d
		}
	}
	t.buildChildren()
	return t, nil
}

// buildChildren lays every child list out in one shared slice: a counting
// pass sizes each parent's block, then children append into their
// parent's full-cap window in ascending vertex order. Leaves keep nil.
func (t *Tree) buildChildren() {
	n := len(t.Parent)
	start := make([]int, n+1) // start[p]..start[p+1] is p's block
	for _, p := range t.Parent {
		if p >= 0 {
			start[p+1]++
		}
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	flat := make([]int, start[n])
	t.children = make([][]int, n)
	for p := 0; p < n; p++ {
		if start[p] < start[p+1] {
			t.children[p] = flat[start[p]:start[p]:start[p+1]]
		}
	}
	for v, p := range t.Parent {
		if p >= 0 {
			t.children[p] = append(t.children[p], v)
		}
	}
}

// FromPath builds a Tree from a simple path (a Hamiltonian path is a
// spanning tree), rooted at path[rootIdx]. Per Lemma 7.17, rooting at the
// midpoint index (len(path)−1)/2 minimises depth to (len(path)−1)/2.
func FromPath(path []int, rootIdx int) (*Tree, error) {
	n := len(path)
	if rootIdx < 0 || rootIdx >= n {
		return nil, fmt.Errorf("trees: root index %d out of range", rootIdx)
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -2
	}
	for i, v := range path {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("trees: path vertex %d out of range [0,%d)", v, n)
		}
		if parent[v] != -2 {
			return nil, fmt.Errorf("trees: path repeats vertex %d", v)
		}
		parent[v] = -3 // mark visited; real parents set below
		_ = i
	}
	root := path[rootIdx]
	parent[root] = -1
	for i := rootIdx - 1; i >= 0; i-- {
		parent[path[i]] = path[i+1]
	}
	for i := rootIdx + 1; i < n; i++ {
		parent[path[i]] = path[i-1]
	}
	return FromParent(root, parent)
}

// N returns the number of vertices spanned.
func (t *Tree) N() int { return len(t.Parent) }

// Children returns the children of v (in insertion order).
func (t *Tree) Children(v int) []int { return t.children[v] }

// MaxDepth returns the tree depth: the maximum distance of any vertex from
// the root. Allreduce latency is proportional to this (§4.3).
func (t *Tree) MaxDepth() int {
	max := 0
	for _, d := range t.Depth {
		if d > max {
			max = d
		}
	}
	return max
}

// Edges returns the N−1 tree edges in canonical undirected form.
func (t *Tree) Edges() []graph.Edge {
	out := make([]graph.Edge, 0, t.N()-1)
	for v, p := range t.Parent {
		if p >= 0 {
			out = append(out, graph.NewEdge(v, p))
		}
	}
	return out
}

// ValidateSpanning checks that t is a spanning tree of g: every tree edge
// is a g edge and the edge set connects all vertices acyclically.
func (t *Tree) ValidateSpanning(g *graph.Graph) error {
	if t.N() != g.N() {
		return fmt.Errorf("trees: tree spans %d vertices, graph has %d", t.N(), g.N())
	}
	if !g.IsSpanningConnectedAcyclic(t.Edges()) {
		return fmt.Errorf("trees: edge set is not a spanning tree of the graph")
	}
	return nil
}

// Congestion returns, for every physical link used by any tree in the
// forest, the number of trees containing it (§5.1: congestion on a link
// equals the number of trees containing the link).
func Congestion(forest []*Tree) map[graph.Edge]int {
	c := make(map[graph.Edge]int)
	for _, t := range forest {
		for _, e := range t.Edges() {
			c[e]++
		}
	}
	return c
}

// MaxCongestion returns the worst-case link congestion of the forest.
func MaxCongestion(forest []*Tree) int {
	max := 0
	for _, c := range Congestion(forest) {
		if c > max {
			max = c
		}
	}
	return max
}

// EdgeDisjoint reports whether no physical link appears in two trees.
func EdgeDisjoint(forest []*Tree) bool { return MaxCongestion(forest) <= 1 }

// OpposedReductionFlows verifies the Lemma 7.8 property for a forest: for
// every link shared by exactly two trees, the reduction traffic (child →
// parent) flows in opposite directions in the two trees, so each router
// input port participates in at most one reduction. Returns an error
// naming the first violating link, or nil. Links with congestion > 2 are
// reported as violations too (the lemma presupposes congestion ≤ 2).
func OpposedReductionFlows(forest []*Tree) error {
	type dir struct {
		tree  int
		child int // reduction flows child → parent
	}
	flows := make(map[graph.Edge][]dir)
	for ti, t := range forest {
		for v, p := range t.Parent {
			if p < 0 {
				continue
			}
			flows[graph.NewEdge(v, p)] = append(flows[graph.NewEdge(v, p)], dir{ti, v})
		}
	}
	// Check links in a fixed order so the first reported violation does
	// not depend on map iteration order.
	edges := make([]graph.Edge, 0, len(flows))
	for e := range flows {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	for _, e := range edges {
		ds := flows[e]
		if len(ds) == 1 {
			continue
		}
		if len(ds) > 2 {
			return fmt.Errorf("trees: link %v carried by %d trees (congestion > 2)", e, len(ds))
		}
		if ds[0].child == ds[1].child {
			return fmt.Errorf("trees: link %v carries same-direction reduction traffic in trees %d and %d",
				e, ds[0].tree, ds[1].tree)
		}
	}
	return nil
}
