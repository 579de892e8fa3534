// Package logical models the SHARP-style alternative the paper argues
// against in §4.4: Allreduce trees whose parent/child relations are
// *logical* — defined between arbitrary routers — with the physical
// routing path of each logical edge chosen by the routing algorithm at
// runtime. Logical edges between non-adjacent routers expand to multi-hop
// physical paths that can overlap, creating the "path conflicts" the paper
// cites; congestion arises even within a single logical tree, which cannot
// happen for physically embedded trees (§5.1).
//
// The package builds classic logical aggregation trees (binomial and
// k-ary), expands them over a deterministic routing table, measures
// physical-link congestion, and evaluates achievable bandwidth with a
// generalisation of Algorithm 1 that accounts for one tree loading a link
// multiple times.
package logical

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"polarfly/internal/bandwidth"
	"polarfly/internal/graph"
	"polarfly/internal/routing"
)

// Tree is a logical aggregation tree: Parent[v] may be any router, not
// necessarily a neighbor of v.
type Tree struct {
	Root   int
	Parent []int
}

// Binomial returns the binomial (hypercube-style) logical tree over n
// routers rooted at 0: router v's parent clears v's lowest set bit. This
// is the canonical software-defined aggregation shape.
func Binomial(n int) *Tree {
	if n < 1 {
		panic("logical: need at least one router")
	}
	t := &Tree{Root: 0, Parent: make([]int, n)}
	for v := 1; v < n; v++ {
		t.Parent[v] = v &^ (v & -v)
	}
	t.Parent[0] = -1
	return t
}

// KAry returns a k-ary heap-shaped logical tree rooted at 0: router v's
// parent is (v−1)/k.
func KAry(n, k int) *Tree {
	if n < 1 || k < 1 {
		panic("logical: invalid k-ary shape")
	}
	t := &Tree{Root: 0, Parent: make([]int, n)}
	t.Parent[0] = -1
	for v := 1; v < n; v++ {
		t.Parent[v] = (v - 1) / k
	}
	return t
}

// Embedding is a logical tree expanded onto physical links.
type Embedding struct {
	Tree *Tree
	// Load[l] is the number of logical-edge paths crossing directed
	// physical link l. Both reduction (child→parent direction) and
	// broadcast (reverse) are counted on their respective directions,
	// so Load is per directed link.
	Load map[[2]int]int
	// MaxLoad is the bottleneck congestion.
	MaxLoad int
	// TotalHops is the physical path length summed over logical edges
	// (dilation × edges).
	TotalHops int
	// MaxLogicalDepth is the logical hop depth of the tree; physical
	// latency is TotalPathDepth.
	MaxLogicalDepth int
	// MaxPhysicalDepth is the worst-case physical hops from a leaf to the
	// root (latency proxy comparable to physical trees' depth).
	MaxPhysicalDepth int
}

// Expand routes every logical edge over rt and accumulates physical link
// loads. Reduction traffic uses the child→parent direction of each path;
// broadcast retraces it in reverse, loading the opposite directions
// symmetrically (so analysing one direction suffices; Expand records the
// reduction direction).
func Expand(t *Tree, rt *routing.Table) (*Embedding, error) {
	n := len(t.Parent)
	e := &Embedding{Tree: t, Load: make(map[[2]int]int)}
	depth := make([]int, n)     // logical depth
	physDepth := make([]int, n) // accumulated physical hops to root
	order := topoOrder(t)
	if order == nil {
		return nil, fmt.Errorf("logical: tree has a cycle or invalid parents")
	}
	for _, v := range order {
		p := t.Parent[v]
		if p < 0 {
			continue
		}
		links := rt.Links(v, p)
		for _, l := range links {
			e.Load[l]++
		}
		e.TotalHops += len(links)
		depth[v] = depth[p] + 1
		physDepth[v] = physDepth[p] + len(links)
		if depth[v] > e.MaxLogicalDepth {
			e.MaxLogicalDepth = depth[v]
		}
		if physDepth[v] > e.MaxPhysicalDepth {
			e.MaxPhysicalDepth = physDepth[v]
		}
	}
	for _, c := range e.Load {
		if c > e.MaxLoad {
			e.MaxLoad = c
		}
	}
	return e, nil
}

// topoOrder returns vertices in root-first order, or nil if the parent
// array is cyclic/invalid.
func topoOrder(t *Tree) []int {
	n := len(t.Parent)
	children := make([][]int, n)
	root := -1
	for v, p := range t.Parent {
		if p == -1 {
			if root != -1 {
				return nil
			}
			root = v
			continue
		}
		if p < 0 || p >= n {
			return nil
		}
		children[p] = append(children[p], v)
	}
	if root == -1 {
		return nil
	}
	order := make([]int, 0, n)
	stack := []int{root}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, v)
		stack = append(stack, children[v]...)
	}
	if len(order) != n {
		return nil
	}
	return order
}

// Bandwidth returns the per-tree Allreduce bandwidth of a set of logical
// embeddings sharing the fabric, generalising Algorithm 1 to multiplicity:
// a tree whose paths cross a link k times consumes k shares of that link.
// It runs bandwidth.Waterfill with one edge occurrence per path crossing,
// each directed link its own edge. For a single embedding this reduces to
// B / MaxLoad. It panics, as Waterfill does, unless linkB is positive.
func Bandwidth(embs []*Embedding, linkB float64) []float64 {
	forest := make([][]graph.Edge, len(embs))
	for i, e := range embs {
		links := make([][2]int, 0, len(e.Load))
		for l := range e.Load {
			links = append(links, l)
		}
		slices.SortFunc(links, func(a, b [2]int) int {
			if c := cmp.Compare(a[0], b[0]); c != 0 {
				return c
			}
			return cmp.Compare(a[1], b[1])
		})
		for _, l := range links {
			for k := 0; k < e.Load[l]; k++ {
				forest[i] = append(forest[i], graph.Edge{U: l[0], V: l[1]})
			}
		}
	}
	return bandwidth.Waterfill(forest, linkB).PerTree
}

// SortedLoads returns the link loads in descending order (diagnostics).
func (e *Embedding) SortedLoads() []int {
	out := make([]int, 0, len(e.Load))
	for _, c := range e.Load {
		out = append(out, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}
