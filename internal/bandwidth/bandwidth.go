// Package bandwidth implements the congestion-aware performance model of
// §5 of the paper: Algorithm 1's waterfilling of link bandwidth across a
// set of embedded Allreduce trees, the aggregate-bandwidth result of
// Theorem 5.1, the optimal bound for PolarFly (Corollary 7.1), and the
// optimal sub-vector split across trees (Equation 2).
package bandwidth

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"polarfly/internal/graph"
	"polarfly/internal/trees"
)

// Result reports the outcome of Algorithm 1 for a forest.
type Result struct {
	// PerTree[i] is B_i, the bandwidth assigned to tree i, in the same
	// units as the input link bandwidth.
	PerTree []float64
	// Aggregate is ΣB_i, the maximum achievable Allreduce bandwidth
	// (Theorem 5.1).
	Aggregate float64
	// MaxCongestion is the worst-case number of trees sharing one link.
	MaxCongestion int
}

// Waterfill runs Algorithm 1 ("Performance under Congestion") on a forest
// of trees embedded in a network with per-link bandwidth linkB. Each tree
// is given by its edge list; the network topology itself is implicit (only
// links used by at least one tree matter, since unused links never
// constrain anything). It is the uniform-capacity case of
// WaterfillHeterogeneous.
//
// The bottleneck link — the one minimising remaining-bandwidth/congestion —
// fixes the bandwidth of every tree crossing it; those trees' bandwidth is
// then subtracted from all their links, and the process repeats. The
// result is independent of tie-breaking order (verified by property tests).
func Waterfill(forest [][]graph.Edge, linkB float64) Result {
	if linkB <= 0 {
		panic("bandwidth: link bandwidth must be positive")
	}
	return WaterfillHeterogeneous(forest, nil, linkB)
}

// WaterfillHeterogeneous runs Algorithm 1 with per-link capacities instead
// of a uniform bandwidth: caps maps each link to its capacity, and links
// absent from the map default to defaultB. This models mixed fabrics
// (trunked spines, degraded optics) that the uniform model cannot.
func WaterfillHeterogeneous(forest [][]graph.Edge, caps map[graph.Edge]float64, defaultB float64) Result {
	if defaultB <= 0 {
		panic("bandwidth: default link bandwidth must be positive")
	}
	for e, c := range caps {
		if c <= 0 {
			panic(fmt.Sprintf("bandwidth: non-positive capacity for link %v", e))
		}
	}
	x := newIndex(forest)
	avail := make([]float64, len(x.edges))
	for id, e := range x.edges {
		avail[id] = defaultB
		if c, ok := caps[e]; ok {
			avail[id] = c
		}
	}
	return x.waterfill(avail)
}

// index is a forest interned onto dense edge ids, the layout Algorithm 1
// runs on. An edge id is a position in edges, the distinct links in (U, V)
// order. Every listed edge is one occurrence, duplicates included.
type index struct {
	edges []graph.Edge
	// Tree i's edge ids, one per occurrence: treeEdges[treeOff[i]:treeOff[i+1]].
	treeOff, treeEdges []int32
	// Edge k's crossing trees in ascending order, one per occurrence:
	// edgeTrees[edgeOff[k]:edgeOff[k+1]].
	edgeOff, edgeTrees []int32
}

// occurrence is one listed edge of one tree.
type occurrence struct {
	e    graph.Edge
	tree int32
}

// byEdgeThenTree orders occurrences by (U, V, tree).
func byEdgeThenTree(a, b occurrence) int {
	if c := cmp.Compare(a.e.U, b.e.U); c != 0 {
		return c
	}
	if c := cmp.Compare(a.e.V, b.e.V); c != 0 {
		return c
	}
	return cmp.Compare(a.tree, b.tree)
}

func newIndex(forest [][]graph.Edge) *index {
	x := &index{treeOff: make([]int32, len(forest)+1)}
	lo, hi := math.MaxInt, math.MinInt
	for i, es := range forest {
		x.treeOff[i+1] = x.treeOff[i] + int32(len(es))
		for _, e := range es {
			lo, hi = min(lo, e.U), max(hi, e.U)
		}
	}
	// Order the occurrences by (U, V, tree). With dense vertex ids a
	// counting sort buckets them by U in linear time and only each small
	// bucket needs a comparison sort; sparse ids share one bucket.
	span, key := 0, func(graph.Edge) int { return 0 }
	if d := hi - lo; d >= 0 && d < 4*int(x.treeOff[len(forest)]) {
		span, key = d, func(e graph.Edge) int { return e.U - lo }
	}
	bucket := make([]int, span+2)
	for _, es := range forest {
		for _, e := range es {
			bucket[key(e)+1]++
		}
	}
	for k := 1; k < len(bucket); k++ {
		bucket[k] += bucket[k-1]
	}
	occ := make([]occurrence, x.treeOff[len(forest)])
	next := slices.Clone(bucket)
	for i, es := range forest {
		for _, e := range es {
			occ[next[key(e)]] = occurrence{e, int32(i)}
			next[key(e)]++
		}
	}
	for k := 0; k <= span; k++ {
		slices.SortFunc(occ[bucket[k]:bucket[k+1]], byEdgeThenTree)
	}
	x.treeEdges = make([]int32, len(occ))
	x.edgeTrees = make([]int32, len(occ))
	pos := slices.Clone(x.treeOff[:len(forest)])
	for j, o := range occ {
		if j == 0 || o.e != occ[j-1].e {
			x.edges = append(x.edges, o.e)
			x.edgeOff = append(x.edgeOff, int32(j))
		}
		x.edgeTrees[j] = o.tree
		x.treeEdges[pos[o.tree]] = int32(len(x.edges) - 1)
		pos[o.tree]++
	}
	x.edgeOff = append(x.edgeOff, int32(len(occ)))
	return x
}

// waterfill runs Algorithm 1 from the initial per-edge capacities avail,
// which it consumes.
func (x *index) waterfill(avail []float64) Result {
	r := Result{PerTree: make([]float64, len(x.treeOff)-1)}

	// Initialisation (lines 1-3): C(e) counts every occurrence.
	cong := make([]int32, len(x.edges))
	for id := range cong {
		cong[id] = x.edgeOff[id+1] - x.edgeOff[id]
		r.MaxCongestion = max(r.MaxCongestion, int(cong[id]))
	}
	active := make([]bool, len(r.PerTree))
	remaining := 0
	for i := range active {
		if x.treeOff[i+1] > x.treeOff[i] {
			active[i] = true
			remaining++
		}
	}

	// Main loop (lines 4-12).
	for remaining > 0 {
		// Line 5: bottleneck link e_min = argmin L(e)/C(e) over links still
		// carrying at least one active tree. The scan runs in (U, V) order
		// with a strict <, so the first minimum wins on every run; the
		// final Result is tie-independent (property-tested).
		emin, share := -1, math.Inf(1)
		for id, c := range cong {
			if c <= 0 {
				continue
			}
			if s := avail[id] / float64(c); s < share {
				emin, share = id, s
			}
		}
		if emin < 0 {
			panic("bandwidth: active trees remain but no congested link found")
		}

		// Lines 6-11: every active tree crossing e_min is assigned the
		// share and retired, in ascending tree order. Every subtraction in
		// a round is the same share, so each link sees the same sequence
		// of float operations whatever the order. Retiring them all drops
		// C(e_min) to zero, which removes e_min from the scan (line 12).
		for _, ti := range x.edgeTrees[x.edgeOff[emin]:x.edgeOff[emin+1]] {
			if !active[ti] {
				continue
			}
			r.PerTree[ti] = share
			for _, id := range x.treeEdges[x.treeOff[ti]:x.treeOff[ti+1]] {
				avail[id] -= share
				cong[id]--
			}
			active[ti] = false
			remaining--
		}
	}

	for _, b := range r.PerTree {
		r.Aggregate += b
	}
	return r
}

// ForForest adapts Waterfill to a forest of rooted trees.
func ForForest(forest []*trees.Tree, linkB float64) Result {
	es := make([][]graph.Edge, len(forest))
	for i, t := range forest {
		es[i] = t.Edges()
	}
	return Waterfill(es, linkB)
}

// Optimal returns the optimal bidirectional in-network Allreduce bandwidth
// of PolarFly ER_q: (q+1)·B/2 (Corollary 7.1). The bound is the edge-count
// argument — ER_q has q(q+1)²/2 links and each spanning tree needs q²+q of
// them, so at most (q+1)/2 unit-bandwidth trees fit.
func Optimal(q int, linkB float64) float64 {
	return float64(q+1) * linkB / 2
}

// LowDepthBound returns the guaranteed aggregate bandwidth of the
// Algorithm 3 forest: q·B/2 for odd q (Corollary 7.7; q trees at
// congestion 2). For even q the paper states the conceptually similar
// layout attains the optimal (q+1)·B/2 (§7.3).
func LowDepthBound(q int, linkB float64) float64 {
	if q%2 == 1 {
		return float64(q) * linkB / 2
	}
	return float64(q+1) * linkB / 2
}

// HamiltonianBound returns the aggregate bandwidth of t edge-disjoint
// Hamiltonian trees: t·B (Theorem 7.19). With the optimal t = ⌊(q+1)/2⌋
// this equals ⌊(q+1)/2⌋·B.
func HamiltonianBound(numTrees int, linkB float64) float64 {
	return float64(numTrees) * linkB
}

// SubvectorSplit distributes an m-element Allreduce vector across trees in
// proportion to their bandwidth, m_i = m·B_i/ΣB_i (Equation 2 of
// Theorem 5.1), rounded to integers that sum exactly to m (largest-
// remainder method). Trees with zero bandwidth receive zero elements.
func SubvectorSplit(m int, perTree []float64) ([]int, error) {
	if m < 0 {
		return nil, fmt.Errorf("bandwidth: negative vector size %d", m)
	}
	total := 0.0
	for _, b := range perTree {
		if b < 0 {
			return nil, fmt.Errorf("bandwidth: negative tree bandwidth %f", b)
		}
		total += b
	}
	out := make([]int, len(perTree))
	if m == 0 {
		return out, nil
	}
	//lint:ignore floatcmp total is a sum of non-negative inputs, so exact zero means "no bandwidth anywhere"; a tolerance would misclassify tiny real allocations
	if total == 0 {
		return nil, fmt.Errorf("bandwidth: all trees have zero bandwidth")
	}
	type frac struct {
		idx int
		rem float64
	}
	assigned := 0
	fracs := make([]frac, len(perTree))
	for i, b := range perTree {
		exact := float64(m) * b / total
		out[i] = int(exact)
		assigned += out[i]
		fracs[i] = frac{i, exact - float64(out[i])}
	}
	// Distribute the leftover elements to the largest remainders
	// (deterministic: ties broken by index).
	for assigned < m {
		best := -1
		for i := range fracs {
			//lint:ignore floatcmp exact-zero sentinel: zero-bandwidth trees must receive zero elements (documented contract), not a rounding-leftover element
			if perTree[fracs[i].idx] == 0 {
				continue
			}
			if best == -1 || fracs[i].rem > fracs[best].rem {
				best = i
			}
		}
		out[fracs[best].idx]++
		fracs[best].rem = -1
		assigned++
	}
	return out, nil
}

// BacklogAwareSplit distributes r new elements across trees that already
// carry backlog[i] undelivered elements and run at bandwidth perTree[i],
// so that the projected finish times (backlog_i + r_i)/B_i are equalised —
// the waterfilling generalisation of Equation 2 used when a recovery
// re-issues a dead tree's remaining chunk over the survivors. With all
// backlogs zero it reduces to SubvectorSplit. Zero-bandwidth trees
// receive nothing.
func BacklogAwareSplit(r int, backlog []int, perTree []float64) ([]int, error) {
	if r < 0 {
		return nil, fmt.Errorf("bandwidth: negative re-issue size %d", r)
	}
	if len(backlog) != len(perTree) {
		return nil, fmt.Errorf("bandwidth: backlog/bandwidth length mismatch %d vs %d", len(backlog), len(perTree))
	}
	total := 0.0
	for i, b := range perTree {
		if b < 0 {
			return nil, fmt.Errorf("bandwidth: negative tree bandwidth %f", b)
		}
		if backlog[i] < 0 {
			return nil, fmt.Errorf("bandwidth: negative backlog %d", backlog[i])
		}
		total += b
	}
	out := make([]int, len(perTree))
	if r == 0 {
		return out, nil
	}
	//lint:ignore floatcmp total is a sum of non-negative inputs, so exact zero means "no bandwidth anywhere"; a tolerance would misclassify tiny real allocations
	if total == 0 {
		return nil, fmt.Errorf("bandwidth: all trees have zero bandwidth")
	}

	// A tree starts receiving work once the water level T (projected
	// finish time) rises past its current level backlog_i/B_i. Scan the
	// per-tree levels in ascending order; between consecutive levels the
	// total allocated, Σ_active (T·B_i − backlog_i), is linear in T, so
	// the segment containing r pins T exactly.
	type lvl struct {
		idx   int
		level float64
	}
	lvls := make([]lvl, 0, len(perTree))
	for i, b := range perTree {
		if b > 0 {
			lvls = append(lvls, lvl{i, float64(backlog[i]) / b})
		}
	}
	sort.Slice(lvls, func(i, j int) bool {
		if lvls[i].level < lvls[j].level {
			return true
		}
		if lvls[j].level < lvls[i].level {
			return false
		}
		return lvls[i].idx < lvls[j].idx
	})
	sumB, sumBacklog := 0.0, 0.0
	var T float64
	for k, l := range lvls {
		sumB += perTree[l.idx]
		sumBacklog += float64(backlog[l.idx])
		// Candidate level assuming exactly trees 0..k are active.
		T = (float64(r) + sumBacklog) / sumB
		if k == len(lvls)-1 || T <= lvls[k+1].level {
			break
		}
	}

	// Exact allocations at level T, then integer rounding by largest
	// remainder (deterministic: ties broken by index).
	type frac struct {
		idx int
		rem float64
	}
	assigned := 0
	fracs := make([]frac, 0, len(lvls))
	for _, l := range lvls {
		exact := T*perTree[l.idx] - float64(backlog[l.idx])
		if exact < 0 {
			exact = 0
		}
		out[l.idx] = int(exact)
		assigned += out[l.idx]
		fracs = append(fracs, frac{l.idx, exact - float64(out[l.idx])})
	}
	sort.Slice(fracs, func(i, j int) bool { return fracs[i].idx < fracs[j].idx })
	for assigned < r {
		best := -1
		for i := range fracs {
			if best == -1 || fracs[i].rem > fracs[best].rem {
				best = i
			}
		}
		out[fracs[best].idx]++
		fracs[best].rem = -1
		assigned++
	}
	// Float drift can overshoot by a unit or two; trim from the smallest
	// remainders so the split still sums exactly to r.
	for assigned > r {
		worst := -1
		for i := range fracs {
			if out[fracs[i].idx] == 0 {
				continue
			}
			if worst == -1 || fracs[i].rem < fracs[worst].rem {
				worst = i
			}
		}
		out[fracs[worst].idx]--
		fracs[worst].rem = 2 // already trimmed; deprioritise
		assigned--
	}
	return out, nil
}

// PredictTime returns the Allreduce completion time for an m-element
// vector split optimally across the forest: t = L + m/ΣB_i (Equation 3),
// with L the per-tree latency in time units.
func PredictTime(m int, latency float64, aggregate float64) float64 {
	if aggregate <= 0 {
		panic("bandwidth: non-positive aggregate bandwidth")
	}
	return latency + float64(m)/aggregate
}
