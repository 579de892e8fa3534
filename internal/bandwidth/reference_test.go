package bandwidth

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"polarfly/internal/er"
	"polarfly/internal/graph"
	"polarfly/internal/singer"
	"polarfly/internal/trees"
)

// referenceWaterfill is the map-based Algorithm 1 loop the interned kernel
// replaced, kept verbatim as the differential oracle: the kernel must
// reproduce its Result bit for bit, on any forest and any capacities.
func referenceWaterfill(forest [][]graph.Edge, caps map[graph.Edge]float64, defaultB float64) Result {
	if defaultB <= 0 {
		panic("bandwidth: default link bandwidth must be positive")
	}
	for e, c := range caps {
		if c <= 0 {
			panic(fmt.Sprintf("bandwidth: non-positive capacity for link %v", e))
		}
	}
	r := Result{PerTree: make([]float64, len(forest))}
	avail := make(map[graph.Edge]float64)
	congestion := make(map[graph.Edge]int)
	for _, es := range forest {
		for _, e := range es {
			if c, ok := caps[e]; ok {
				avail[e] = c
			} else {
				avail[e] = defaultB
			}
			congestion[e]++
		}
	}
	for _, c := range congestion {
		if c > r.MaxCongestion {
			r.MaxCongestion = c
		}
	}
	active := make([]bool, len(forest))
	remaining := 0
	for i, es := range forest {
		if len(es) > 0 {
			active[i] = true
			remaining++
		}
	}
	edges := sortedEdges(congestion)
	for remaining > 0 {
		var emin graph.Edge
		best := math.Inf(1)
		found := false
		for _, e := range edges {
			c := congestion[e]
			if c <= 0 {
				continue
			}
			if share := avail[e] / float64(c); share < best {
				best = share
				emin = e
				found = true
			}
		}
		if !found {
			panic("bandwidth: active trees remain but no congested link found")
		}
		share := avail[emin] / float64(congestion[emin])
		for i, es := range forest {
			if !active[i] || !containsEdge(es, emin) {
				continue
			}
			r.PerTree[i] = share
			for _, e := range es {
				avail[e] -= share
				congestion[e]--
			}
			active[i] = false
			remaining--
		}
		delete(avail, emin)
		delete(congestion, emin)
	}
	for _, b := range r.PerTree {
		r.Aggregate += b
	}
	return r
}

// sortedEdges returns the keys of congestion ordered by (U, V), the
// deterministic scan order for bottleneck selection.
func sortedEdges(congestion map[graph.Edge]int) []graph.Edge {
	out := make([]graph.Edge, 0, len(congestion))
	for e := range congestion {
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

func containsEdge(es []graph.Edge, e graph.Edge) bool {
	for _, x := range es {
		if x == e {
			return true
		}
	}
	return false
}

// sameResult reports the first bit-level difference between two Results,
// or "" when they are identical.
func sameResult(got, want Result) string {
	if len(got.PerTree) != len(want.PerTree) {
		return fmt.Sprintf("%d trees, want %d", len(got.PerTree), len(want.PerTree))
	}
	for i := range want.PerTree {
		if math.Float64bits(got.PerTree[i]) != math.Float64bits(want.PerTree[i]) {
			return fmt.Sprintf("PerTree[%d] = %v, want %v", i, got.PerTree[i], want.PerTree[i])
		}
	}
	if math.Float64bits(got.Aggregate) != math.Float64bits(want.Aggregate) {
		return fmt.Sprintf("Aggregate = %v, want %v", got.Aggregate, want.Aggregate)
	}
	if got.MaxCongestion != want.MaxCongestion {
		return fmt.Sprintf("MaxCongestion = %d, want %d", got.MaxCongestion, want.MaxCongestion)
	}
	return ""
}

// randomForest draws a forest over nVerts vertices, so trees overlap
// heavily and bottleneck ties are common. It includes what the paper's
// forests never produce: empty trees, an edge listed twice in one tree,
// non-canonical U>V edges (distinct links from their canonical twins) and
// self-loops. Vertex k gets id base+k·stride: a unit stride keeps the ids
// dense, a huge one makes them sparse (both interning paths). caps covers
// a random subset of the drawn links plus one link no tree uses.
func randomForest(rng *rand.Rand, nTrees, nVerts, base, stride int) ([][]graph.Edge, map[graph.Edge]float64) {
	levels := []float64{0.25, 0.5, 1, 1.5, 2, 3}
	vertex := func() int { return base + stride*rng.Intn(nVerts) }
	forest := make([][]graph.Edge, nTrees)
	caps := map[graph.Edge]float64{{U: base - stride, V: base}: levels[rng.Intn(len(levels))]}
	for i := range forest {
		if rng.Intn(6) == 0 {
			continue // empty tree
		}
		for k := rng.Intn(2 * nVerts); k >= 0; k-- {
			e := graph.Edge{U: vertex(), V: vertex()}
			forest[i] = append(forest[i], e)
			if rng.Intn(8) == 0 {
				forest[i] = append(forest[i], e) // duplicate inside the tree
			}
			if rng.Intn(3) == 0 {
				caps[e] = levels[rng.Intn(len(levels))]
			}
		}
	}
	return forest, caps
}

// FuzzWaterfillMatchesReference: the interned kernel reproduces the
// map-based loop bit for bit — every PerTree entry, the Aggregate and
// MaxCongestion — on uniform and heterogeneous capacities, dense and
// sparse (negative, widely spaced) vertex ids alike.
func FuzzWaterfillMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(4), false, false)
	f.Add(int64(7), uint8(9), uint8(6), true, false)
	f.Add(int64(42), uint8(1), uint8(2), true, true)
	f.Add(int64(99), uint8(12), uint8(8), false, true)
	f.Fuzz(func(t *testing.T, seed int64, nTreesRaw, nVertsRaw uint8, hetero, sparse bool) {
		rng := rand.New(rand.NewSource(seed))
		nTrees := int(nTreesRaw) % 16
		nVerts := int(nVertsRaw)%10 + 2
		base, stride := -rng.Intn(3), 1
		if sparse {
			base, stride = -1<<42, 1<<40
		}
		forest, caps := randomForest(rng, nTrees, nVerts, base, stride)
		linkB := []float64{0.5, 1, 3}[rng.Intn(3)]
		if !hetero {
			if diff := sameResult(Waterfill(forest, linkB), referenceWaterfill(forest, nil, linkB)); diff != "" {
				t.Fatalf("uniform B=%v: %s (forest %v)", linkB, diff, forest)
			}
			return
		}
		if diff := sameResult(WaterfillHeterogeneous(forest, caps, linkB), referenceWaterfill(forest, caps, linkB)); diff != "" {
			t.Fatalf("heterogeneous default=%v: %s (forest %v, caps %v)", linkB, diff, forest, caps)
		}
	})
}

// TestForForestMatchesReference runs the differential check on the
// forests the paper's evaluation uses — low-depth, Hamiltonian, depth-2 and
// random spanning forests for q ∈ {3, 5, 7, 9, 11} — and on every
// one-tree-removed subset of each, the forests Degrade evaluates.
func TestForForestMatchesReference(t *testing.T) {
	for _, q := range []int{3, 5, 7, 9, 11} {
		pg, err := er.New(q)
		if err != nil {
			t.Fatal(err)
		}
		l, err := er.NewLayout(pg, -1)
		if err != nil {
			t.Fatal(err)
		}
		s, err := singer.New(q)
		if err != nil {
			t.Fatal(err)
		}
		roots := make([]int, q)
		for i := range roots {
			roots[i] = i
		}
		for _, c := range []struct {
			name  string
			build func() ([]*trees.Tree, error)
		}{
			{"low-depth", func() ([]*trees.Tree, error) { return trees.LowDepthForest(l) }},
			{"hamiltonian", func() ([]*trees.Tree, error) { return trees.HamiltonianForest(s, 30, 42) }},
			{"depth-2", func() ([]*trees.Tree, error) { return trees.DepthTwoForest(pg.G, roots) }},
			{"random", func() ([]*trees.Tree, error) { return trees.RandomForest(pg.G, q, int64(q)) }},
		} {
			forest, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			es := make([][]graph.Edge, len(forest))
			for i, tr := range forest {
				es[i] = tr.Edges()
			}
			for drop := -1; drop < len(es); drop++ {
				sub := make([][]graph.Edge, 0, len(es))
				for i := range es {
					if i != drop {
						sub = append(sub, es[i])
					}
				}
				if diff := sameResult(Waterfill(sub, 1.0), referenceWaterfill(sub, nil, 1.0)); diff != "" {
					t.Fatalf("q=%d %s without tree %d: %s", q, c.name, drop, diff)
				}
			}
		}
	}
}
