package trees

import (
	"fmt"

	"polarfly/internal/er"
	"polarfly/internal/graph"
)

// LowDepthForest implements Algorithm 3: given a PolarFly layout for odd
// prime power q, it derives q spanning trees rooted at the cluster centers,
// each of depth at most 3 (Theorem 7.5), with worst-case link congestion 2
// (Theorem 7.6) and opposed reduction flows on every shared link
// (Lemma 7.8). The aggregate Allreduce bandwidth under Algorithm 1 is at
// least qB/2 (Corollary 7.7).
//
// The construction is deterministic: neighbors are scanned in ascending
// vertex order, and line 10's "select any edge of E_a incident with v_j"
// picks the smallest-numbered available neighbor.
func LowDepthForest(l *er.Layout) ([]*Tree, error) {
	pg := l.PG
	n := pg.N()
	q := pg.Q

	// E_a, the available-edge set of Algorithm 3 (line 1), only ever loses
	// edges that attach a center (line 11). The centers are the starter
	// quadric's neighbors, which are pairwise non-adjacent: they lie on
	// the tangent line w^⊥, which meets any other center's polar line only
	// at w. So each such edge has exactly one center endpoint, and E_a is
	// kept as one flag per slot of each center's neighbor row:
	// taken[j][k] marks the edge from center j to its k-th neighbor.
	rows := make([][]int, q)
	taken := make([][]bool, q)
	for j, c := range l.Centers {
		rows[j] = pg.G.Neighbors(c)
		taken[j] = make([]bool, len(rows[j]))
	}

	forest := make([]*Tree, 0, q)
	for i := 0; i < q; i++ { // construct T_i (line 2)
		root := l.Centers[i]
		parent := make([]int, n)
		for v := range parent {
			parent[v] = -2 // not yet in T_i
		}
		parent[root] = -1

		// Lines 4-5: level 1 — all neighbors of the root (covers C_i, the
		// starter quadric w and the non-starter quadric w_i).
		level1 := rows[i]
		for _, u := range level1 {
			parent[u] = root
		}
		// Lines 6-8: level 2 — expand every level-1 vertex except the
		// starter quadric.
		for _, u := range level1 {
			if u == l.Starter {
				continue
			}
			for _, z := range pg.G.Neighbors(u) {
				if parent[z] == -2 {
					parent[z] = u
				}
			}
		}
		// Lines 9-12: level 3 — attach the other cluster centers via an
		// available edge.
		for j := 0; j < q; j++ {
			if j == i {
				continue
			}
			vj := l.Centers[j]
			attached := false
			for k, u := range rows[j] {
				if taken[j][k] {
					continue
				}
				if parent[u] == -2 || u == vj {
					continue // u must already be in T_i
				}
				parent[vj] = u
				taken[j][k] = true
				attached = true
				break
			}
			if !attached {
				return nil, fmt.Errorf("trees: no available edge to attach center %d in T_%d", vj, i)
			}
		}

		for v := 0; v < n; v++ {
			if parent[v] == -2 {
				return nil, fmt.Errorf("trees: vertex %d not covered by T_%d", v, i)
			}
		}
		t, err := FromParent(root, parent)
		if err != nil {
			return nil, fmt.Errorf("trees: T_%d: %w", i, err)
		}
		forest = append(forest, t)
	}
	return forest, nil
}

// SingleTreeBaseline returns one BFS spanning tree of g rooted at root —
// the conventional single-tree in-network Allreduce embedding whose
// bandwidth is capped at one link bandwidth (§1.1), used as the baseline
// the multi-tree solutions are compared against.
func SingleTreeBaseline(g *graph.Graph, root int) (*Tree, error) {
	n := g.N()
	parent := make([]int, n)
	for v := range parent {
		parent[v] = -2
	}
	parent[root] = -1
	queue := []int{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(v) {
			if parent[u] == -2 {
				parent[u] = v
				queue = append(queue, u)
			}
		}
	}
	for v := 0; v < n; v++ {
		if parent[v] == -2 {
			return nil, fmt.Errorf("trees: graph disconnected, vertex %d unreachable from %d", v, root)
		}
	}
	return FromParent(root, parent)
}
