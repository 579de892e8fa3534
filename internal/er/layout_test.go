package er

import "testing"

func buildLayout(t *testing.T, q int) *Layout {
	t.Helper()
	pg := build(t, q)
	l, err := NewLayout(pg, -1)
	if err != nil {
		t.Fatalf("NewLayout(q=%d): %v", q, err)
	}
	return l
}

func TestLayoutRejects(t *testing.T) {
	pg := build(t, 4)
	if _, err := NewLayout(pg, -1); err == nil {
		t.Error("layout for even q should fail")
	}
	pg3 := build(t, 3)
	nonQuadric := -1
	for v := 0; v < pg3.N(); v++ {
		if pg3.Type(v) != Quadric {
			nonQuadric = v
			break
		}
	}
	if _, err := NewLayout(pg3, nonQuadric); err == nil {
		t.Error("non-quadric starter should fail")
	}
}

func TestLayoutPartition(t *testing.T) {
	// Algorithm 2 adds every vertex to exactly one cluster.
	for _, q := range oddQs {
		l := buildLayout(t, q)
		pg := l.PG
		if l.NumClusters() != q {
			t.Errorf("q=%d: %d clusters, want %d", q, l.NumClusters(), q)
		}
		seen := make(map[int]int)
		for ci, cluster := range l.Clusters {
			// Property 1(1): every non-quadric cluster has q vertices.
			if len(cluster) != q {
				t.Errorf("q=%d: |C_%d|=%d, want %d", q, ci, len(cluster), q)
			}
			for _, v := range cluster {
				if pg.Type(v) == Quadric {
					t.Errorf("q=%d: quadric %d inside C_%d", q, v, ci)
				}
				if prev, dup := seen[v]; dup {
					t.Errorf("q=%d: vertex %d in clusters %d and %d", q, v, prev, ci)
				}
				seen[v] = ci
				if l.ClusterOf[v] != ci {
					t.Errorf("q=%d: ClusterOf[%d]=%d, want %d", q, v, l.ClusterOf[v], ci)
				}
			}
		}
		// W cluster plus clusters cover all vertices.
		if len(seen)+len(pg.Quadrics()) != pg.N() {
			t.Errorf("q=%d: covered %d+%d vertices of %d", q, len(seen), len(pg.Quadrics()), pg.N())
		}
		for _, w := range pg.Quadrics() {
			if l.ClusterOf[w] != -1 {
				t.Errorf("q=%d: quadric %d has ClusterOf=%d", q, w, l.ClusterOf[w])
			}
		}
	}
}

func TestLayoutCentersAdjacentToAll(t *testing.T) {
	// Property 1(3): the center is adjacent to all other cluster vertices.
	for _, q := range oddQs {
		l := buildLayout(t, q)
		for ci, cluster := range l.Clusters {
			center := l.Centers[ci]
			for _, v := range cluster {
				if v != center && !l.PG.G.HasEdge(center, v) {
					t.Errorf("q=%d: center %d of C_%d not adjacent to %d", q, center, ci, v)
				}
			}
		}
	}
}

func TestProperty2QuadricClusterConnectivity(t *testing.T) {
	for _, q := range []int{3, 5, 7, 9, 11, 13} {
		l := buildLayout(t, q)
		pg := l.PG
		for ci, cluster := range l.Clusters {
			// Property 2(1): q+1 edges between W and C_i.
			if got := l.EdgesToQuadricCluster(ci); got != q+1 {
				t.Errorf("q=%d: |E(W,C_%d)|=%d, want %d", q, ci, got, q+1)
			}
			// Property 2(2): every quadric adjacent to exactly one vertex
			// of C_i.
			for _, w := range pg.Quadrics() {
				adj := 0
				for _, v := range cluster {
					if pg.G.HasEdge(w, v) {
						adj++
					}
				}
				if adj != 1 {
					t.Errorf("q=%d: quadric %d adjacent to %d vertices of C_%d, want 1", q, w, adj, ci)
				}
			}
			// Property 2(3): every V1 vertex in C_i has exactly 2 quadric
			// neighbors.
			for _, v := range cluster {
				if pg.Type(v) != V1 {
					continue
				}
				w, _, _ := pg.NeighborTypeCounts(v)
				if w != 2 {
					t.Errorf("q=%d: V1 vertex %d has %d quadric neighbors", q, v, w)
				}
			}
		}
	}
}

func TestProperty3InterClusterConnectivity(t *testing.T) {
	for _, q := range []int{3, 5, 7, 9, 11} {
		l := buildLayout(t, q)
		pg := l.PG
		for i := 0; i < l.NumClusters(); i++ {
			for j := i + 1; j < l.NumClusters(); j++ {
				// Property 3(1): exactly q−2 edges between C_i and C_j.
				if got := l.EdgesBetweenClusters(i, j); got != q-2 {
					t.Errorf("q=%d: |E(C_%d,C_%d)|=%d, want %d", q, i, j, got, q-2)
				}
				// Property 3(2): center v_j and exactly one non-center
				// vertex of C_j have no neighbor in C_i.
				nonAdjacent := 0
				centerAdjacent := false
				for _, v := range l.Clusters[j] {
					touchesI := false
					for _, u := range l.Clusters[i] {
						if pg.G.HasEdge(u, v) {
							touchesI = true
							break
						}
					}
					if !touchesI {
						nonAdjacent++
					} else if v == l.Centers[j] {
						centerAdjacent = true
					}
				}
				if centerAdjacent {
					t.Errorf("q=%d: center of C_%d adjacent to C_%d", q, j, i)
				}
				if nonAdjacent != 2 { // center + one non-center vertex
					t.Errorf("q=%d: %d vertices of C_%d not adjacent to C_%d, want 2", q, nonAdjacent, j, i)
				}
			}
		}
	}
}

func TestCorollary73QuadricCenterBijection(t *testing.T) {
	// Each non-starter quadric is adjacent to exactly one unique center.
	for _, q := range oddQs {
		l := buildLayout(t, q)
		seen := make(map[int]bool)
		for ci, w := range l.QuadricOfCenter {
			if w == l.Starter {
				t.Errorf("q=%d: starter recorded as QuadricOfCenter[%d]", q, ci)
			}
			if seen[w] {
				t.Errorf("q=%d: quadric %d mapped to two centers", q, w)
			}
			seen[w] = true
			if !l.PG.G.HasEdge(w, l.Centers[ci]) {
				t.Errorf("q=%d: w_%d=%d not adjacent to its center %d", q, ci, w, l.Centers[ci])
			}
			if l.CenterOfQuadric[w] != ci {
				t.Errorf("q=%d: CenterOfQuadric[%d]=%d, want %d", q, w, l.CenterOfQuadric[w], ci)
			}
		}
		if len(seen) != q {
			t.Errorf("q=%d: %d non-starter quadrics mapped, want %d", q, len(seen), q)
		}
	}
}

func TestLemma72CentersShareOnlyStarter(t *testing.T) {
	// The quadric neighbors of two distinct centers are {w, w_i} and
	// {w, w_j} with w_i ≠ w_j.
	for _, q := range []int{3, 5, 7, 9, 11, 13} {
		l := buildLayout(t, q)
		pg := l.PG
		quadricNeighbors := func(v int) []int {
			var out []int
			for _, u := range pg.G.Neighbors(v) {
				if pg.Type(u) == Quadric {
					out = append(out, u)
				}
			}
			return out
		}
		for i := 0; i < len(l.Centers); i++ {
			qi := quadricNeighbors(l.Centers[i])
			if len(qi) != 2 {
				t.Fatalf("q=%d: center %d has %d quadric neighbors", q, l.Centers[i], len(qi))
			}
			hasStarter := qi[0] == l.Starter || qi[1] == l.Starter
			if !hasStarter {
				t.Errorf("q=%d: center %d not adjacent to starter", q, l.Centers[i])
			}
		}
	}
}

func TestCentersPairwiseNonAdjacent(t *testing.T) {
	// The centers lie on the tangent line w^⊥, which meets any other
	// center's polar line only at w, so no two centers are adjacent.
	// trees.LowDepthForest relies on this to track Algorithm 3's
	// available edges per center.
	for _, q := range oddQs {
		l := buildLayout(t, q)
		for i, a := range l.Centers {
			for _, b := range l.Centers[i+1:] {
				if l.PG.G.HasEdge(a, b) {
					t.Errorf("q=%d: centers %d and %d are adjacent", q, a, b)
				}
			}
		}
	}
}

func TestLayoutDeterministicWithDefaultStarter(t *testing.T) {
	a := buildLayout(t, 7)
	b := buildLayout(t, 7)
	if a.Starter != b.Starter {
		t.Fatal("default starter not deterministic")
	}
	for i := range a.Centers {
		if a.Centers[i] != b.Centers[i] {
			t.Fatal("centers not deterministic")
		}
	}
}

func TestLayoutWithExplicitStarter(t *testing.T) {
	pg := build(t, 5)
	for _, w := range pg.Quadrics() {
		l, err := NewLayout(pg, w)
		if err != nil {
			t.Fatalf("starter %d: %v", w, err)
		}
		if l.Starter != w {
			t.Fatalf("starter %d not honored", w)
		}
		if l.NumClusters() != 5 {
			t.Fatalf("starter %d: %d clusters", w, l.NumClusters())
		}
	}
}
