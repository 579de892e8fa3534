package graph

// This file implements maximum flow (Dinic's algorithm) and global edge
// connectivity. They provide an independent upper/lower sanity bracket on
// the paper's tree-packing results: by Nash-Williams–Tutte, a λ-edge-
// connected graph packs at least ⌊λ/2⌋ edge-disjoint spanning trees; ER_q
// has λ = q (its minimum degree, attained at quadrics), so ⌊q/2⌋ disjoint
// trees are guaranteed to exist — the paper's Singer construction achieves
// ⌊(q+1)/2⌋, matching the edge-count upper bound (Lemma 7.18).

// dinic is a unit-capacity-per-undirected-edge max-flow solver.
type dinic struct {
	n     int
	head  []int
	to    []int
	next  []int
	cap   []int
	level []int
	iter  []int
}

func newDinic(n int) *dinic {
	d := &dinic{n: n, head: make([]int, n), level: make([]int, n), iter: make([]int, n)}
	for i := range d.head {
		d.head[i] = -1
	}
	return d
}

// addEdge inserts a directed edge with the given capacity plus its reverse
// with capacity revCap (use equal capacities to model an undirected edge).
func (d *dinic) addEdge(u, v, capacity, revCap int) {
	d.to = append(d.to, v)
	d.cap = append(d.cap, capacity)
	d.next = append(d.next, d.head[u])
	d.head[u] = len(d.to) - 1

	d.to = append(d.to, u)
	d.cap = append(d.cap, revCap)
	d.next = append(d.next, d.head[v])
	d.head[v] = len(d.to) - 1
}

func (d *dinic) bfs(s, t int) bool {
	for i := range d.level {
		d.level[i] = -1
	}
	d.level[s] = 0
	queue := []int{s}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for e := d.head[v]; e != -1; e = d.next[e] {
			if d.cap[e] > 0 && d.level[d.to[e]] == -1 {
				d.level[d.to[e]] = d.level[v] + 1
				queue = append(queue, d.to[e])
			}
		}
	}
	return d.level[t] >= 0
}

func (d *dinic) dfs(v, t, f int) int {
	if v == t {
		return f
	}
	for ; d.iter[v] != -1; d.iter[v] = d.next[d.iter[v]] {
		e := d.iter[v]
		u := d.to[e]
		if d.cap[e] > 0 && d.level[u] == d.level[v]+1 {
			got := d.dfs(u, t, min(f, d.cap[e]))
			if got > 0 {
				d.cap[e] -= got
				d.cap[e^1] += got
				return got
			}
		}
	}
	return 0
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// maxflow computes the maximum s-t flow.
func (d *dinic) maxflow(s, t int) int {
	flow := 0
	for d.bfs(s, t) {
		copy(d.iter, d.head)
		for {
			f := d.dfs(s, t, 1<<30)
			if f == 0 {
				break
			}
			flow += f
		}
	}
	return flow
}

// MaxFlow returns the maximum number of edge-disjoint paths between s and
// t in g (each undirected edge has unit capacity in both directions).
func (g *Graph) MaxFlow(s, t int) int {
	g.checkVertex(s)
	g.checkVertex(t)
	if s == t {
		panic("graph: MaxFlow with s == t")
	}
	d := newDinic(g.n)
	for _, e := range g.Edges() {
		d.addEdge(e.U, e.V, 1, 1)
	}
	return d.maxflow(s, t)
}

// EdgeConnectivity returns the global edge connectivity λ(g): the minimum
// number of edges whose removal disconnects g. Zero for disconnected or
// trivial graphs. Computed as the minimum of n−1 max-flow runs from vertex
// 0 (a classic identity: some global min cut separates vertex 0 from some
// other vertex).
func (g *Graph) EdgeConnectivity() int {
	if g.n < 2 || !g.IsConnected() {
		return 0
	}
	lambda := 1 << 30
	for t := 1; t < g.n; t++ {
		if f := g.MaxFlow(0, t); f < lambda {
			lambda = f
			if lambda == 0 {
				break
			}
		}
	}
	return lambda
}

// TreePackingBounds returns the Nash-Williams–Tutte lower bound ⌊λ/2⌋ and
// the edge-count upper bound ⌊m/(n−1)⌋ on the number of edge-disjoint
// spanning trees of g.
func (g *Graph) TreePackingBounds() (lower, upper int) {
	if g.n < 2 {
		return 0, 0
	}
	return g.EdgeConnectivity() / 2, g.M() / (g.n - 1)
}
