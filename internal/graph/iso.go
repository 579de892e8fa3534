package graph

import "sort"

// This file implements a backtracking graph-isomorphism checker in the
// spirit of VF2, with degree and neighborhood-degree-multiset invariants
// for pruning. It is used to verify Theorem 6.6 (the Singer graph S_q is
// isomorphic to the Erdős–Rényi polarity graph ER_q) on constructed
// instances, and for general-purpose structural testing.

// Isomorphic reports whether g and h are isomorphic, and if so returns a
// vertex mapping m with m[v in g] = vertex in h. The search is exponential
// in the worst case but fast on the highly structured graphs of this
// repository; intended for N up to a few hundred.
func Isomorphic(g, h *Graph) ([]int, bool) {
	if g.n != h.n || g.M() != h.M() {
		return nil, false
	}
	n := g.n
	if n == 0 {
		return []int{}, true
	}

	// Invariant signature: (degree, sorted multiset of neighbor degrees).
	sig := func(gr *Graph, v int) string {
		ds := make([]int, 0, gr.Degree(v))
		for _, u := range gr.adj[v] {
			ds = append(ds, gr.Degree(u))
		}
		sort.Ints(ds)
		buf := make([]byte, 0, 4+4*len(ds))
		put := func(x int) {
			buf = append(buf, byte(x>>24), byte(x>>16), byte(x>>8), byte(x))
		}
		put(gr.Degree(v))
		for _, d := range ds {
			put(d)
		}
		return string(buf)
	}
	gsig := make([]string, n)
	hsig := make([]string, n)
	hBySig := make(map[string][]int)
	gCount := make(map[string]int)
	for v := 0; v < n; v++ {
		gsig[v] = sig(g, v)
		hsig[v] = sig(h, v)
		hBySig[hsig[v]] = append(hBySig[hsig[v]], v)
		gCount[gsig[v]]++
	}
	for s, c := range gCount {
		if len(hBySig[s]) != c {
			return nil, false
		}
	}

	// Order g's vertices so each one after the first is adjacent to an
	// already-mapped vertex where possible (connected expansion), breaking
	// ties by rarest signature for stronger pruning.
	order := connectedOrder(g, gsig, gCount)

	mapping := make([]int, n)
	for i := range mapping {
		mapping[i] = -1
	}
	used := make([]bool, n)

	var rec func(i int) bool
	rec = func(i int) bool {
		if i == n {
			return true
		}
		v := order[i]
		for _, w := range hBySig[gsig[v]] {
			if used[w] {
				continue
			}
			ok := true
			for _, u := range g.adj[v] {
				if m := mapping[u]; m != -1 && !h.adjacent(w, m) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			// Reverse check via counting: the number of mapped neighbors of
			// v in g must equal the number of mapped preimages adjacent to w
			// in h. Since we verified every mapped g-neighbor maps to an
			// h-neighbor, equality of counts implies exact correspondence.
			mappedNbrsG := 0
			for _, u := range g.adj[v] {
				if mapping[u] != -1 {
					mappedNbrsG++
				}
			}
			mappedNbrsH := 0
			for _, u := range h.adj[w] {
				if usedBy(mapping, order[:i], u) {
					mappedNbrsH++
				}
			}
			if mappedNbrsG != mappedNbrsH {
				continue
			}
			mapping[v] = w
			used[w] = true
			if rec(i + 1) {
				return true
			}
			mapping[v] = -1
			used[w] = false
		}
		return false
	}
	if rec(0) {
		return mapping, true
	}
	return nil, false
}

// usedBy reports whether h-vertex u is the image of some already-mapped
// g-vertex in prefix.
func usedBy(mapping []int, prefix []int, u int) bool {
	for _, v := range prefix {
		if mapping[v] == u {
			return true
		}
	}
	return false
}

// connectedOrder returns a vertex order that starts from the vertex with
// the rarest signature and grows a connected frontier.
func connectedOrder(g *Graph, sig []string, count map[string]int) []int {
	n := g.n
	visited := make([]bool, n)
	var order []int
	for len(order) < n {
		// Seed: unvisited vertex with rarest signature.
		seed, bestCount := -1, n+1
		for v := 0; v < n; v++ {
			if !visited[v] && count[sig[v]] < bestCount {
				seed, bestCount = v, count[sig[v]]
			}
		}
		// BFS from seed.
		queue := []int{seed}
		visited[seed] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			for _, u := range g.adj[v] {
				if !visited[u] {
					visited[u] = true
					queue = append(queue, u)
				}
			}
		}
	}
	return order
}

// VerifyMapping reports whether m is a graph isomorphism g → h: a bijection
// preserving adjacency and non-adjacency.
func VerifyMapping(g, h *Graph, m []int) bool {
	if g.n != h.n || len(m) != g.n || g.M() != h.M() {
		return false
	}
	seen := make([]bool, h.n)
	for _, w := range m {
		if w < 0 || w >= h.n || seen[w] {
			return false
		}
		seen[w] = true
	}
	for _, e := range g.Edges() {
		if !h.adjacent(m[e.U], m[e.V]) {
			return false
		}
	}
	return true
}
