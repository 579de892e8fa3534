package graph

import (
	"math/rand"
	"sort"
)

// This file implements the independent-set machinery of §7.3: the paper
// selects a maximum set of pairwise edge-disjoint Hamiltonian paths by
// computing independent sets in the "pair graph" G_S, whose vertices are
// Hamiltonian difference-element pairs and whose edges join pairs sharing
// an element. The paper reports that random maximal independent sets find a
// maximum one within 30 instances for all q < 128; we reproduce that
// procedure and additionally provide an exact branch-and-bound solver used
// to validate the randomized result on small instances.

// RandomMaximalIndependentSet returns a maximal (not necessarily maximum)
// independent set of g, grown greedily over a random vertex permutation
// drawn from rng. The result is sorted ascending.
func (g *Graph) RandomMaximalIndependentSet(rng *rand.Rand) []int {
	perm := rng.Perm(g.n)
	blocked := make([]bool, g.n)
	var set []int
	for _, v := range perm {
		if blocked[v] {
			continue
		}
		set = append(set, v)
		blocked[v] = true
		for _, u := range g.adj[v] {
			blocked[u] = true
		}
	}
	sort.Ints(set)
	return set
}

// IsIndependentSet reports whether no two vertices of set are adjacent in g.
func (g *Graph) IsIndependentSet(set []int) bool {
	for i := 0; i < len(set); i++ {
		for j := i + 1; j < len(set); j++ {
			if g.HasEdge(set[i], set[j]) {
				return false
			}
		}
	}
	return true
}

// IsMaximalIndependentSet reports whether set is independent and cannot be
// extended by any vertex of g.
func (g *Graph) IsMaximalIndependentSet(set []int) bool {
	if !g.IsIndependentSet(set) {
		return false
	}
	in := make([]bool, g.n)
	for _, v := range set {
		in[v] = true
	}
	for v := 0; v < g.n; v++ {
		if in[v] {
			continue
		}
		extendable := true
		for _, u := range g.adj[v] {
			if in[u] {
				extendable = false
				break
			}
		}
		if extendable {
			return false
		}
	}
	return true
}

// SearchIndependentSet repeats RandomMaximalIndependentSet up to maxTries
// times with the given rng and returns the first set reaching target size
// (true), or the largest set found (false). This mirrors the paper's "30
// random instances" procedure.
func (g *Graph) SearchIndependentSet(target, maxTries int, rng *rand.Rand) ([]int, bool) {
	var best []int
	for i := 0; i < maxTries; i++ {
		set := g.RandomMaximalIndependentSet(rng)
		if len(set) > len(best) {
			best = set
		}
		if len(best) >= target {
			return best, true
		}
	}
	return best, false
}

// MaximumIndependentSet returns a maximum independent set of g, computed by
// branch and bound with greedy bounding. Exponential in the worst case;
// intended for the small pair graphs G_S (at most a few thousand vertices
// for q < 128, and those are sparse interval-like graphs where the solver
// is fast). For larger inputs prefer SearchIndependentSet.
func (g *Graph) MaximumIndependentSet() []int {
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
			if !g.adjacent(v, u) {
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
