package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"polarfly/internal/bandwidth"
	"polarfly/internal/graph"
	"polarfly/internal/trees"
)

// TreesUsingLink returns the indices of forest trees whose edge set
// contains the undirected link (u, v). It panics on a self-loop (u == v);
// an endpoint outside a tree's vertex range matches no edge of that tree.
func TreesUsingLink(forest []*trees.Tree, u, v int) []int {
	e := graph.NewEdge(u, v)
	var out []int
	for i, t := range forest {
		if e.U >= 0 && e.V < len(t.Parent) && (t.Parent[e.U] == e.V || t.Parent[e.V] == e.U) {
			out = append(out, i)
		}
	}
	return out
}

// Degrade returns a new embedding that survives the failure of the given
// undirected links, by dropping every tree that crosses a failed link and
// re-evaluating the bandwidth model on the survivors. This is the graceful-
// degradation strategy the multi-tree embeddings enable: because the
// low-depth forest has congestion ≤ 2, one link failure removes at most 2
// of its q trees; because the Hamiltonian forest is edge-disjoint, one
// failure removes at most 1 of its ⌊(q+1)/2⌋ trees. A single-tree
// embedding loses everything.
//
// Degrade returns an error if no tree survives.
func Degrade(e *Embedding, failed [][2]int) (*Embedding, error) {
	dead := make(map[int]bool)
	for _, l := range failed {
		for _, ti := range TreesUsingLink(e.Forest, l[0], l[1]) {
			dead[ti] = true
		}
	}
	var surviving []*trees.Tree
	for i, t := range e.Forest {
		if !dead[i] {
			surviving = append(surviving, t)
		}
	}
	if len(surviving) == 0 {
		return nil, fmt.Errorf("core: all %d trees cross a failed link", len(e.Forest))
	}
	out := &Embedding{Kind: e.Kind, Forest: surviving, Topology: e.Topology, LinkB: e.linkB()}
	out.Model = bandwidth.ForForest(surviving, out.LinkB)
	for _, t := range surviving {
		if d := t.MaxDepth(); d > out.MaxDepth {
			out.MaxDepth = d
		}
	}
	return out, nil
}

// SubsetEmbedding returns an embedding restricted to the given tree
// indices, with the model re-evaluated. Indices must be distinct and in
// range.
func SubsetEmbedding(e *Embedding, indices []int) (*Embedding, error) {
	seen := make(map[int]bool)
	var forest []*trees.Tree
	for _, i := range indices {
		if i < 0 || i >= len(e.Forest) {
			return nil, fmt.Errorf("core: tree index %d out of range [0,%d)", i, len(e.Forest))
		}
		if seen[i] {
			return nil, fmt.Errorf("core: duplicate tree index %d", i)
		}
		seen[i] = true
		forest = append(forest, e.Forest[i])
	}
	out := &Embedding{Kind: e.Kind, Forest: forest, Topology: e.Topology, LinkB: e.linkB()}
	out.Model = bandwidth.ForForest(forest, out.LinkB)
	for _, t := range forest {
		if d := t.MaxDepth(); d > out.MaxDepth {
			out.MaxDepth = d
		}
	}
	return out, nil
}

// WorstCaseLink returns the undirected link whose single failure hurts
// the embedding most — losing the most trees, ties broken by the lowest
// surviving model aggregate, then by link order (deterministic). The
// returned embedding is the degraded survivor set; it is nil when the
// worst failure kills every tree (the single-tree case).
//
// A link's failure kills exactly the trees crossing it, so the survivors'
// model depends only on that dead-tree set. Many links share one set (on
// the paper's forests at most T(T+1)/2 sets cover all q(q+1)²/2 links), so
// each set is priced once, and only sets of the maximal size are priced.
func WorstCaseLink(e *Embedding) ([2]int, *Embedding, error) {
	type crossing struct {
		l    graph.Edge
		tree int
	}
	var occ []crossing
	for i, t := range e.Forest {
		for _, l := range t.Edges() {
			occ = append(occ, crossing{l, i})
		}
	}
	if len(occ) == 0 {
		return [2]int{}, nil, fmt.Errorf("core: embedding has no links")
	}
	slices.SortFunc(occ, func(a, b crossing) int {
		if c := cmp.Compare(a.l.U, b.l.U); c != 0 {
			return c
		}
		if c := cmp.Compare(a.l.V, b.l.V); c != 0 {
			return c
		}
		return cmp.Compare(a.tree, b.tree)
	})
	// Group the crossings into links in (U, V) order, each with its
	// ascending, deduplicated dead-tree set dead[start[k]:start[k+1]].
	var links []graph.Edge
	var start, dead []int
	maxLost := 0
	for j, c := range occ {
		if j == 0 || c.l != occ[j-1].l {
			links = append(links, c.l)
			start = append(start, len(dead))
		} else if c.tree == occ[j-1].tree {
			continue
		}
		dead = append(dead, c.tree)
		maxLost = max(maxLost, len(dead)-start[len(start)-1])
	}
	start = append(start, len(dead))

	// Only links losing maxLost trees can win; among them the first with
	// the strictly lowest surviving aggregate does.
	worst := -1
	worstBW := 0.0
	priced := make(map[string]float64)
	var key []byte
	for k := range links {
		d := dead[start[k]:start[k+1]]
		if len(d) != maxLost {
			continue
		}
		key = key[:0]
		for _, ti := range d {
			key = binary.AppendUvarint(key, uint64(ti))
		}
		bw, ok := priced[string(key)]
		if !ok {
			bw = survivorAggregate(e, d)
			priced[string(key)] = bw
		}
		if worst < 0 || bw < worstBW {
			worst, worstBW = k, bw
		}
	}
	link := [2]int{links[worst].U, links[worst].V}
	deg, err := Degrade(e, [][2]int{link})
	if err != nil {
		return link, nil, nil // the worst failure kills every tree
	}
	return link, deg, nil
}

// survivorAggregate is the model aggregate of the forest without the
// trees in dead (ascending indices), or 0 when no tree survives.
func survivorAggregate(e *Embedding, dead []int) float64 {
	var surviving []*trees.Tree
	for i, t := range e.Forest {
		if len(dead) > 0 && dead[0] == i {
			dead = dead[1:]
			continue
		}
		surviving = append(surviving, t)
	}
	if len(surviving) == 0 {
		return 0
	}
	return bandwidth.ForForest(surviving, e.linkB()).Aggregate
}

// FailureToleranceRow records how many trees a worst-case single-link
// failure removes from each embedding — the redundancy argument for
// multi-tree Allreduce.
type FailureToleranceRow struct {
	Kind EmbeddingKind
	// Trees is the forest size before failure.
	Trees int
	// WorstCaseLost is the maximum trees lost to any single link failure.
	WorstCaseLost int
	// WorstCaseRemainingBW is the model aggregate after that worst
	// failure.
	WorstCaseRemainingBW float64
}

// FailureTolerance computes the single-link worst case for each available
// embedding of q.
func FailureTolerance(q int) ([]FailureToleranceRow, error) {
	inst, err := NewInstance(q)
	if err != nil {
		return nil, err
	}
	kinds := []EmbeddingKind{SingleTree, LowDepth, Hamiltonian}
	if q%2 == 0 {
		kinds = []EmbeddingKind{SingleTree, Hamiltonian}
	}
	var rows []FailureToleranceRow
	for _, kind := range kinds {
		e, err := inst.Embed(kind)
		if err != nil {
			return nil, err
		}
		row := FailureToleranceRow{Kind: kind, Trees: len(e.Forest)}
		_, deg, err := WorstCaseLink(e)
		if err != nil {
			return nil, err
		}
		if deg == nil {
			row.WorstCaseLost = len(e.Forest)
			row.WorstCaseRemainingBW = 0
		} else {
			row.WorstCaseLost = len(e.Forest) - len(deg.Forest)
			row.WorstCaseRemainingBW = deg.Model.Aggregate
		}
		rows = append(rows, row)
	}
	return rows, nil
}
