package core

import (
	"fmt"

	"polarfly/internal/bandwidth"
	"polarfly/internal/logical"
	"polarfly/internal/netsim"
	"polarfly/internal/routing"
	"polarfly/internal/trees"
)

// This file holds the ablation studies DESIGN.md calls out: they quantify
// each design decision of the paper's solutions against its naive
// alternative.

// RandomForestRow compares k coordinated low-depth trees against k
// uncoordinated random spanning trees under the Algorithm 1 model — the
// §3 argument that tree sets must be carefully embedded.
type RandomForestRow struct {
	Q, K int
	// Coordinated is the Algorithm 3 forest's aggregate bandwidth;
	// Random the random forest's.
	CoordinatedBW, RandomBW float64
	// Congestion of each.
	CoordinatedCong, RandomCong int
	// PortStreamsRandom is the worst-case reduction streams per input
	// port for the random forest (always 1 for Algorithm 3, Lemma 7.8).
	PortStreamsRandom int
}

// RandomForestComparison runs the §3 ablation for odd prime power q.
func RandomForestComparison(q int, seed int64) (*RandomForestRow, error) {
	inst, err := NewInstance(q)
	if err != nil {
		return nil, err
	}
	if inst.Layout == nil {
		return nil, fmt.Errorf("core: random-forest ablation requires odd q")
	}
	coordinated, err := trees.LowDepthForest(inst.Layout)
	if err != nil {
		return nil, err
	}
	random, err := trees.RandomForest(inst.ER.G, len(coordinated), seed)
	if err != nil {
		return nil, err
	}
	c := bandwidth.ForForest(coordinated, 1.0)
	r := bandwidth.ForForest(random, 1.0)
	return &RandomForestRow{
		Q: q, K: len(coordinated),
		CoordinatedBW: c.Aggregate, RandomBW: r.Aggregate,
		CoordinatedCong: c.MaxCongestion, RandomCong: r.MaxCongestion,
		PortStreamsRandom: trees.MaxReductionsPerInputPort(random),
	}, nil
}

// SweepRow is one point of a fabric-parameter ablation.
type SweepRow struct {
	Param      int
	Cycles     int
	MeasuredBW float64
}

// VCDepthSweep measures the credit-loop throttling of §1.2: cycles for one
// Allreduce as the per-VC buffer shrinks below the link latency-bandwidth
// product.
func VCDepthSweep(q, m, linkLatency int, depths []int, kind EmbeddingKind, seed int64) ([]SweepRow, error) {
	inst, err := NewInstance(q)
	if err != nil {
		return nil, err
	}
	e, err := inst.Embed(kind)
	if err != nil {
		return nil, err
	}
	inputs := inst.Inputs(m, seed)
	var rows []SweepRow
	for _, d := range depths {
		res, err := inst.Allreduce(e, inputs, netsim.Config{LinkLatency: linkLatency, VCDepth: d})
		if err != nil {
			return nil, err
		}
		rows = append(rows, SweepRow{Param: d, Cycles: res.Cycles, MeasuredBW: float64(m) / float64(res.Cycles)})
	}
	return rows, nil
}

// EngineRateSweep measures the arithmetic-throughput requirement of §5.1:
// Allreduce time as the router reduction engine's per-cycle output is
// capped. Rate 0 means unlimited.
func EngineRateSweep(q, m, linkLatency int, rates []int, kind EmbeddingKind, seed int64) ([]SweepRow, error) {
	inst, err := NewInstance(q)
	if err != nil {
		return nil, err
	}
	e, err := inst.Embed(kind)
	if err != nil {
		return nil, err
	}
	inputs := inst.Inputs(m, seed)
	var rows []SweepRow
	for _, r := range rates {
		res, err := inst.Allreduce(e, inputs, netsim.Config{LinkLatency: linkLatency, VCDepth: 2 * linkLatency, EngineRate: r})
		if err != nil {
			return nil, err
		}
		rows = append(rows, SweepRow{Param: r, Cycles: res.Cycles, MeasuredBW: float64(m) / float64(res.Cycles)})
	}
	return rows, nil
}

// ResourceRow summarises the router-resource requirements (§5.1) of an
// embedding: the practical motivation for the edge-disjoint solution.
type ResourceRow struct {
	Kind EmbeddingKind
	// VCsPerLink is the worst-case virtual channels one link direction
	// needs to keep streams separate.
	VCsPerLink int
	// ReductionsPerPort is the worst-case reduction streams sharing an
	// input port (Lemma 7.8: 1 for the low-depth forest).
	ReductionsPerPort int
	// MaxStatesPerRouter is the largest per-router (tree, child) reduction
	// state count.
	MaxStatesPerRouter int
}

// DepthTwoRow compares the forced depth-2 forest against Algorithm 3's
// depth-3 forest: the one-extra-hop design decision, quantified.
type DepthTwoRow struct {
	Q int
	// DepthTwoBW / DepthThreeBW are Algorithm 1 aggregates at unit B.
	DepthTwoBW, DepthThreeBW float64
	// Congestion of each forest.
	DepthTwoCong, DepthThreeCong int
}

// DepthTwoComparison runs the depth-2-vs-depth-3 ablation for odd q.
func DepthTwoComparison(q int) (*DepthTwoRow, error) {
	inst, err := NewInstance(q)
	if err != nil {
		return nil, err
	}
	d2, err := inst.Embed(DepthTwo)
	if err != nil {
		return nil, err
	}
	d3, err := inst.Embed(LowDepth)
	if err != nil {
		return nil, err
	}
	return &DepthTwoRow{
		Q:            q,
		DepthTwoBW:   d2.Model.Aggregate,
		DepthThreeBW: d3.Model.Aggregate,
		DepthTwoCong: d2.Model.MaxCongestion, DepthThreeCong: d3.Model.MaxCongestion,
	}, nil
}

// LogicalTreeRow compares a SHARP-style logical aggregation tree (§4.4's
// runtime-routed alternative) against the physically embedded trees.
type LogicalTreeRow struct {
	Shape string
	// MaxLoad is the worst physical-link congestion induced by the routed
	// logical edges — >1 even for one tree (path conflicts).
	MaxLoad int
	// Bandwidth is the achievable Allreduce bandwidth B/MaxLoad at unit B.
	Bandwidth float64
	// PhysicalDepth is the worst-case physical hops to the root.
	PhysicalDepth int
}

// LogicalTreeComparison expands binomial and k-ary logical trees over the
// ER_q routing table and reports their conflicts, alongside physical
// references (single BFS tree: load 1, bandwidth 1, depth 2).
func LogicalTreeComparison(q int) ([]LogicalTreeRow, error) {
	inst, err := NewInstance(q)
	if err != nil {
		return nil, err
	}
	rt := routing.New(inst.ER.G)
	shapes := []struct {
		name string
		tree *logical.Tree
	}{
		{"binomial", logical.Binomial(inst.N())},
		{"2-ary", logical.KAry(inst.N(), 2)},
		{"radix-ary", logical.KAry(inst.N(), q+1)},
	}
	var rows []LogicalTreeRow
	for _, s := range shapes {
		emb, err := logical.Expand(s.tree, rt)
		if err != nil {
			return nil, err
		}
		bw := logical.Bandwidth([]*logical.Embedding{emb}, 1.0)
		rows = append(rows, LogicalTreeRow{
			Shape:         s.name,
			MaxLoad:       emb.MaxLoad,
			Bandwidth:     bw[0],
			PhysicalDepth: emb.MaxPhysicalDepth,
		})
	}

	// SHARP supports at most two concurrent logical trees (§1.1). Emulate
	// its best case — two binomial trees rooted apart — and report the
	// pair's aggregate.
	a, err := logical.Expand(logical.Binomial(inst.N()), rt)
	if err != nil {
		return nil, err
	}
	bTree := logical.Binomial(inst.N())
	// Re-root the second tree at the last vertex by relabelling v ↔ n−1−v.
	n := inst.N()
	rel := &logical.Tree{Root: n - 1, Parent: make([]int, n)}
	for v := 0; v < n; v++ {
		p := bTree.Parent[n-1-v]
		if p == -1 {
			rel.Parent[v] = -1
		} else {
			rel.Parent[v] = n - 1 - p
		}
	}
	b, err := logical.Expand(rel, rt)
	if err != nil {
		return nil, err
	}
	pair := logical.Bandwidth([]*logical.Embedding{a, b}, 1.0)
	rows = append(rows, LogicalTreeRow{
		Shape:         "2×binomial (SHARP cap)",
		MaxLoad:       max(a.MaxLoad, b.MaxLoad),
		Bandwidth:     pair[0] + pair[1],
		PhysicalDepth: max(a.MaxPhysicalDepth, b.MaxPhysicalDepth),
	})
	return rows, nil
}

// ResourceComparison computes the router-resource table for all available
// embeddings of q.
func ResourceComparison(q int) ([]ResourceRow, error) {
	inst, err := NewInstance(q)
	if err != nil {
		return nil, err
	}
	embeds, err := inst.EmbedAll(ComparisonKinds(q))
	if err != nil {
		return nil, err
	}
	var rows []ResourceRow
	for _, e := range embeds {
		states := trees.ReductionStatesPerRouter(e.Forest, inst.N())
		maxStates := 0
		for _, s := range states {
			if s > maxStates {
				maxStates = s
			}
		}
		rows = append(rows, ResourceRow{
			Kind:               e.Kind,
			VCsPerLink:         trees.VCRequirement(e.Forest),
			ReductionsPerPort:  trees.MaxReductionsPerInputPort(e.Forest),
			MaxStatesPerRouter: maxStates,
		})
	}
	return rows, nil
}
