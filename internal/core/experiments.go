package core

import (
	"fmt"

	"polarfly/internal/bandwidth"
	"polarfly/internal/collectives"
	"polarfly/internal/er"
	"polarfly/internal/netsim"
	"polarfly/internal/numtheory"
	"polarfly/internal/parrun"
	"polarfly/internal/singer"
	"polarfly/internal/workload"
)

// This file regenerates the data series behind every table and figure of
// the paper's evaluation. Each function returns typed rows; cmd/figures
// renders them, and the root benchmark suite re-runs them under testing.B.

// Table1Row is one column of Table 1 for a concrete q, measured on the
// constructed graph.
type Table1Row struct {
	Q int
	// Global vertex counts.
	W, V1, V2 int
	// Per-vertex neighbor counts (uniform per class for odd q; verified by
	// the construction): NbrOf[class] = (w, v1, v2) neighbors.
	QuadricNbrs, V1Nbrs, V2Nbrs [3]int
}

// Table1 measures the Table 1 quantities on the constructed ER_q.
// Returns an error if any class has non-uniform neighbor statistics
// (which would contradict the paper for odd q).
func Table1(q int) (*Table1Row, error) {
	pg, err := NewInstance(q)
	if err != nil {
		return nil, err
	}
	row := &Table1Row{Q: q}
	row.W, row.V1, row.V2 = pg.ER.CountByType()
	var have [3]bool
	for v := 0; v < pg.N(); v++ {
		w, v1, v2 := pg.ER.NeighborTypeCounts(v)
		counts := [3]int{w, v1, v2}
		var slot *[3]int
		switch pg.ER.Type(v) {
		case er.Quadric:
			slot = &row.QuadricNbrs
		case er.V1:
			slot = &row.V1Nbrs
		default:
			slot = &row.V2Nbrs
		}
		idx := int(pg.ER.Type(v))
		if !have[idx] {
			*slot = counts
			have[idx] = true
		} else if *slot != counts {
			return nil, fmt.Errorf("core: non-uniform neighbor counts for class %v at vertex %d", pg.ER.Type(v), v)
		}
	}
	return row, nil
}

// Fig2Data is the content of one Figure 2 panel: a Singer difference set
// with its reflection points.
type Fig2Data struct {
	Q, N        int
	D           []int
	Reflections []int
}

// Figure2 regenerates the Figure 2 data for one q (the paper shows q=3 and
// q=4).
func Figure2(q int) (*Fig2Data, error) {
	s, err := singer.New(q)
	if err != nil {
		return nil, err
	}
	return &Fig2Data{Q: q, N: s.N, D: s.D, Reflections: s.ReflectionPoints()}, nil
}

// Table2 regenerates Table 2: all non-Hamiltonian maximal alternating-sum
// paths of S_q (the paper shows q=4).
func Table2(q int) ([]singer.MaximalPathInfo, error) {
	s, err := singer.New(q)
	if err != nil {
		return nil, err
	}
	return s.NonHamiltonianMaximalPaths(), nil
}

// Fig4Data is one Figure 4 panel: a maximal set of edge-disjoint
// Hamiltonian paths with their generating colour pairs.
type Fig4Data struct {
	Q     int
	Pairs []singer.Pair
	Paths [][]int
}

// Figure4 regenerates a maximal edge-disjoint Hamiltonian set for q.
func Figure4(q int, tries int, seed int64) (*Fig4Data, error) {
	s, err := singer.New(q)
	if err != nil {
		return nil, err
	}
	pairs, ok := s.DisjointHamiltonianPairs(s.MaxDisjointUpperBound(), tries, seed)
	if !ok {
		return nil, fmt.Errorf("core: q=%d: incomplete disjoint set (%d found)", q, len(pairs))
	}
	d := &Fig4Data{Q: q, Pairs: pairs}
	for _, p := range pairs {
		d.Paths = append(d.Paths, s.MaximalPath(p))
	}
	return d, nil
}

// Fig5Row is one radix of Figure 5: normalized bandwidths (5a) and tree
// depths (5b) for both solutions.
type Fig5Row struct {
	Q, Radix, N int
	// OptimalBW is (q+1)/2 at unit link bandwidth (Corollary 7.1).
	OptimalBW float64
	// LowDepthBW and HamiltonianBW are aggregate bandwidths at unit link
	// bandwidth; the *Norm fields divide by OptimalBW as Figure 5a plots.
	LowDepthBW, HamiltonianBW     float64
	LowDepthNorm, HamiltonianNorm float64
	// HamTrees is the number of edge-disjoint Hamiltonian paths found
	// (= ⌊(q+1)/2⌋ whenever the §7.3 search succeeds).
	HamTrees int
	// LowDepthDepth (3) and HamiltonianDepth ((N−1)/2) are the Figure 5b
	// series.
	LowDepthDepth, HamiltonianDepth int
	// Constructive reports whether the bandwidths were obtained by
	// actually building the forests and running Algorithm 1 (as opposed to
	// the closed-form values the construction provably attains).
	Constructive bool
}

// Figure5 sweeps radixes [loRadix, hiRadix]. For q ≤ constructiveUpTo the
// low-depth forest is built and measured through Algorithm 1; beyond that
// the proven closed forms are used (the sweep to radix 129 would otherwise
// build multi-million-edge graphs). The Hamiltonian series is always
// obtained by running the §7.3 randomized search on the real difference
// set, exactly as the paper did.
func Figure5(loRadix, hiRadix, constructiveUpTo int, tries int, seed int64) ([]Fig5Row, error) {
	var rows []Fig5Row
	for _, pt := range workload.RadixSweep(loRadix, hiRadix) {
		q := pt.Q
		row := Fig5Row{
			Q: q, Radix: pt.Radix, N: pt.N,
			OptimalBW:        bandwidth.Optimal(q, 1.0),
			LowDepthDepth:    3,
			HamiltonianDepth: (pt.N - 1) / 2,
		}

		// Hamiltonian series: run the paper's search on the real D.
		s, err := singer.New(q)
		if err != nil {
			return nil, err
		}
		pairs, ok := s.DisjointHamiltonianPairs(s.MaxDisjointUpperBound(), tries, seed)
		if !ok {
			return nil, fmt.Errorf("core: q=%d: only %d disjoint Hamiltonian paths found", q, len(pairs))
		}
		row.HamTrees = len(pairs)
		row.HamiltonianBW = bandwidth.HamiltonianBound(len(pairs), 1.0)

		// Low-depth series.
		if q%2 == 1 && q <= constructiveUpTo {
			inst, err := NewInstance(q)
			if err != nil {
				return nil, err
			}
			e, err := inst.Embed(LowDepth)
			if err != nil {
				return nil, err
			}
			row.LowDepthBW = e.Model.Aggregate
			row.Constructive = true
		} else {
			row.LowDepthBW = bandwidth.LowDepthBound(q, 1.0)
		}

		row.LowDepthNorm = row.LowDepthBW / row.OptimalBW
		row.HamiltonianNorm = row.HamiltonianBW / row.OptimalBW
		rows = append(rows, row)
	}
	return rows, nil
}

// SimRow compares the three embeddings end-to-end in the cycle simulator
// for one (q, m) point — the data behind the headline claim that multiple
// trees boost Allreduce bandwidth by ~radix/2 over a single tree.
type SimRow struct {
	Q, M          int
	Kind          EmbeddingKind
	ModelBW       float64 // Algorithm 1 aggregate, elements/cycle
	MeasuredBW    float64 // m / simulated cycles
	Cycles        int
	MaxDepth      int
	MaxCongestion int
	SpeedupVsOne  float64 // single-tree cycles / this embedding's cycles
	// MaxLinkUtil is the measured utilization of the hottest directed
	// link; ModelMaxLinkUtil is the Algorithm 1 bottleneck prediction
	// (1.0 on a waterfilled forest). UtilRelErr is their explicit
	// relative error (measured − model)/model, so readers and the perf
	// scorecard get the model-accuracy number directly instead of
	// diffing two absolute columns.
	MaxLinkUtil      float64
	ModelMaxLinkUtil float64
	UtilRelErr       float64
	// ReduceCycles is the cycle the slowest tree's root finished
	// reducing; BcastCycles is the remainder of the run. The split
	// attributes measured-vs-model error to a phase.
	ReduceCycles int
	BcastCycles  int
	// MaxLinkTrees is the most trees with a flow on one directed link at
	// the end of the run (LinkStat.Trees) and SharedLinks the number of
	// directed links carrying two or more. A recovery's aborted trees
	// drop out; on a fault-free run every tree crossing the link counts,
	// even one whose split is zero (possible only when m is below the
	// tree count). An allreduce tree has a flow in both directions of a
	// link it crosses, so the directed maximum is the undirected one.
	MaxLinkTrees int
	SharedLinks  int
	// Arena is the simulator's construction-time memory footprint for
	// this embedding's run (netsim.Result.Arena), so scale sweeps can
	// gate on a deterministic per-run memory ceiling.
	Arena netsim.ArenaFootprint
}

// ComparisonKinds is the embedding sweep SimulationComparison runs for
// one q: all three embeddings, minus LowDepth for even q (the paper's
// layout needs odd q).
func ComparisonKinds(q int) []EmbeddingKind {
	if q%2 == 0 {
		return []EmbeddingKind{SingleTree, Hamiltonian}
	}
	return []EmbeddingKind{SingleTree, LowDepth, Hamiltonian}
}

// SimulationComparison runs all three embeddings (two for even q) on the
// same inputs and fabric configuration, serially.
func SimulationComparison(q, m int, cfg netsim.Config, seed int64) ([]SimRow, error) {
	return SimulationSweep(q, m, cfg, seed, 1, nil, nil)
}

// SimulationSweep runs the embeddings in kinds on the same inputs and
// fabric configuration: kinds == nil means the full ComparisonKinds
// sweep, anything else restricts the runs (e.g. hamiltonian-only at
// q=127, where building every embedding would dominate a smoke test).
// When SingleTree is not in the list the SpeedupVsOne column stays zero —
// there is no baseline to normalise against.
//
// The embeddings are built serially in kinds order and prep (optional)
// customises each run's config — attach a trace collector, a telemetry
// sampler, a fault plan — with the embedding in hand for model-derived
// wiring. The simulations then run on a parrun pool of the given size (1
// forces serial, <1 means GOMAXPROCS). Because prep runs before the pool
// dispatches and each run only touches its own config, per-kind consumers
// need no synchronisation, and the ordered commit keeps the rows — and
// anything prep wired up — byte-identical to a serial sweep.
func SimulationSweep(q, m int, cfg netsim.Config, seed int64, parallel int,
	kinds []EmbeddingKind, prep func(EmbeddingKind, *Embedding, *netsim.Config)) ([]SimRow, error) {
	inst, err := NewInstance(q)
	if err != nil {
		return nil, err
	}
	if kinds == nil {
		kinds = ComparisonKinds(q)
	}
	inputs := inst.Inputs(m, seed)
	want := netsim.ExpectedOutput(inputs)
	embeds, err := inst.EmbedAll(kinds)
	if err != nil {
		return nil, err
	}
	cfgs := make([]netsim.Config, len(kinds))
	for i, kind := range kinds {
		cfgs[i] = cfg
		if prep != nil {
			prep(kind, embeds[i], &cfgs[i])
		}
	}
	rows, err := parrun.Map(parallel, len(kinds), func(i int) (SimRow, error) {
		res, err := inst.Allreduce(embeds[i], inputs, cfgs[i])
		if err != nil {
			return SimRow{}, err
		}
		if err := CheckOutputs(kinds[i], res, want); err != nil {
			return SimRow{}, err
		}
		return NewSimRow(q, m, embeds[i], res), nil
	})
	if err != nil {
		return nil, err
	}
	// Speedups need the single-tree cycle count, so they land after the
	// pool's barrier; SingleTree is always part of the sweep.
	singleCycles := 0
	for i, kind := range kinds {
		if kind == SingleTree {
			singleCycles = rows[i].Cycles
		}
	}
	for i := range rows {
		if singleCycles > 0 {
			rows[i].SpeedupVsOne = float64(singleCycles) / float64(rows[i].Cycles)
		}
	}
	return rows, nil
}

// CheckOutputs verifies a run's numerical correctness: every node's
// output must equal want, the element-wise sum of the run's inputs
// (netsim.ExpectedOutput). The error names the first wrong element.
func CheckOutputs(kind EmbeddingKind, res *AllreduceResult, want []int64) error {
	for v := range res.Outputs {
		for k := range want {
			if res.Outputs[v][k] != want[k] {
				return fmt.Errorf("core: %v: wrong sum at node %d element %d", kind, v, k)
			}
		}
	}
	return nil
}

// NewSimRow reduces one completed run of e to its comparison row: the
// measured bandwidth, the hottest link against the model's, the trees
// per link and the reduce/broadcast phase split, all from the counters
// the simulator keeps. SpeedupVsOne needs the single-tree run and is
// left zero.
func NewSimRow(q, m int, e *Embedding, res *AllreduceResult) SimRow {
	row := SimRow{
		Q: q, M: m, Kind: e.Kind,
		ModelBW:          e.Model.Aggregate,
		MeasuredBW:       float64(m) / float64(res.Cycles),
		Cycles:           res.Cycles,
		MaxDepth:         e.MaxDepth,
		MaxCongestion:    e.Model.MaxCongestion,
		ModelMaxLinkUtil: e.ModelMaxLinkLoad(),
		Arena:            res.Arena,
	}
	for _, ls := range res.LinkStats {
		row.MaxLinkUtil = max(row.MaxLinkUtil, ls.Utilization)
		row.MaxLinkTrees = max(row.MaxLinkTrees, ls.Trees)
		if ls.Trees >= 2 {
			row.SharedLinks++
		}
	}
	for _, c := range res.TreeReduceDone {
		row.ReduceCycles = max(row.ReduceCycles, c)
	}
	row.BcastCycles = max(res.Cycles-row.ReduceCycles, 0)
	if row.ModelMaxLinkUtil > 0 {
		row.UtilRelErr = (row.MaxLinkUtil - row.ModelMaxLinkUtil) / row.ModelMaxLinkUtil
	}
	return row
}

// HostRow compares one host-based baseline against the in-network result.
type HostRow struct {
	Algorithm string
	Time      float64
	Rounds    int
}

// HostComparison runs the three host-based Allreduce baselines on ER_q
// with the given fabric cost parameters and vector length.
func HostComparison(q, m int, alpha, perHop, linkBW float64, seed int64) ([]HostRow, error) {
	inst, err := NewInstance(q)
	if err != nil {
		return nil, err
	}
	f := collectives.NewFabric(inst.ER.G, alpha, perHop, linkBW)
	inputs := workload.Vectors(inst.N(), m, 100, seed)
	runs := []struct {
		name string
		fn   func([][]int64) (*collectives.Outcome, error)
	}{
		{"ring", f.RingAllreduce},
		{"recursive-doubling", f.RecursiveDoubling},
		{"rabenseifner", f.Rabenseifner},
	}
	var rows []HostRow
	for _, r := range runs {
		out, err := r.fn(inputs)
		if err != nil {
			return nil, err
		}
		rows = append(rows, HostRow{Algorithm: r.name, Time: out.Time, Rounds: out.Rounds})
	}
	return rows, nil
}

// DisjointSweepRow records the §7.3 verification for one q.
type DisjointSweepRow struct {
	Q, Target, Found, TriesUsed int
	Success                     bool
}

// DisjointSweep re-runs the paper's §7.3 experiment: for every prime power
// q in [2, hiQ], search for ⌊(q+1)/2⌋ edge-disjoint Hamiltonian paths with
// up to `tries` random instances, reporting how many tries were needed.
func DisjointSweep(hiQ, tries int, seed int64) ([]DisjointSweepRow, error) {
	var rows []DisjointSweepRow
	for _, q := range numtheory.PrimePowersUpTo(2, hiQ) {
		s, err := singer.New(q)
		if err != nil {
			return nil, err
		}
		target := s.MaxDisjointUpperBound()
		row := DisjointSweepRow{Q: q, Target: target}
		for used := 1; used <= tries; used++ {
			set, ok := s.DisjointHamiltonianPairs(target, used, seed)
			if ok {
				row.Found = len(set)
				row.TriesUsed = used
				row.Success = true
				break
			}
			row.Found = len(set)
			row.TriesUsed = used
		}
		rows = append(rows, row)
	}
	return rows, nil
}
