package core

import (
	"fmt"

	"polarfly/internal/netsim"
)

// SteadyStateRow separates an embedding's pipeline-fill latency from its
// sustained rate. The paper reports analytic bandwidths; the simulator's
// raw m/cycles conflates rate with fill time, which penalises deep trees
// (the Hamiltonian forest's depth-(N−1)/2 pipeline). Running two vector
// sizes and differencing recovers both components:
//
//	cycles(m) ≈ Fill + m / Rate
type SteadyStateRow struct {
	Kind EmbeddingKind
	// Rate is the sustained bandwidth in elements/cycle.
	Rate float64
	// Fill is the extrapolated zero-length completion time in cycles
	// (pipeline fill + drain).
	Fill float64
	// ModelBW is the Algorithm 1 aggregate for comparison.
	ModelBW float64
}

// SteadyState measures sustained bandwidth for the given embedding by
// running vector lengths m and 2m and differencing.
func SteadyState(inst *Instance, kind EmbeddingKind, m int, cfg netsim.Config, seed int64) (*SteadyStateRow, error) {
	if m < 2 {
		return nil, fmt.Errorf("core: steady-state needs m ≥ 2")
	}
	e, err := inst.Embed(kind)
	if err != nil {
		return nil, err
	}
	run := func(mm int) (int, error) {
		res, err := inst.Allreduce(e, inst.Inputs(mm, seed), cfg)
		if err != nil {
			return 0, err
		}
		return res.Cycles, nil
	}
	c1, err := run(m)
	if err != nil {
		return nil, err
	}
	c2, err := run(2 * m)
	if err != nil {
		return nil, err
	}
	if c2 <= c1 {
		return nil, fmt.Errorf("core: non-monotone cycle counts %d, %d", c1, c2)
	}
	rate := float64(m) / float64(c2-c1)
	return &SteadyStateRow{
		Kind:    kind,
		Rate:    rate,
		Fill:    float64(c1) - float64(m)/rate,
		ModelBW: e.Model.Aggregate,
	}, nil
}

// SteadyStateComparison measures all available embeddings of q.
func SteadyStateComparison(q, m int, cfg netsim.Config, seed int64) ([]SteadyStateRow, error) {
	inst, err := NewInstance(q)
	if err != nil {
		return nil, err
	}
	var rows []SteadyStateRow
	for _, kind := range ComparisonKinds(q) {
		row, err := SteadyState(inst, kind, m, cfg, seed)
		if err != nil {
			return nil, err
		}
		rows = append(rows, *row)
	}
	return rows, nil
}
