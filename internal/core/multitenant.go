package core

import (
	"fmt"

	"polarfly/internal/netsim"
	"polarfly/internal/trees"
)

// TenantRow reports one tenant of a shared-fabric experiment.
type TenantRow struct {
	Tenant     int
	Trees      int
	Elements   int
	DoneCycles int
}

// TenantIsolation partitions the edge-disjoint Hamiltonian forest across
// `tenants` concurrent Allreduce jobs, each reducing its own m-element
// vector, and runs them simultaneously on one fabric. Because the trees
// are edge-disjoint, tenants share no links: each finishes as if it ran
// alone on its subset of trees — performance isolation that congested
// embeddings cannot give. Returns per-tenant completion cycles.
func TenantIsolation(q, m, tenants int, cfg netsim.Config, seed int64) ([]TenantRow, error) {
	if tenants < 1 {
		return nil, fmt.Errorf("core: need ≥ 1 tenant")
	}
	inst, err := NewInstance(q)
	if err != nil {
		return nil, err
	}
	forest, err := trees.HamiltonianForest(inst.Singer, DefaultMISTries, seed)
	if err != nil {
		return nil, err
	}
	if tenants > len(forest) {
		return nil, fmt.Errorf("core: %d tenants exceed %d available disjoint trees", tenants, len(forest))
	}

	// Deal trees round-robin to tenants; tenant j's vector occupies its own
	// segment of the concatenated input space.
	treeTenant := make([]int, len(forest))
	treesOf := make([][]int, tenants)
	for i := range forest {
		j := i % tenants
		treeTenant[i] = j
		treesOf[j] = append(treesOf[j], i)
	}
	split := make([]int, len(forest))
	for j := 0; j < tenants; j++ {
		k := len(treesOf[j])
		for idx, ti := range treesOf[j] {
			split[ti] = m / k
			if idx == 0 {
				split[ti] += m - (m/k)*k
			}
		}
	}
	total := 0
	for _, s := range split {
		total += s
	}
	inputs := inst.Inputs(total, seed)
	res, err := netsim.Run(netsim.Spec{
		Topology: inst.Singer.Topology(),
		Forest:   forest,
		Split:    split,
		Inputs:   inputs,
	}, cfg)
	if err != nil {
		return nil, err
	}
	// Verify sums.
	want := netsim.ExpectedOutput(inputs)
	for v := range res.Outputs {
		for k := range want {
			if res.Outputs[v][k] != want[k] {
				return nil, fmt.Errorf("core: tenant experiment wrong at node %d element %d", v, k)
			}
		}
	}
	rows := make([]TenantRow, tenants)
	for j := range rows {
		rows[j] = TenantRow{Tenant: j, Trees: len(treesOf[j]), Elements: m}
	}
	for ti, done := range res.TreeDone {
		j := treeTenant[ti]
		if done > rows[j].DoneCycles {
			rows[j].DoneCycles = done
		}
	}
	return rows, nil
}
