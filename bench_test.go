package polarfly

// This file is the benchmark harness for the paper's evaluation artifacts:
// one benchmark per table and figure (Table 1, Figure 1, Figure 2, Table 2,
// Figure 4, Figures 5a/5b, the §7.3 disjoint-path sweep) plus the headline
// simulated-Allreduce comparison and the host-based baselines. Run with
//
//	go test -bench=. -benchmem
//
// Each benchmark regenerates the corresponding artifact from scratch, so
// ns/op measures the full reproduction cost.

import (
	"fmt"
	"testing"

	"polarfly/internal/bandwidth"
	"polarfly/internal/core"
	"polarfly/internal/er"
	"polarfly/internal/netsim"
	"polarfly/internal/singer"
	"polarfly/internal/workload"
)

// BenchmarkTable1Classification regenerates Table 1 (vertex classes and
// per-class neighborhood counts) for a mid-size design point.
func BenchmarkTable1Classification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		row, err := core.Table1(11)
		if err != nil {
			b.Fatal(err)
		}
		if row.W != 12 {
			b.Fatal("wrong quadric count")
		}
	}
}

// BenchmarkFig1Layout regenerates the Figure 1 layout (q=11 clusters).
func BenchmarkFig1Layout(b *testing.B) {
	pg, err := er.New(11)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := er.NewLayout(pg, -1)
		if err != nil {
			b.Fatal(err)
		}
		if l.NumClusters() != 11 {
			b.Fatal("wrong cluster count")
		}
	}
}

// BenchmarkFig2DifferenceSets regenerates the Figure 2 difference sets.
func BenchmarkFig2DifferenceSets(b *testing.B) {
	for _, q := range []int{3, 4} {
		b.Run(fmt.Sprintf("q=%d", q), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d, err := singer.DifferenceSet(q)
				if err != nil {
					b.Fatal(err)
				}
				if len(d) != q+1 {
					b.Fatal("wrong size")
				}
			}
		})
	}
}

// BenchmarkTable2NonHamiltonianPaths regenerates Table 2 (q=4).
func BenchmarkTable2NonHamiltonianPaths(b *testing.B) {
	s, err := singer.New(4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := s.NonHamiltonianMaximalPaths()
		if len(rows) != 4 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkFig4DisjointHamiltonians regenerates the Figure 4 path sets.
func BenchmarkFig4DisjointHamiltonians(b *testing.B) {
	for _, q := range []int{3, 4} {
		b.Run(fmt.Sprintf("q=%d", q), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d, err := core.Figure4(q, core.DefaultMISTries, core.DefaultSeed)
				if err != nil {
					b.Fatal(err)
				}
				if len(d.Pairs) != 2 {
					b.Fatal("wrong set size")
				}
			}
		})
	}
}

// BenchmarkFig5aBandwidthSweep regenerates the Figure 5a series: normalized
// Allreduce bandwidth of both solutions over the full radix range [3,129],
// running the real §7.3 disjoint-Hamiltonian search at every point.
func BenchmarkFig5aBandwidthSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := core.Figure5(3, 130, 9, core.DefaultMISTries, core.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 44 {
			b.Fatalf("%d sweep points, want 44", len(rows))
		}
	}
}

// BenchmarkFig5bDepthSweep regenerates the Figure 5b depth series.
func BenchmarkFig5bDepthSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := workload.RadixSweep(3, 130)
		for _, pt := range pts {
			if (pt.N-1)/2 < 3 && pt.Q > 2 {
				b.Fatal("depth ordering violated")
			}
		}
	}
}

// BenchmarkSection73DisjointSweep re-runs the §7.3 verification up to q=64
// (the full q<128 sweep runs in the test suite).
func BenchmarkSection73DisjointSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := core.DisjointSweep(64, 30, core.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.Success {
				b.Fatalf("q=%d failed", r.Q)
			}
		}
	}
}

// benchSim runs the headline simulated Allreduce for one embedding.
func benchSim(b *testing.B, kind core.EmbeddingKind, q, m int) {
	inst, err := core.NewInstance(q)
	if err != nil {
		b.Fatal(err)
	}
	e, err := inst.Embed(kind)
	if err != nil {
		b.Fatal(err)
	}
	inputs := workload.Vectors(inst.N(), m, 1000, 42)
	cfg := netsim.Config{LinkLatency: 5, VCDepth: 8}
	b.SetBytes(int64(m) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := inst.Allreduce(e, inputs, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(m)/float64(res.Cycles), "elem/cycle")
	}
}

// BenchmarkSimulatedAllreduce is the headline comparison: the same
// Allreduce under the three embeddings (Figure 5's bandwidth story,
// measured end-to-end in the cycle simulator).
func BenchmarkSimulatedAllreduce(b *testing.B) {
	const q, m = 7, 2048
	b.Run("single-tree", func(b *testing.B) { benchSim(b, core.SingleTree, q, m) })
	b.Run("low-depth", func(b *testing.B) { benchSim(b, core.LowDepth, q, m) })
	b.Run("hamiltonian", func(b *testing.B) { benchSim(b, core.Hamiltonian, q, m) })
}

// BenchmarkHostBaselines runs the host-based algorithms the paper compares
// against (§4.2, §8) on ER_5.
func BenchmarkHostBaselines(b *testing.B) {
	for _, alg := range []string{"ring", "recursive-doubling", "rabenseifner"} {
		b.Run(alg, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := core.HostComparison(5, 2048, 500, 3, 1, 42)
				if err != nil {
					b.Fatal(err)
				}
				_ = rows
			}
		})
	}
}

// modelEmbeddings builds the low-depth and Hamiltonian embeddings of q,
// the forests the Algorithm 1 model benchmarks evaluate.
func modelEmbeddings(b *testing.B, q int) []*core.Embedding {
	b.Helper()
	inst, err := core.NewInstance(q)
	if err != nil {
		b.Fatal(err)
	}
	var out []*core.Embedding
	for _, kind := range []core.EmbeddingKind{core.LowDepth, core.Hamiltonian} {
		e, err := inst.Embed(kind)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, e)
	}
	return out
}

// BenchmarkWaterfill measures the Algorithm 1 model itself on the
// low-depth and Hamiltonian forests at q=11 and at the planning order
// q=37. Run it with make bench-model.
func BenchmarkWaterfill(b *testing.B) {
	for _, q := range []int{11, 37} {
		for _, e := range modelEmbeddings(b, q) {
			b.Run(fmt.Sprintf("q=%d/%v", q, e.Kind), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					r := bandwidth.ForForest(e.Forest, 1.0)
					if r.Aggregate != e.Model.Aggregate {
						b.Fatal("aggregate changed")
					}
				}
			})
		}
	}
}

// BenchmarkEmbed measures the embedding stage of planning: Instance.Embed
// for each forest at q=11 and at the planning order q=37, from tree
// construction through the Algorithm 1 evaluation. Run it with
// make bench-model.
func BenchmarkEmbed(b *testing.B) {
	for _, q := range []int{11, 37} {
		inst, err := core.NewInstance(q)
		if err != nil {
			b.Fatal(err)
		}
		for _, kind := range []core.EmbeddingKind{core.LowDepth, core.Hamiltonian, core.SingleTree} {
			b.Run(fmt.Sprintf("q=%d/%v", q, kind), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := inst.Embed(kind); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkWorstCaseLink measures the single-link worst-case search on the
// q=11 low-depth and Hamiltonian embeddings, the set-up of the degraded
// scorecard and the critical-path sweep's faulted points.
func BenchmarkWorstCaseLink(b *testing.B) {
	for _, e := range modelEmbeddings(b, 11) {
		b.Run(e.Kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, deg, err := core.WorstCaseLink(e); err != nil || deg == nil {
					b.Fatalf("worst case: deg=%v err=%v", deg, err)
				}
			}
		})
	}
}

// BenchmarkPlanConstruction measures end-user plan derivation cost.
func BenchmarkPlanConstruction(b *testing.B) {
	sys, err := New(11)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []Method{LowDepth, Hamiltonian} {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sys.Plan(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationRandomForest quantifies the §3 design choice: random
// spanning trees vs the coordinated Algorithm 3 forest.
func BenchmarkAblationRandomForest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		row, err := core.RandomForestComparison(11, core.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		if row.RandomBW >= row.CoordinatedBW {
			b.Fatal("ablation inverted")
		}
		b.ReportMetric(row.CoordinatedBW/row.RandomBW, "coord/rand")
	}
}

// BenchmarkAblationVCDepth sweeps the credit-loop buffer size (§1.2's
// latency-bandwidth-product memory argument).
func BenchmarkAblationVCDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := core.VCDepthSweep(5, 800, 8, []int{1, 4, 16}, core.LowDepth, core.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[0].Cycles)/float64(rows[len(rows)-1].Cycles), "slowdown@depth1")
	}
}

// BenchmarkAblationEngineRate sweeps the router arithmetic throughput
// (§5.1's multiple-reductions-at-link-rate assumption).
func BenchmarkAblationEngineRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := core.EngineRateSweep(5, 800, 3, []int{1, 0}, core.LowDepth, core.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[0].Cycles)/float64(rows[1].Cycles), "slowdown@rate1")
	}
}

// BenchmarkFailureTolerance measures the single-link worst-case analysis
// across embeddings (the redundancy payoff of multiple trees).
func BenchmarkFailureTolerance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := core.FailureTolerance(7)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatal("unexpected rows")
		}
	}
}

// BenchmarkTopologyComparison regenerates the PolarFly-vs-torus positioning
// table (§1.2/§1.3).
func BenchmarkTopologyComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := core.TopologyComparison(11, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) < 3 {
			b.Fatal("missing rows")
		}
	}
}

// BenchmarkTopologyConstruction measures ER_q generation across scales,
// up to the planning order q=37. Run it with make bench-model.
func BenchmarkTopologyConstruction(b *testing.B) {
	for _, q := range []int{7, 13, 19, 37} {
		b.Run(fmt.Sprintf("q=%d", q), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := er.New(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
