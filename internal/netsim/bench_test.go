package netsim

import (
	"testing"

	"polarfly/internal/bandwidth"
	"polarfly/internal/er"
	"polarfly/internal/faults"
	"polarfly/internal/singer"
	"polarfly/internal/trees"
)

// benchSpec prepares a PolarFly allreduce spec outside the timed loop.
// It accepts testing.TB so the engine-differential tests can reuse it.
func benchSpec(b testing.TB, q, m int, kind string) Spec {
	b.Helper()
	pg, err := er.New(q)
	if err != nil {
		b.Fatal(err)
	}
	var forest []*trees.Tree
	topo := pg.G
	switch kind {
	case "single":
		tr, err := trees.SingleTreeBaseline(pg.G, 0)
		if err != nil {
			b.Fatal(err)
		}
		forest = []*trees.Tree{tr}
	case "lowdepth":
		l, err := er.NewLayout(pg, -1)
		if err != nil {
			b.Fatal(err)
		}
		forest, err = trees.LowDepthForest(l)
		if err != nil {
			b.Fatal(err)
		}
	case "hamiltonian":
		s, err := singer.New(q)
		if err != nil {
			b.Fatal(err)
		}
		forest, err = trees.HamiltonianForest(s, 30, 42)
		if err != nil {
			b.Fatal(err)
		}
		topo = s.Topology()
	}
	wf := bandwidth.ForForest(forest, 1.0)
	split, err := bandwidth.SubvectorSplit(m, wf.PerTree)
	if err != nil {
		b.Fatal(err)
	}
	return Spec{Topology: topo, Forest: forest, Split: split, Inputs: randInputs(topo.N(), m, 1)}
}

// hotLoopCfg is the fabric point shared by the hot-loop benchmarks: deep
// enough links that the credit loop matters, small enough buffers that
// arbitration and stalls are exercised.
func hotLoopCfg() Config { return Config{LinkLatency: 5, VCDepth: 8} }

// BenchmarkHotLoop times one full Allreduce (construction, advance loop
// and finalization) on the visit-all policy at the largest swept design
// point (q=11, N=133), with a vector long enough that steady-state
// streaming dominates pipeline fill. ns/op and allocs/op are the
// regression-gated signals, compared against BENCH_netsim.json.
func BenchmarkHotLoop(b *testing.B) {
	for _, kind := range []string{"single", "lowdepth", "hamiltonian"} {
		spec := benchSpec(b, 11, 8192, kind)
		b.Run("q=11/"+kind, func(b *testing.B) {
			cfg := hotLoopCfg()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Run(spec, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Cycles), "simcycles")
			}
		})
	}
}

// benchAdvance times the advance loop alone under one policy: simulator
// construction and result finalization run outside the timer, so
// allocs/op measures exactly what the hotalloc analyzer proves about
// advance's call graph. It reports the simulated cycles and the advance
// loop's time per transmitted flit (ns/flit), the per-flit cost that
// compares across fabric sizes.
func benchAdvance(b *testing.B, spec Spec, cfg Config) {
	b.ReportAllocs()
	flits := 0
	defer func() {
		if flits > 0 {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(flits), "ns/flit")
		}
	}()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := newSim(spec, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		now, err := s.advance()
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.finalize(now)
		if err != nil {
			b.Fatal(err)
		}
		flits += res.FlitsSent
		b.ReportMetric(float64(res.Cycles), "simcycles")
		b.StartTimer()
	}
}

// BenchmarkCycleLoop times the advance loop on the visit-all policy
// (EngineCycle) at the q=11 hot-loop points. The benchreport hotcheck
// gate asserts it stays ≤ 1 alloc/op, the measured witness for that
// policy of the one //lint:hotpath root.
func BenchmarkCycleLoop(b *testing.B) {
	for _, kind := range []string{"single", "lowdepth", "hamiltonian"} {
		spec := benchSpec(b, 11, 8192, kind)
		b.Run("q=11/"+kind, func(b *testing.B) {
			benchAdvance(b, spec, hotLoopCfg())
		})
	}
}

// BenchmarkEventLoop times the advance loop on the wake-set policy
// (EngineEvent) at the same q=11 points as BenchmarkCycleLoop; hotcheck
// gates it at ≤ 1 alloc/op as the witness for the other policy.
func BenchmarkEventLoop(b *testing.B) {
	for _, kind := range []string{"single", "lowdepth", "hamiltonian"} {
		spec := benchSpec(b, 11, 8192, kind)
		b.Run("q=11/"+kind, func(b *testing.B) {
			cfg := hotLoopCfg()
			cfg.Engine = EngineEvent
			benchAdvance(b, spec, cfg)
		})
	}
}

// BenchmarkEngineScale times the advance loop at q=31 (N=993) under both
// policies at two fabric points. q=31/engine=* is the cycle-vs-event
// headline: the Hamiltonian forest with deep pipelines and one short flow
// per directed link, so most links idle most cycles; the visit-all policy
// still visits every link every cycle, the wake-set policy only the
// active ones. q=31/lowdepth/engine=* is the repository benchmark's
// sim-q31 fabric (low-depth forest, m=1024, LinkLatency 1, VCDepth 4),
// where every link is busy and ns/flit is the per-flit cost at scale.
// q=31/faulted/engine=event is the headline point under a fault plan
// whose one LinkDown is scheduled after the run's last cycle (10176), so
// it never fires: its gap to q=31/engine=event is what a fault plan alone
// costs. The committed BENCH_netsim-event.json records all five
// subbenches, and CI's compare gate fails if the wake-set policy's
// advantage evaporates.
func BenchmarkEngineScale(b *testing.B) {
	ham := benchSpec(b, 31, 4096, "hamiltonian")
	points := []struct {
		name string
		spec Spec
		cfg  Config
	}{
		{"q=31", ham, Config{LinkLatency: 10, VCDepth: 16}},
		{"q=31/lowdepth", benchSpec(b, 31, 1024, "lowdepth"), Config{LinkLatency: 1, VCDepth: 4}},
	}
	for _, pt := range points {
		for _, engine := range []Engine{EngineCycle, EngineEvent} {
			cfg := pt.cfg
			cfg.Engine = engine
			b.Run(pt.name+"/engine="+engine.String(), func(b *testing.B) {
				benchAdvance(b, pt.spec, cfg)
			})
		}
	}
	link := firstTreeLink(ham, 0)
	faulted := Config{LinkLatency: 10, VCDepth: 16, Engine: EngineEvent, Faults: &faults.Plan{
		Faults: []faults.Fault{{Kind: faults.LinkDown, U: link[0], V: link[1], At: 100000}}}}
	b.Run("q=31/faulted/engine=event", func(b *testing.B) {
		benchAdvance(b, ham, faulted)
	})
}

// BenchmarkHotLoopFaulted measures the faulted hot path at q=11: the
// per-cycle fault-plan checks, one mid-run link-down, loss detection from
// the loss list, and the recovery re-issue. The single-tree baseline is
// excluded — any link failure kills its only tree and the run aborts.
func BenchmarkHotLoopFaulted(b *testing.B) {
	for _, kind := range []string{"lowdepth", "hamiltonian"} {
		spec := benchSpec(b, 11, 8192, kind)
		// Fail the first edge of tree 0 mid-reduction: deterministic, and
		// guaranteed to cross at least one tree so recovery really runs.
		var u, v int
		for w, p := range spec.Forest[0].Parent {
			if p >= 0 {
				u, v = w, p
				break
			}
		}
		plan := &faults.Plan{Faults: []faults.Fault{
			{Kind: faults.LinkDown, U: u, V: v, At: 400},
		}}
		b.Run("q=11/"+kind, func(b *testing.B) {
			cfg := hotLoopCfg()
			cfg.Faults = plan
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Run(spec, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Recoveries) == 0 {
					b.Fatal("faulted benchmark performed no recovery")
				}
				b.ReportMetric(float64(res.Cycles), "simcycles")
			}
		})
	}
}
