package tsdb

import (
	"testing"

	"polarfly/internal/bandwidth"
	"polarfly/internal/er"
	"polarfly/internal/netsim"
	"polarfly/internal/singer"
	"polarfly/internal/trees"
	"polarfly/internal/workload"
)

// benchSpec mirrors internal/netsim's hot-loop benchmark spec exactly
// (same q, m, embeddings, fabric config), so BenchmarkHotLoopSampled
// measures the sampler at the point netsim.BenchmarkHotLoop times.
func benchSpec(b *testing.B, q, m int, kind string) netsim.Spec {
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
	return netsim.Spec{Topology: topo, Forest: forest, Split: split,
		Inputs: workload.Vectors(topo.N(), m, 100, 1)}
}

// BenchmarkAnalyzerWindow isolates the per-window ingest path — one
// Sample call closing one base window, observed by an attached Analyzer —
// on synthetic frames, with the one-time init outside the timer. This is
// the path the hotalloc analyzer proves allocation-free (Sample and
// observe roots); allocs/op must stay at 0 in steady state. Before the
// slot-backed hotspot ring it paid one make([]Hotspot) per window.
func BenchmarkAnalyzerWindow(b *testing.B) {
	const nlinks = 512
	s := newSampler(b, Config{SampleEvery: 64})
	NewAnalyzer(s, AnalyzerConfig{TopK: 3})
	fr := &netsim.SampleFrame{Links: make([]netsim.LinkCounters, nlinks)}
	for i := range fr.Links {
		fr.Links[i].From = i
		fr.Links[i].To = i + 1
	}
	s.Sample(fr) // first frame: allocates all storage
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr.Cycle += 64
		for j := range fr.Links {
			fr.Links[j].Flits += j % 7
		}
		fr.Run.FlitsSent += nlinks
		fr.Run.Delivered += nlinks / 2
		s.Sample(fr)
	}
}

// BenchmarkHotLoopSampled measures what the telemetry sampler costs at
// netsim.BenchmarkHotLoop's design point (q=11, m=8192, LinkLatency 5,
// VCDepth 8). Each iteration runs the same spec twice, once unsampled and
// once with a Sampler consuming every frame at the default 64-cycle
// window into the default 3×64-window rings, swapping which goes first
// on every iteration, and the benchmark reports the mean time of each as
// base-ns/op and sampled-ns/op. Timing both inside one iteration keeps
// host drift out of their ratio; the perf overhead gate reads the two
// metrics from each benchmark line and fails if sampling costs more than
// 5%.
func BenchmarkHotLoopSampled(b *testing.B) {
	for _, kind := range []string{"single", "lowdepth", "hamiltonian"} {
		spec := benchSpec(b, 11, 8192, kind)
		b.Run("q=11/"+kind, func(b *testing.B) {
			base := netsim.Config{LinkLatency: 5, VCDepth: 8}
			s := newSampler(b, Config{SampleEvery: 64})
			sampled := base
			sampled.SampleEvery = 64
			sampled.Sample = s.Sample
			var baseNs, sampledNs int64
			run := func(cfg netsim.Config, ns *int64) *netsim.Result {
				start := b.Elapsed()
				res, err := netsim.Run(spec, cfg)
				*ns += int64(b.Elapsed() - start)
				if err != nil {
					b.Fatal(err)
				}
				return res
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%2 == 1 {
					run(base, &baseNs)
				}
				s.Reset()
				res := run(sampled, &sampledNs)
				if !s.Finished() {
					b.Fatal("sampler missed the final frame")
				}
				if i%2 == 0 {
					run(base, &baseNs)
				}
				b.ReportMetric(float64(res.Cycles), "simcycles")
			}
			b.ReportMetric(float64(baseNs)/float64(b.N), "base-ns/op")
			b.ReportMetric(float64(sampledNs)/float64(b.N), "sampled-ns/op")
		})
	}
}
