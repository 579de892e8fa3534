package critpath

import (
	"sync"
	"testing"

	"polarfly/internal/bandwidth"
	"polarfly/internal/core"
	"polarfly/internal/faults"
	"polarfly/internal/netsim"
	"polarfly/internal/workload"
)

// benchSpec is the benchmarks' workload: a q=11 m=1024 low-depth
// allreduce with the worst-case link down at cycle 100 (the critpath
// gate's faulted half at the benchmark workload's size), and the config
// it runs under.
var benchSpec struct {
	once sync.Once
	spec netsim.Spec
	cfg  netsim.Config
	err  error
}

func loadBenchSpec(b *testing.B) (netsim.Spec, netsim.Config) {
	bs := &benchSpec
	bs.once.Do(func() {
		inst, err := core.NewInstance(11)
		if err != nil {
			bs.err = err
			return
		}
		e, err := inst.Embed(core.LowDepth)
		if err != nil {
			bs.err = err
			return
		}
		link, _, err := core.WorstCaseLink(e)
		if err != nil {
			bs.err = err
			return
		}
		const m = 1024
		split, err := bandwidth.SubvectorSplit(m, e.Model.PerTree)
		if err != nil {
			bs.err = err
			return
		}
		bs.spec = netsim.Spec{Topology: e.Topology, Forest: e.Forest, Split: split,
			Inputs: workload.Vectors(inst.N(), m, 1000, core.DefaultSeed)}
		bs.cfg = netsim.Config{LinkLatency: 1, VCDepth: 4, Faults: &faults.Plan{Faults: []faults.Fault{
			{Kind: faults.LinkDown, U: link[0], V: link[1], At: 100}}}}
	})
	if bs.err != nil {
		b.Fatal(bs.err)
	}
	return bs.spec, bs.cfg
}

// observeTrace is BenchmarkBuilderObserve's recorded input: the full
// trace of the benchmark workload and its cycle count.
var observeTrace struct {
	once   sync.Once
	events []netsim.TraceEvent
	cycles int
	err    error
}

// BenchmarkBuilderObserve measures the critpath layer on its own: a
// fresh Builder indexes a recorded faulted q=11 trace event by event and
// Analyze walks the critical path. ns/event is the whole operation's
// time over the trace's event count; allocs/op counts both stages.
func BenchmarkBuilderObserve(b *testing.B) {
	spec, base := loadBenchSpec(b)
	tr := &observeTrace
	tr.once.Do(func() {
		cfg := base
		cfg.Trace = func(ev netsim.TraceEvent) { tr.events = append(tr.events, ev) }
		res, err := netsim.Run(spec, cfg)
		if err != nil {
			tr.err = err
			return
		}
		tr.cycles = res.Cycles
	})
	if tr.err != nil {
		b.Fatal(tr.err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld := NewBuilder()
		cfg := base
		bld.Attach(&cfg)
		for _, ev := range tr.events {
			bld.Observe(ev)
		}
		if _, err := bld.Analyze(tr.cycles); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(tr.events)), "ns/event")
}

// BenchmarkBuilderLive measures the critpath layer where runs pay for
// it: attached to the simulator, sharing its caches, rather than
// replaying a recorded trace. Every iteration runs the benchmark
// workload twice, bare and with a fresh Builder attached (Analyze
// included), swapping which goes first each iteration. bare-ns/op and
// attached-ns/op time the two runs; ns/event is their difference over
// the trace's event count.
func BenchmarkBuilderLive(b *testing.B) {
	spec, base := loadBenchSpec(b)
	events := 0
	counted := base
	counted.Trace = func(netsim.TraceEvent) { events++ }
	if _, err := netsim.Run(spec, counted); err != nil {
		b.Fatal(err)
	}
	var bareNs, attachedNs int64
	bare := func() {
		start := b.Elapsed()
		_, err := netsim.Run(spec, base)
		bareNs += int64(b.Elapsed() - start)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 1 {
			bare()
		}
		start := b.Elapsed()
		bld := NewBuilder()
		cfg := base
		bld.Attach(&cfg)
		res, err := netsim.Run(spec, cfg)
		if err == nil {
			_, err = bld.Analyze(res.Cycles)
		}
		attachedNs += int64(b.Elapsed() - start)
		if err != nil {
			b.Fatal(err)
		}
		if i%2 == 0 {
			bare()
		}
	}
	b.ReportMetric(float64(bareNs)/float64(b.N), "bare-ns/op")
	b.ReportMetric(float64(attachedNs)/float64(b.N), "attached-ns/op")
	b.ReportMetric(float64(attachedNs-bareNs)/float64(b.N)/float64(events), "ns/event")
}
