package critpath

import (
	"sync"
	"testing"

	"polarfly/internal/core"
	"polarfly/internal/faults"
	"polarfly/internal/netsim"
	"polarfly/internal/workload"
)

// observeTrace is the benchmark's recorded input: the full trace of a
// q=11 m=1024 low-depth allreduce with the worst-case link down at cycle
// 100 (the critpath gate's faulted half at the benchmark workload's
// size), its cycle count and the config it ran under.
var observeTrace struct {
	once   sync.Once
	events []netsim.TraceEvent
	cycles int
	cfg    netsim.Config
	err    error
}

func recordObserveTrace() {
	tr := &observeTrace
	inst, err := core.NewInstance(11)
	if err != nil {
		tr.err = err
		return
	}
	e, err := inst.Embed(core.LowDepth)
	if err != nil {
		tr.err = err
		return
	}
	link, _, err := core.WorstCaseLink(e)
	if err != nil {
		tr.err = err
		return
	}
	tr.cfg = netsim.Config{LinkLatency: 1, VCDepth: 4, Faults: &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.LinkDown, U: link[0], V: link[1], At: 100}}}}
	cfg := tr.cfg
	cfg.Trace = func(ev netsim.TraceEvent) { tr.events = append(tr.events, ev) }
	res, err := inst.Allreduce(e, workload.Vectors(inst.N(), 1024, 1000, core.DefaultSeed), cfg)
	if err != nil {
		tr.err = err
		return
	}
	tr.cycles = res.Cycles
}

// BenchmarkBuilderObserve measures the critpath layer on its own: a
// fresh Builder indexes a recorded faulted q=11 trace event by event and
// Analyze walks the critical path. ns/event is the whole operation's
// time over the trace's event count; allocs/op counts both stages.
func BenchmarkBuilderObserve(b *testing.B) {
	observeTrace.once.Do(recordObserveTrace)
	tr := &observeTrace
	if tr.err != nil {
		b.Fatal(tr.err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld := NewBuilder()
		cfg := tr.cfg
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
