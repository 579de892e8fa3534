package main

import (
	"math"
	"sort"
	"time"

	"polarfly/internal/core"
	"polarfly/internal/netsim"
)

// metric is one reported number as BENCHMARK.json names it. exact marks a
// count of simulated or constructed work: it must repeat bit for bit
// across runs of the same seed, unlike host times.
type metric struct {
	name, unit string
	exact      bool
}

// endToEnd are the untraced metrics a user of the simulator sees.
var endToEnd = []metric{
	{"wall_s", "s", false},       // median host seconds of one measured operation, probe-scaled
	{"setup_s", "s", false},      // median host seconds of one set-up, probe-scaled
	{"peak_rss_mb", "MB", false}, // peak resident set of the process
}

// perLayer is the ledger of a traced run, named <module>.<quantity>. Times
// are the seconds a traced iteration (set-up plus one operation) spent in
// spans pfbench records around its own calls into that module.
var perLayer = []metric{
	// Construction, embedding and the Algorithm 1 model.
	{"er.new_s", "s", false},
	{"er.layout_s", "s", false},
	{"singer.new_s", "s", false},
	{"trees.single_s", "s", false},
	{"trees.lowdepth_s", "s", false},
	{"trees.hamiltonian_s", "s", false},
	{"trees.edges", "count", true},
	{"bandwidth.waterfill_s", "s", false},
	{"bandwidth.waterfill_calls", "count", true},
	{"bandwidth.split_s", "s", false},
	{"bandwidth.model_cycles_err", "ratio", true},
	{"workload.vectors_s", "s", false},
	{"netsim.expected_s", "s", false},
	// Simulation. run_s excludes attached trace consumers.
	{"netsim.run_s", "s", false},
	{"netsim.runs", "count", true},
	{"netsim.flits", "count", true},
	{"netsim.ns_per_flit", "ns", false},
	{"netsim.arena_mb", "MB", true},
	{"netsim.peak_buffer_flits", "count", true},
	{"netsim.sim_cycles", "cycles", true},
	{"netsim.stall_cycles", "cycles", true},
	{"netsim.delivered_frac", "ratio", true},
	{"netsim.dropped_flits", "count", true},
	{"netsim.recoveries", "count", true},
	// Observation: a consumer's self time is its run minus a bare run of
	// the same spec and config.
	{"obsv.observe_s", "s", false},
	{"obsv.events", "count", true},
	{"obsv.ns_per_event", "ns", false},
	{"obsv.metrics_s", "s", false},
	{"critpath.observe_s", "s", false},
	{"critpath.events", "count", true},
	{"critpath.analyze_s", "s", false},
	{"tsdb.sample_s", "s", false},
	{"tsdb.frames", "count", true},
	{"tsdb.footprint_bytes", "bytes", true},
	{"tsdb.report_s", "s", false},
	// Gates, faults and the worker pool.
	{"perf.scorecard_s", "s", false},
	{"perf.critpath_s", "s", false},
	{"perf.timeline_s", "s", false},
	{"perf.degraded_s", "s", false},
	{"chaos.campaign_s", "s", false},
	{"chaos.runs", "count", true},
	{"chaos.completed", "count", true},
	{"chaos.classified_aborts", "count", true},
	{"chaos.run_p50_ms", "ms", false},
	{"chaos.run_p90_ms", "ms", false},
	{"core.worst_link_s", "s", false},
	{"core.degrade_s", "s", false},
	{"parrun.efficiency", "ratio", false},
	// The benchmark's own health: traced iteration time, reference runs
	// left out, over untraced iteration time, minus one.
	{"trace.overhead_frac", "ratio", false},
}

// ledger records one traced iteration: seconds per span name, counts and
// maxima. A nil *ledger records nothing, so untraced paths pass nil and
// run the same code.
type ledger struct {
	vals map[string]float64
	// ref is the seconds spent in attribution-only reference runs, which
	// the untraced operation does not make.
	ref float64
	// runs holds the seconds of each replayed chaos run.
	runs []float64
}

func newLedger() *ledger { return &ledger{vals: make(map[string]float64)} }

// start opens a span; calling the result closes it and adds its seconds
// to name.
func (l *ledger) start(name string) func() {
	if l == nil {
		return func() {}
	}
	t := time.Now()
	return func() { l.vals[name] += time.Since(t).Seconds() }
}

func (l *ledger) add(name string, v float64) {
	if l != nil {
		l.vals[name] += v
	}
}

func (l *ledger) max(name string, v float64) {
	if l != nil && v > l.vals[name] {
		l.vals[name] = v
	}
}

// sim records a simulation's counters.
func (l *ledger) sim(res *core.AllreduceResult) {
	if l == nil {
		return
	}
	l.add("netsim.runs", 1)
	l.add("netsim.flits", float64(res.FlitsSent))
	l.add("netsim.delivered", float64(res.DeliveredFlits))
	l.add("netsim.sim_cycles", float64(res.Cycles))
	l.add("netsim.dropped_flits", float64(res.DroppedFlits))
	l.add("netsim.recoveries", float64(len(res.Recoveries)))
	for _, ls := range res.LinkStats {
		l.add("netsim.stall_cycles", float64(ls.StallCycles))
	}
	l.max("netsim.arena_mb", float64(res.Arena.TotalBytes)/1e6)
	l.max("netsim.peak_buffer_flits", float64(res.PeakBufferFlits))
}

// countEvents chains a counter in front of cfg's trace hook, which a
// consumer's Attach has installed.
func countEvents(cfg *netsim.Config, n *int) {
	prev := cfg.Trace
	cfg.Trace = func(ev netsim.TraceEvent) {
		*n++
		prev(ev)
	}
}

// seconds runs fn and returns its host time.
func seconds(fn func()) float64 {
	t := time.Now()
	fn()
	return time.Since(t).Seconds()
}

// layerMetrics turns the traced iterations of one run into the per-layer
// metrics: the median of each quantity over the iterations, the ratios
// derived from those medians, and the chaos run-time percentiles over
// every replayed run.
func layerMetrics(ls []*ledger, overhead float64, workers int) map[string]float64 {
	med := func(name string) float64 {
		vs := make([]float64, len(ls))
		for i, l := range ls {
			vs[i] = l.vals[name]
		}
		return median(vs)
	}
	out := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = med(m.name)
	}
	ratio := func(num, den float64) float64 {
		if den <= 0 {
			return 0
		}
		return num / den
	}
	out["netsim.ns_per_flit"] = ratio(1e9*out["netsim.run_s"], out["netsim.flits"])
	out["netsim.delivered_frac"] = ratio(med("netsim.delivered"), out["netsim.flits"])
	out["obsv.ns_per_event"] = ratio(1e9*out["obsv.observe_s"], out["obsv.events"])
	var runs, eff []float64
	for _, l := range ls {
		runs = append(runs, l.runs...)
		total := 0.0
		for _, r := range l.runs {
			total += r
		}
		eff = append(eff, ratio(total, float64(workers)*l.vals["chaos.campaign_s"]))
	}
	out["parrun.efficiency"] = median(eff)
	out["chaos.run_p50_ms"] = 1e3 * quantile(runs, 0.5)
	out["chaos.run_p90_ms"] = 1e3 * quantile(runs, 0.9)
	out["trace.overhead_frac"] = overhead
	return out
}

// median of vs, 0 when empty.
func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quantile is the p-quantile of vs by linear interpolation between order
// statistics, 0 when vs is empty.
func quantile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
