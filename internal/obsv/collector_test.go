package obsv_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"polarfly/internal/core"
	"polarfly/internal/netsim"
	"polarfly/internal/obsv"
	"polarfly/internal/workload"
)

// collectRun executes one embedding on PolarFly q with a collector
// attached and returns the collector, its report, and the sim result.
func collectRun(t *testing.T, q, m int, kind core.EmbeddingKind, cfg netsim.Config) (*obsv.Collector, *obsv.Report, *core.AllreduceResult) {
	t.Helper()
	inst, err := core.NewInstance(q)
	if err != nil {
		t.Fatal(err)
	}
	e, err := inst.Embed(kind)
	if err != nil {
		t.Fatal(err)
	}
	c := obsv.NewCollector()
	c.Attach(&cfg)
	inputs := workload.Vectors(inst.N(), m, 1000, core.DefaultSeed)
	res, err := inst.Allreduce(e, inputs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.SetCycles(res.Cycles)
	return c, c.Report(), res
}

// TestTheorem76CongestionObserved attaches the collector to a q=7
// low-depth run and verifies the measured congestion quantities:
// Theorem 7.6's edge congestion ≤ 2 and Lemma 7.8's opposed reduction
// flows (no (directed link, phase) stream shared by two trees).
func TestTheorem76CongestionObserved(t *testing.T) {
	_, rep, res := collectRun(t, 7, 64, core.LowDepth, netsim.Config{LinkLatency: 4, VCDepth: 8})
	if rep.MaxEdgeCongestion < 1 || rep.MaxEdgeCongestion > 2 {
		t.Errorf("measured max edge congestion %d, Theorem 7.6 bounds it by 2", rep.MaxEdgeCongestion)
	}
	if rep.SharedSamePhaseLinks != 0 {
		t.Errorf("%d (link, phase) streams shared by two trees; Lemma 7.8 forbids same-direction sharing",
			rep.SharedSamePhaseLinks)
	}
	if rep.TotalFlits != res.FlitsSent {
		t.Errorf("collector saw %d flits, simulator sent %d", rep.TotalFlits, res.FlitsSent)
	}
	if rep.MaxLinkUtilization <= 0 || rep.MaxLinkUtilization > 1 {
		t.Errorf("max link utilization %g out of (0, 1]", rep.MaxLinkUtilization)
	}
}

// TestTheorem719ZeroContentionObserved verifies the Hamiltonian forest is
// edge-disjoint in the measured traffic: every undirected link carries
// one tree, and no directed link carries flits from two trees.
func TestTheorem719ZeroContentionObserved(t *testing.T) {
	_, rep, _ := collectRun(t, 7, 64, core.Hamiltonian, netsim.Config{LinkLatency: 4, VCDepth: 8})
	if rep.MaxEdgeCongestion != 1 {
		t.Errorf("measured max edge congestion %d, Theorem 7.19's forest is edge-disjoint", rep.MaxEdgeCongestion)
	}
	if rep.SharedDirectedLinks != 0 {
		t.Errorf("%d directed links carry two trees; want zero shared-link contention", rep.SharedDirectedLinks)
	}
	for _, cell := range rep.Heatmap {
		if len(cell.Trees) != 1 {
			t.Fatalf("heatmap link %d–%d used by trees %v, want exactly one", cell.U, cell.V, cell.Trees)
		}
	}
}

// TestTelemetryDoesNotPerturbSimulation is the acceptance criterion that
// attaching the collector changes no simulation result.
func TestTelemetryDoesNotPerturbSimulation(t *testing.T) {
	inst, err := core.NewInstance(5)
	if err != nil {
		t.Fatal(err)
	}
	e, err := inst.Embed(core.LowDepth)
	if err != nil {
		t.Fatal(err)
	}
	inputs := workload.Vectors(inst.N(), 48, 1000, core.DefaultSeed)
	plain, err := inst.Allreduce(e, inputs, netsim.Config{LinkLatency: 3, VCDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg := netsim.Config{LinkLatency: 3, VCDepth: 4}
	c := obsv.NewCollector()
	c.Attach(&cfg)
	observed, err := inst.Allreduce(e, inputs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cycles != observed.Cycles {
		t.Errorf("collector changed cycle count: %d vs %d", plain.Cycles, observed.Cycles)
	}
	if plain.FlitsSent != observed.FlitsSent {
		t.Errorf("collector changed flits sent: %d vs %d", plain.FlitsSent, observed.FlitsSent)
	}
	for v := range plain.Outputs {
		for k := range plain.Outputs[v] {
			if plain.Outputs[v][k] != observed.Outputs[v][k] {
				t.Fatalf("collector changed output at node %d element %d", v, k)
			}
		}
	}
}

// TestCollectorAgreesWithLinkStats cross-checks the trace-derived
// telemetry against the simulator's own Result.LinkStats counters.
func TestCollectorAgreesWithLinkStats(t *testing.T) {
	spec, cfg := lineSpec(5, 32), netsim.Config{LinkLatency: 6, VCDepth: 2}
	c := obsv.NewCollector()
	c.Attach(&cfg)
	res, err := netsim.Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.SetCycles(res.Cycles)
	rep := c.Report()
	if len(rep.Links) != len(res.LinkStats) {
		t.Fatalf("collector saw %d links, simulator reports %d", len(rep.Links), len(res.LinkStats))
	}
	for i, ls := range res.LinkStats {
		lr := rep.Links[i]
		if lr.From != ls.From || lr.To != ls.To {
			t.Fatalf("link %d order mismatch: collector %d→%d vs sim %d→%d", i, lr.From, lr.To, ls.From, ls.To)
		}
		if lr.Flits != ls.Flits {
			t.Errorf("link %d→%d: collector %d flits, sim %d", ls.From, ls.To, lr.Flits, ls.Flits)
		}
		if lr.StallCycles != ls.StallCycles {
			t.Errorf("link %d→%d: collector %d stall cycles, sim %d", ls.From, ls.To, lr.StallCycles, ls.StallCycles)
		}
		if lr.PeakBufferFlits != ls.PeakBufferFlits {
			t.Errorf("link %d→%d: collector peak buffer %d, sim %d", ls.From, ls.To, lr.PeakBufferFlits, ls.PeakBufferFlits)
		}
		if lr.Utilization != ls.Utilization {
			t.Errorf("link %d→%d: collector utilization %g, sim %g", ls.From, ls.To, lr.Utilization, ls.Utilization)
		}
	}
	// The tight VC window must have produced stalls and a histogram.
	if rep.StallRuns.Count == 0 {
		t.Error("no stall runs recorded under VCDepth 2, latency 6")
	}
}

// TestDisableSpansMetricsIdentical pins the DisableSpans contract: span
// accumulation feeds only the Chrome trace exporter, so turning it off
// (as the perf gates do at q=31 scale, where spans are O(flits)) must
// leave the Metrics registry export and the Report byte-identical —
// including the stall-run histogram, which stays on.
func TestDisableSpansMetricsIdentical(t *testing.T) {
	// VCDepth 2 under latency 6 forces credit stalls, so the stall-run
	// histogram and the stall telemetry paths are exercised on both sides.
	run := func(disable bool) ([]byte, []byte) {
		spec, cfg := lineSpec(5, 32), netsim.Config{LinkLatency: 6, VCDepth: 2}
		c := obsv.NewCollector()
		c.DisableSpans = disable
		c.Attach(&cfg)
		res, err := netsim.Run(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.SetCycles(res.Cycles)
		reg := obsv.NewRegistry()
		rep := c.Metrics(reg)
		if rep.StallRuns.Count == 0 {
			t.Fatal("no stall runs recorded under VCDepth 2, latency 6")
		}
		var mbuf, rbuf bytes.Buffer
		if err := reg.Snapshot().WriteJSON(&mbuf); err != nil {
			t.Fatal(err)
		}
		if err := json.NewEncoder(&rbuf).Encode(rep); err != nil {
			t.Fatal(err)
		}
		return mbuf.Bytes(), rbuf.Bytes()
	}
	withMetrics, withReport := run(false)
	withoutMetrics, withoutReport := run(true)
	if !bytes.Equal(withMetrics, withoutMetrics) {
		t.Error("DisableSpans changed the metrics export")
	}
	if !bytes.Equal(withReport, withoutReport) {
		t.Error("DisableSpans changed the report")
	}
}

func TestMetricsExport(t *testing.T) {
	c, rep, _ := collectRun(t, 3, 16, core.Hamiltonian, netsim.Config{LinkLatency: 2, VCDepth: 4})
	reg := obsv.NewRegistry()
	rep2 := c.Metrics(reg)
	if rep2.TotalFlits != rep.TotalFlits {
		t.Errorf("second report drifted: %d vs %d flits", rep2.TotalFlits, rep.TotalFlits)
	}
	snap := reg.Snapshot()
	if snap.Counters["sim.flits_total"] != int64(rep.TotalFlits) {
		t.Errorf("sim.flits_total = %d, want %d", snap.Counters["sim.flits_total"], rep.TotalFlits)
	}
	if snap.Gauges["sim.max_edge_congestion"] != 1 {
		t.Errorf("sim.max_edge_congestion = %g, want 1 for the Hamiltonian forest",
			snap.Gauges["sim.max_edge_congestion"])
	}
	found := false
	for name := range snap.Gauges {
		if len(name) > 5 && name[:5] == "link." {
			found = true
			break
		}
	}
	if !found {
		t.Error("no per-link metrics exported")
	}
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded obsv.Snapshot
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	var rbuf bytes.Buffer
	if err := json.NewEncoder(&rbuf).Encode(rep); err != nil {
		t.Fatalf("report is not JSON-serialisable: %v", err)
	}
}

// TestUnknownEventKindCounted: an event kind the collector has no switch
// arm for must land in the unknown-events counter — visible in the
// report and, only when nonzero, as the obsv_unknown_events metric — so
// a future netsim event kind cannot be dropped invisibly.
func TestUnknownEventKindCounted(t *testing.T) {
	c := obsv.NewCollector()
	c.Observe(netsim.TraceEvent{Kind: netsim.TraceEventKind(250), Cycle: 7})
	c.Observe(netsim.TraceEvent{Kind: netsim.TraceEventKind(251), Cycle: 9})
	c.Observe(netsim.TraceEvent{Kind: netsim.TraceSend, Cycle: 10, From: 0, To: 1})
	reg := obsv.NewRegistry()
	rep := c.Metrics(reg)
	if rep.UnknownEvents != 2 {
		t.Errorf("UnknownEvents = %d, want 2", rep.UnknownEvents)
	}
	if rep.Events != 3 {
		t.Errorf("Events = %d, want 3 (unknown events still count as events)", rep.Events)
	}
	if got := reg.Snapshot().Counters["obsv_unknown_events"]; got != 2 {
		t.Errorf("obsv_unknown_events = %d, want 2", got)
	}

	// A clean run must not register the counter at all, keeping metric
	// exports byte-identical to before the counter existed.
	clean, _, _ := collectRun(t, 3, 16, core.Hamiltonian, netsim.Config{LinkLatency: 2, VCDepth: 4})
	cleanReg := obsv.NewRegistry()
	if rep := clean.Metrics(cleanReg); rep.UnknownEvents != 0 {
		t.Errorf("clean run UnknownEvents = %d, want 0", rep.UnknownEvents)
	}
	if _, ok := cleanReg.Snapshot().Counters["obsv_unknown_events"]; ok {
		t.Error("clean run registered obsv_unknown_events; it must stay absent when zero")
	}
}

// TestPhaseBreakdown verifies the reduce/broadcast phase split: every
// tree's boundary sits at its root's last compute, the phases tile the
// run, and the run-level split matches the slowest tree.
func TestPhaseBreakdown(t *testing.T) {
	_, rep, res := collectRun(t, 5, 64, core.LowDepth, netsim.Config{LinkLatency: 2, VCDepth: 4})
	if rep.ReducePhaseCycles <= 0 || rep.BcastPhaseCycles <= 0 {
		t.Fatalf("phase split %d/%d, want both positive", rep.ReducePhaseCycles, rep.BcastPhaseCycles)
	}
	if got := rep.ReducePhaseCycles + rep.BcastPhaseCycles; got != res.Cycles {
		t.Errorf("phases sum to %d cycles, run took %d", got, res.Cycles)
	}
	maxReduce := 0
	for _, tr := range rep.Trees {
		if tr.ReduceCycles <= 0 {
			t.Errorf("tree %d: reduce phase %d cycles, want > 0", tr.Tree, tr.ReduceCycles)
		}
		if tr.BcastCycles <= 0 {
			t.Errorf("tree %d: broadcast phase %d cycles, want > 0", tr.Tree, tr.BcastCycles)
		}
		if end := tr.ReduceCycles + tr.BcastCycles; end > res.Cycles {
			t.Errorf("tree %d: phases end at cycle %d, after the run's %d", tr.Tree, end, res.Cycles)
		}
		if tr.ReduceCycles > maxReduce {
			maxReduce = tr.ReduceCycles
		}
	}
	if rep.ReducePhaseCycles != maxReduce {
		t.Errorf("run-level reduce phase %d, slowest tree finished reducing at %d",
			rep.ReducePhaseCycles, maxReduce)
	}
}

// TestPhaseBreakdownMetrics checks the phase split reaches the registry
// export.
func TestPhaseBreakdownMetrics(t *testing.T) {
	c, rep, _ := collectRun(t, 3, 32, core.Hamiltonian, netsim.Config{LinkLatency: 2, VCDepth: 4})
	reg := obsv.NewRegistry()
	c.Metrics(reg)
	snap := reg.Snapshot()
	if got := snap.Gauges["sim.reduce_phase_cycles"]; got != float64(rep.ReducePhaseCycles) {
		t.Errorf("sim.reduce_phase_cycles = %g, want %d", got, rep.ReducePhaseCycles)
	}
	if got := snap.Gauges["sim.bcast_phase_cycles"]; got != float64(rep.BcastPhaseCycles) {
		t.Errorf("sim.bcast_phase_cycles = %g, want %d", got, rep.BcastPhaseCycles)
	}
}
