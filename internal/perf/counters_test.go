package perf

import (
	"fmt"
	"reflect"
	"testing"

	"polarfly/internal/core"
	"polarfly/internal/faults"
	"polarfly/internal/netsim"
	"polarfly/internal/obsv"
	"polarfly/internal/tsdb"
	"polarfly/internal/workload"
)

// The gates read link utilization, congestion, the phase split and
// recovery latency from the simulator's counters. These tests pin every
// such field to the value an obsv collector computes from the full trace
// of the same run, on the design points the gates sweep.

var counterKinds = []core.EmbeddingKind{core.SingleTree, core.LowDepth, core.Hamiltonian}

// collectorRun simulates one design point with a metrics-only obsv
// collector attached and returns the run and the collector's report.
func collectorRun(t *testing.T, q int, kind core.EmbeddingKind, m int, cfg netsim.Config) (*core.Embedding, *core.AllreduceResult, *obsv.Report, error) {
	t.Helper()
	inst, err := core.NewInstance(q)
	if err != nil {
		t.Fatal(err)
	}
	e, err := inst.Embed(kind)
	if err != nil {
		t.Fatal(err)
	}
	col := obsv.NewCollector()
	col.DisableSpans = true
	col.Attach(&cfg)
	res, err := inst.Allreduce(e, workload.Vectors(inst.N(), m, 1000, core.DefaultSeed), cfg)
	if err != nil {
		return e, nil, nil, err
	}
	col.SetCycles(res.Cycles)
	return e, res, col.Report(), nil
}

// TestScorePointMatchesCollector: on fault-free runs at q ∈ {3,5,7,11},
// every ScorePoint field equals what the collector reports for the same
// run.
func TestScorePointMatchesCollector(t *testing.T) {
	for _, m := range []int{1024, 16384} {
		for _, q := range []int{3, 5, 7, 11} {
			for _, kind := range counterKinds {
				cfg := DefaultScorecardConfig()
				cfg.M = m
				got, err := scorePoint(cfg, q, kind)
				if err != nil {
					t.Fatal(err)
				}
				_, res, rep, err := collectorRun(t, q, kind, m,
					netsim.Config{LinkLatency: cfg.LinkLatency, VCDepth: cfg.VCDepth})
				if err != nil {
					t.Fatal(err)
				}
				if res.Cycles != got.Cycles {
					t.Fatalf("q=%d %v m=%d: traced run took %d cycles, untraced %d", q, kind, m, res.Cycles, got.Cycles)
				}
				want := got
				want.MaxLinkUtil = rep.MaxLinkUtilization
				want.UtilRelErr = 0
				if want.ModelMaxLinkUtil > 0 {
					want.UtilRelErr = (want.MaxLinkUtil - want.ModelMaxLinkUtil) / want.ModelMaxLinkUtil
				}
				want.MaxEdgeCongestion = rep.MaxEdgeCongestion
				want.SharedDirectedLinks = rep.SharedDirectedLinks
				want.ReducePhaseCycles = rep.ReducePhaseCycles
				want.BcastPhaseCycles = rep.BcastPhaseCycles
				if got != want {
					t.Errorf("q=%d %v m=%d: counters and collector disagree\ncounters:  %+v\ncollector: %+v", q, kind, m, got, want)
				}
			}
		}
	}
}

// collectorCritFields fills the CritPathPoint fields the gate derives
// from counters the way it computed them from the collector's report,
// given the point's own path (TopSerialization, RecoveryRounds).
func collectorCritFields(pt CritPathPoint, rep *obsv.Report) CritPathPoint {
	want := pt
	want.MaxUtilLink, want.TopLinkIsHottest = nil, false
	want.MeasuredRecoveryCycles, want.TraversedRecoveryCycles = 0, 0
	want.MaxLinkUtilization = rep.MaxLinkUtilization
	hot := rep.MaxLinkUtilization * (1 - 1e-9)
	for _, lr := range rep.Links {
		if lr.Utilization >= hot {
			want.MaxUtilLink = []int{lr.From, lr.To}
			break
		}
	}
	if top := pt.TopSerialization; len(top) > 0 {
		for _, lr := range rep.Links {
			if lr.From == top[0].From && lr.To == top[0].To {
				want.TopLinkIsHottest = lr.Utilization >= hot
				break
			}
		}
	}
	want.RecoveriesMeasured = len(rep.Recoveries)
	for _, r := range rep.Recoveries {
		want.MeasuredRecoveryCycles += r.LatencyCycles
	}
	for _, ri := range pt.RecoveryRounds {
		if ri < len(rep.Recoveries) {
			want.TraversedRecoveryCycles += rep.Recoveries[ri].LatencyCycles
		}
	}
	return want
}

// collectorGroundTruth is the timeline ground truth as the collector's
// fault and recovery marks give it.
func collectorGroundTruth(rep *obsv.Report) *tsdb.GroundTruth {
	gt := &tsdb.GroundTruth{}
	for _, f := range rep.Faults {
		gt.FaultCycles = append(gt.FaultCycles, f.Cycle)
	}
	for _, r := range rep.Recoveries {
		gt.RecoverCycles = append(gt.RecoverCycles, r.Cycle)
		gt.Latencies = append(gt.Latencies, r.LatencyCycles)
	}
	return gt
}

// checkGroundTruth compares the counter-derived ground truth of a
// one-LinkDown run with the collector's, nil slices included: the
// snapshot JSON tells null from [].
func checkGroundTruth(t *testing.T, id string, res *core.AllreduceResult, faultAt int, rep *obsv.Report) {
	t.Helper()
	got := groundTruth(&tsdb.Snapshot{}, res.Cycles, faultAt, res.Recoveries)
	want := collectorGroundTruth(rep)
	got.Match, want.Match = false, false
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: ground truth from counters %+v, collector %+v", id, got, want)
	}
}

// TestCritPathPointMatchesCollector: with the worst-case link down at
// cycle 100, every CritPathPoint field the gate reads from counters, and
// the timeline ground truth of the same run, equal the collector's.
func TestCritPathPointMatchesCollector(t *testing.T) {
	const m, failAt = 1024, 100
	recovered := 0
	for _, q := range []int{3, 5, 7, 11} {
		for _, kind := range counterKinds {
			cfg := DefaultCritPathConfig()
			cfg.M, cfg.FailAt = m, failAt
			for _, faulted := range []bool{false, true} {
				id := fmt.Sprintf("q=%d %v faulted=%v", q, kind, faulted)
				got, err := critPathPoint(cfg, critJob{q: q, kind: kind, faulted: faulted})
				if err != nil {
					t.Fatal(err)
				}
				if got.AllTreesLost {
					continue
				}
				if got.AnalysisError != "" {
					t.Fatalf("%s: %s", id, got.AnalysisError)
				}
				runCfg := netsim.Config{LinkLatency: cfg.LinkLatency, VCDepth: cfg.VCDepth}
				if faulted {
					runCfg.Faults = &faults.Plan{Faults: []faults.Fault{
						{Kind: faults.LinkDown, U: got.FailedLink[0], V: got.FailedLink[1], At: failAt}}}
				}
				_, res, rep, err := collectorRun(t, q, kind, m, runCfg)
				if err != nil {
					t.Fatal(err)
				}
				if want := collectorCritFields(got, rep); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: counters and collector disagree\ncounters:  %+v\ncollector: %+v", id, got, want)
				}
				if faulted {
					recovered += len(res.Recoveries)
					checkGroundTruth(t, id, res, failAt, rep)
				}
			}
		}
	}
	if recovered == 0 {
		t.Error("no faulted run recovered; the recovery fields compared only zeros")
	}
}

// TestGroundTruthFaultPastTheEnd: a LinkDown scheduled after the run's
// last cycle never activates, so the collector records no fault mark,
// and the derivation must not invent one. Scheduled at the last cycle
// itself it activates, and both sides must agree on what followed.
func TestGroundTruthFaultPastTheEnd(t *testing.T) {
	const q, m = 5, 1024
	for _, kind := range []core.EmbeddingKind{core.LowDepth, core.Hamiltonian} {
		e, probe, _, err := collectorRun(t, q, kind, m, netsim.Config{LinkLatency: 1, VCDepth: 4})
		if err != nil {
			t.Fatal(err)
		}
		link, _, err := core.WorstCaseLink(e)
		if err != nil {
			t.Fatal(err)
		}
		for _, at := range []int{probe.Cycles + 1, probe.Cycles + 500, probe.Cycles} {
			id := fmt.Sprintf("%v fault at %d of %d cycles", kind, at, probe.Cycles)
			_, res, rep, err := collectorRun(t, q, kind, m, netsim.Config{LinkLatency: 1, VCDepth: 4,
				Faults: &faults.Plan{Faults: []faults.Fault{{Kind: faults.LinkDown, U: link[0], V: link[1], At: at}}}})
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if at > probe.Cycles && (len(rep.Faults) != 0 || res.Cycles != probe.Cycles) {
				t.Fatalf("%s: collector saw %d faults over %d cycles, want none over %d",
					id, len(rep.Faults), res.Cycles, probe.Cycles)
			}
			checkGroundTruth(t, id, res, at, rep)
		}
	}
}
