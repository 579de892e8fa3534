package perf

import (
	"fmt"
	"io"

	"polarfly/internal/bandwidth"
	"polarfly/internal/core"
	"polarfly/internal/faults"
	"polarfly/internal/netsim"
	"polarfly/internal/parrun"
	"polarfly/internal/tsdb"
	"polarfly/internal/workload"
)

// KindTimeline is the Snapshot.Kind of a streaming-telemetry timeline
// sweep (see TimelineConfig).
const KindTimeline = "timeline"

// TimelineConfig parameterises the streaming-telemetry sweep: one
// simulated Allreduce per embedding of one design point, with the tsdb
// sampler and analyzer attached, gated on the bandwidth bounds, the
// fixed-memory footprint, and — when a fault is injected — the analyzer
// reproducing the run's ground-truth fault timing exactly.
type TimelineConfig struct {
	// Q is the PolarFly order and M the Allreduce vector length.
	Q int `json:"q"`
	M int `json:"m"`
	// LinkLatency and VCDepth configure the fabric (latency-1 defaults
	// keep the fill transient small, like the scorecard).
	LinkLatency int `json:"link_latency"`
	VCDepth     int `json:"vc_depth"`
	// SampleEvery, Windows, Levels, and Factor size the tsdb sampler.
	SampleEvery int `json:"sample_every"`
	Windows     int `json:"windows"`
	Levels      int `json:"levels"`
	Factor      int `json:"factor"`
	// Seed drives the workload and the Hamiltonian search.
	Seed int64 `json:"seed"`
	// Tolerance widens the analyzer's bound checks.
	Tolerance float64 `json:"tolerance"`
	// MaxBytes caps the sampler footprint per run; 0 disables the gate.
	MaxBytes int `json:"max_bytes,omitempty"`
	// FaultAt, when > 0, fails the first edge of tree 0 at that cycle on
	// every multi-tree embedding (the single-tree baseline stays
	// fault-free — a link failure kills its only tree) and cross-checks
	// the analyzer's telemetry-derived events against the ground truth
	// the run records: the fault at FaultAt when the run reached that
	// cycle, and every round in Result.Recoveries.
	FaultAt int `json:"fault_at,omitempty"`
	// Parallel is the parrun pool size; excluded from snapshots because
	// the ordered commit makes output independent of it.
	Parallel int `json:"-"`
	// Engine selects the netsim advance strategy; engines are
	// byte-identical, so it is excluded from snapshots.
	Engine netsim.Engine `json:"-"`
}

// DefaultTimelineConfig mirrors the scorecard calibration: latency-1
// links and a vector long enough that steady state dominates, sampled at
// the CLI's default 64-cycle window.
func DefaultTimelineConfig() TimelineConfig {
	return TimelineConfig{
		Q: 7, M: 16384, LinkLatency: 1, VCDepth: 4,
		SampleEvery: 64, Windows: 64, Levels: 3, Factor: 8,
		Seed: core.DefaultSeed, Tolerance: 0.10,
	}
}

// timelineFloor is the embedding's proven aggregate-bandwidth floor.
func timelineFloor(q int, kind core.EmbeddingKind, e *core.Embedding) float64 {
	switch kind {
	case core.SingleTree:
		return 1.0
	case core.LowDepth:
		return bandwidth.LowDepthBound(q, 1.0)
	case core.Hamiltonian:
		return bandwidth.HamiltonianBound(len(e.Forest), 1.0)
	default: // DepthTwo has no proven floor
		return 0
	}
}

// Timeline sweeps every embedding of the design point through a sampled,
// untraced simulation and returns one tsdb snapshot per embedding, in
// sweepKinds order. Each run is independent — sampler and analyzer are
// job-local — so cfg.Parallel of them run on a parrun pool with ordered
// commit keeping the result byte-identical to a serial sweep.
func Timeline(cfg TimelineConfig) ([]*tsdb.Snapshot, error) {
	if cfg.M <= 0 {
		return nil, fmt.Errorf("perf: timeline vector length must be positive, got %d", cfg.M)
	}
	if cfg.SampleEvery < 1 {
		return nil, fmt.Errorf("perf: timeline needs SampleEvery ≥ 1, got %d", cfg.SampleEvery)
	}
	kinds := sweepKinds(cfg.Q)
	return parrun.Map(cfg.Parallel, len(kinds), func(i int) (*tsdb.Snapshot, error) {
		return timelineRun(cfg, kinds[i])
	})
}

// timelineRun simulates one embedding with the telemetry stack attached.
func timelineRun(cfg TimelineConfig, kind core.EmbeddingKind) (*tsdb.Snapshot, error) {
	inst, err := core.NewInstance(cfg.Q)
	if err != nil {
		return nil, err
	}
	e, err := inst.Embed(kind)
	if err != nil {
		return nil, err
	}
	sampler, err := tsdb.New(tsdb.Config{SampleEvery: cfg.SampleEvery,
		Windows: cfg.Windows, Levels: cfg.Levels, Factor: cfg.Factor})
	if err != nil {
		return nil, err
	}
	faulted := cfg.FaultAt > 0 && len(e.Forest) > 1
	analyzer := tsdb.NewAnalyzer(sampler, tsdb.AnalyzerConfig{
		Tolerance: cfg.Tolerance,
		Bounds: tsdb.Bounds{
			Nodes:     inst.N(),
			Aggregate: e.Model.Aggregate,
			Optimal:   bandwidth.Optimal(cfg.Q, 1.0),
			Floor:     timelineFloor(cfg.Q, kind, e),
			FaultFree: !faulted,
		},
		Predicted: core.ModelLinkLoads(e),
	})
	runCfg := netsim.Config{LinkLatency: cfg.LinkLatency, VCDepth: cfg.VCDepth,
		SampleEvery: cfg.SampleEvery, Sample: sampler.Sample, Engine: cfg.Engine}
	if faulted {
		var u, v int
		for w, p := range e.Forest[0].Parent {
			if p >= 0 {
				u, v = w, p
				break
			}
		}
		runCfg.Faults = &faults.Plan{Faults: []faults.Fault{
			{Kind: faults.LinkDown, U: u, V: v, At: cfg.FaultAt},
		}}
	}
	inputs := workload.Vectors(inst.N(), cfg.M, 1000, cfg.Seed)
	res, err := inst.Allreduce(e, inputs, runCfg)
	if err != nil {
		return nil, fmt.Errorf("perf: timeline q=%d %v: %w", cfg.Q, kind, err)
	}
	sn := tsdb.BuildSnapshot(sampler, analyzer, tsdb.SnapshotMeta{
		Q: cfg.Q, Kind: kind.String(), M: cfg.M, Nodes: inst.N(),
		Aggregate: e.Model.Aggregate,
		Optimal:   bandwidth.Optimal(cfg.Q, 1.0),
		Floor:     timelineFloor(cfg.Q, kind, e),
	})
	if faulted {
		sn.GroundTruth = groundTruth(sn, res.Cycles, cfg.FaultAt, res.Recoveries)
	}
	return sn, nil
}

// groundTruth builds the event record of a run whose plan is one
// LinkDown at cycle faultAt, and checks the analyzer's telemetry-derived
// events against it: same fault cycles, same recovery cycles, same
// latency attribution — exactly. The fault activates only if the run
// reached faultAt (cycles 1..cycles are simulated), and every recovery
// round pairs with it.
func groundTruth(sn *tsdb.Snapshot, cycles, faultAt int, recs []netsim.Recovery) *tsdb.GroundTruth {
	gt := &tsdb.GroundTruth{Match: true}
	if faultAt <= cycles {
		gt.FaultCycles = []int{faultAt}
	}
	for _, r := range recs {
		gt.RecoverCycles = append(gt.RecoverCycles, r.Cycle)
	}
	gt.Latencies = recoveryLatencies(recs, faultAt)
	if len(sn.Faults) != len(gt.FaultCycles) || len(sn.Recoveries) != len(gt.RecoverCycles) {
		gt.Match = false
		return gt
	}
	for i, f := range sn.Faults {
		if f.Cycle != gt.FaultCycles[i] {
			gt.Match = false
		}
	}
	for i, r := range sn.Recoveries {
		if r.Cycle != gt.RecoverCycles[i] || r.Latency != gt.Latencies[i] {
			gt.Match = false
		}
	}
	return gt
}

// TimelineFailures lists every way the sweep violates the telemetry
// contract: a run with no points, a bound violation, a sampler footprint
// above the ceiling, or telemetry-derived fault events that disagree
// with the run's ground truth. Empty means the timeline gate passes.
func TimelineFailures(runs []*tsdb.Snapshot, cfg TimelineConfig) []string {
	var fails []string
	for _, sn := range runs {
		id := fmt.Sprintf("q=%d %s", sn.Meta.Q, sn.Meta.Kind)
		if len(sn.Points) == 0 {
			fails = append(fails, id+": timeline has no points")
			continue
		}
		if last := sn.Points[len(sn.Points)-1]; last.End != sn.Cycles {
			fails = append(fails, fmt.Sprintf("%s: timeline ends at cycle %d of %d", id, last.End, sn.Cycles))
		}
		if sn.ViolationCount > 0 {
			v := sn.Violations[0]
			fails = append(fails, fmt.Sprintf("%s: %d bound violation(s), first: %s",
				id, sn.ViolationCount, v.String()))
		}
		if cfg.MaxBytes > 0 && sn.FootprintBytes > cfg.MaxBytes {
			fails = append(fails, fmt.Sprintf("%s: sampler footprint %d bytes exceeds the %d-byte ceiling",
				id, sn.FootprintBytes, cfg.MaxBytes))
		}
		if gt := sn.GroundTruth; gt != nil && !gt.Match {
			fails = append(fails, fmt.Sprintf(
				"%s: telemetry-derived fault events diverge from the run's ground truth (telemetry %d/%d, ground truth %d/%d)",
				id, len(sn.Faults), len(sn.Recoveries), len(gt.FaultCycles), len(gt.RecoverCycles)))
		}
	}
	return fails
}

// WriteTimelineMarkdown renders every run's phase timeline.
func WriteTimelineMarkdown(w io.Writer, s *Snapshot) error {
	if _, err := fmt.Fprintf(w, "# Telemetry timelines — %s\n\n", s.Label); err != nil {
		return err
	}
	for i, sn := range s.Timeline {
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if err := sn.WriteMarkdown(w); err != nil {
			return err
		}
	}
	return nil
}
