package perf

import (
	"fmt"
	"io"

	"polarfly/internal/bandwidth"
	"polarfly/internal/core"
	"polarfly/internal/netsim"
	"polarfly/internal/parrun"
	"polarfly/internal/tsdb"
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

// Timeline sweeps every embedding of the design point through a sampled,
// untraced simulation and returns one tsdb snapshot per embedding, in
// core.ComparisonKinds order. The instance, embeddings and input matrix
// are built once, before the pool starts, and sampler and analyzer are
// job-local, so cfg.Parallel runs share nothing mutable on a parrun pool
// with ordered commit keeping the result byte-identical to a serial sweep.
func Timeline(cfg TimelineConfig) ([]*tsdb.Snapshot, error) {
	if cfg.M <= 0 {
		return nil, fmt.Errorf("perf: timeline vector length must be positive, got %d", cfg.M)
	}
	if cfg.SampleEvery < 1 {
		return nil, fmt.Errorf("perf: timeline needs SampleEvery ≥ 1, got %d", cfg.SampleEvery)
	}
	sweep, err := newSweep([]int{cfg.Q}, cfg.M, cfg.Seed, false)
	if err != nil {
		return nil, err
	}
	sq := sweep[0]
	return parrun.Map(cfg.Parallel, len(sq.embeds), func(i int) (*tsdb.Snapshot, error) {
		return timelineRun(cfg, sq.point(sq.embeds[i], cfg.LinkLatency, cfg.VCDepth, cfg.Engine))
	})
}

// TimelineRig is one run's streaming telemetry: the bounded-memory
// sampler, the analyzer checking its windows against the embedding's
// Algorithm 1 loads and proven floor, and the metadata of the snapshot
// they build.
type TimelineRig struct {
	sampler  *tsdb.Sampler
	analyzer *tsdb.Analyzer
	meta     tsdb.SnapshotMeta
}

// NewTimelineRig builds the telemetry of one run of e at order q and
// vector length m, sized by sc, and wires the sampler into run. faulted
// turns off the fault-free floor check, which a scheduled failure
// legitimately breaks.
func NewTimelineRig(q, m int, e *core.Embedding, sc tsdb.Config, tolerance float64, faulted bool, run *netsim.Config) (*TimelineRig, error) {
	sampler, err := tsdb.New(sc)
	if err != nil {
		return nil, err
	}
	floor, _ := bound(q, e)
	meta := tsdb.SnapshotMeta{
		Q: q, Kind: e.Kind.String(), M: m, Nodes: e.Topology.N(),
		Aggregate: e.Model.Aggregate,
		Optimal:   bandwidth.Optimal(q, 1.0),
		Floor:     floor,
	}
	analyzer := tsdb.NewAnalyzer(sampler, tsdb.AnalyzerConfig{
		Tolerance: tolerance,
		Bounds: tsdb.Bounds{
			Nodes:     meta.Nodes,
			Aggregate: meta.Aggregate,
			Optimal:   meta.Optimal,
			Floor:     floor,
			FaultFree: !faulted,
		},
		Predicted: core.ModelLinkLoads(e),
	})
	run.SampleEvery, run.Sample = sc.SampleEvery, sampler.Sample
	return &TimelineRig{sampler: sampler, analyzer: analyzer, meta: meta}, nil
}

// Snapshot builds the finished run's timeline snapshot.
func (r *TimelineRig) Snapshot() *tsdb.Snapshot {
	return tsdb.BuildSnapshot(r.sampler, r.analyzer, r.meta)
}

// timelineRun simulates one embedding with the telemetry stack attached.
func timelineRun(cfg TimelineConfig, p *designPoint) (*tsdb.Snapshot, error) {
	faulted := cfg.FaultAt > 0 && len(p.e.Forest) > 1
	rig, err := NewTimelineRig(cfg.Q, cfg.M, p.e, tsdb.Config{SampleEvery: cfg.SampleEvery,
		Windows: cfg.Windows, Levels: cfg.Levels, Factor: cfg.Factor}, cfg.Tolerance, faulted, &p.cfg)
	if err != nil {
		return nil, err
	}
	if faulted {
		for w, parent := range p.e.Forest[0].Parent {
			if parent >= 0 {
				p.failLink(w, parent, cfg.FaultAt)
				break
			}
		}
	}
	res, err := p.run()
	if err != nil {
		return nil, err
	}
	sn := rig.Snapshot()
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
