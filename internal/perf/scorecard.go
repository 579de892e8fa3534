package perf

import (
	"fmt"
	"math"

	"polarfly/internal/bandwidth"
	"polarfly/internal/core"
	"polarfly/internal/netsim"
	"polarfly/internal/parrun"
)

// ScorecardConfig parameterises the measured-vs-model sweep.
type ScorecardConfig struct {
	// Qs are the PolarFly orders to sweep (odd prime powers exercise all
	// embeddings; for even q the low-depth point is skipped, matching
	// §6.1.1).
	Qs []int `json:"qs"`
	// M is the Allreduce vector length. The bandwidth regime requires
	// m ≫ pipeline fill, so the default is large; smoke tests shrink it.
	M int `json:"m"`
	// LinkLatency and VCDepth configure the simulated fabric.
	LinkLatency int `json:"link_latency"`
	VCDepth     int `json:"vc_depth"`
	// Seed drives the workload and the Hamiltonian search.
	Seed int64 `json:"seed"`
	// Tolerance is the acceptable relative gap between measurement and
	// model (and between measurement and the theorem floors): pipeline
	// fill/drain keeps measured bandwidth strictly below steady state, so
	// exact bound checks would always fail.
	Tolerance float64 `json:"tolerance"`
	// Parallel is the parrun worker-pool size for the sweep: 1 forces the
	// serial path, <1 means GOMAXPROCS. Results commit in input order
	// either way, so the value never changes the output — it is excluded
	// from snapshots so BENCH_*.json stays byte-identical across runners.
	// It bounds the design points in flight, not the cores: the points run
	// untraced, so netsim.Run simulates a point's independent tree groups
	// (the Hamiltonian paths) on GOMAXPROCS workers of its own.
	Parallel int `json:"-"`
	// Engine selects the netsim advance strategy (cycle-accurate loop or
	// the event-driven cycle-skipping engine). The engines are
	// differentially tested byte-identical, so the choice never changes a
	// point and is excluded from snapshots.
	Engine netsim.Engine `json:"-"`
}

// DefaultScorecardConfig is calibrated so every point lands well inside
// the 10% tolerance on the seed hardware model: latency-1 links keep the
// fill transient small and m=16384 amortises it even for the deep
// Hamiltonian trees at q=11.
func DefaultScorecardConfig() ScorecardConfig {
	return ScorecardConfig{
		Qs:          []int{3, 5, 7, 11},
		M:           16384,
		LinkLatency: 1,
		VCDepth:     4,
		Seed:        core.DefaultSeed,
		Tolerance:   0.10,
	}
}

// Bound names used in ScorePoint.BoundName.
const (
	// BoundThm76 is the Theorem 7.6 floor q·B/2 for the depth-3 forest.
	BoundThm76 = "thm7.6 q·B/2"
	// BoundThm719 is the Theorem 7.19 / Corollary 7.1 optimum
	// ⌊(q+1)/2⌋·B for the edge-disjoint forest.
	BoundThm719 = "thm7.19 (q+1)·B/2"
	// BoundSingleLink is the one-tree baseline's trivial cap of one link
	// bandwidth.
	BoundSingleLink = "single link B"
)

// ScorePoint is one measured-vs-model record: a (q, embedding) design
// point with the Algorithm 1 prediction, the simulated measurement, the
// theorem floor, and the simulator counters that attribute the gap.
type ScorePoint struct {
	Q         int    `json:"q"`
	Embedding string `json:"embedding"`
	Trees     int    `json:"trees"`
	M         int    `json:"m"`
	Cycles    int    `json:"cycles"`
	// ModelBW is the Algorithm 1 aggregate (elements/cycle at unit link
	// bandwidth); MeasuredBW is m divided by simulated cycles; BWRelErr
	// is their relative error (measured − model)/model.
	ModelBW    float64 `json:"model_bw"`
	MeasuredBW float64 `json:"measured_bw"`
	BWRelErr   float64 `json:"bw_rel_err"`
	// Bound is the embedding's proven aggregate-bandwidth floor and
	// BoundName identifies the theorem. MeetsBound is true when
	// MeasuredBW ≥ Bound·(1−Tolerance).
	Bound      float64 `json:"bound"`
	BoundName  string  `json:"bound_name"`
	MeetsBound bool    `json:"meets_bound"`
	// OptimalBW is Corollary 7.1's (q+1)·B/2 ceiling, for normalising.
	OptimalBW float64 `json:"optimal_bw"`
	// Link telemetry from the simulator's per-link counters
	// (Result.LinkStats): hottest measured link vs the waterfill
	// prediction, with the explicit relative error.
	MaxLinkUtil      float64 `json:"max_link_util"`
	ModelMaxLinkUtil float64 `json:"model_max_link_util"`
	UtilRelErr       float64 `json:"util_rel_err"`
	// Congestion structure from LinkStat.Trees (Theorem 7.6 bounds
	// MaxEdgeCongestion by 2 on the low-depth forest; Theorem 7.19 pins
	// it at 1). An allreduce tree crossing a link has a flow in both
	// directions, so the directed maximum is the undirected one.
	MaxEdgeCongestion   int `json:"max_edge_congestion"`
	SharedDirectedLinks int `json:"shared_directed_links"`
	// Phase attribution from Result.TreeReduceDone: cycles until the
	// slowest root finished reducing, and the broadcast tail after it.
	ReducePhaseCycles int `json:"reduce_phase_cycles"`
	BcastPhaseCycles  int `json:"bcast_phase_cycles"`
}

// Scorecard sweeps the configured design points, runs each embedding
// through the cycle simulator, and returns one record per (q, embedding).
// The runs are untraced: the per-link utilization, congestion and phase
// split come from the counters the simulator keeps anyway, and the
// headline bandwidth from the cycle count.
//
// Each q's instance, embeddings and input matrix are built once, before
// the pool starts, and the points only read them, so cfg.Parallel points
// run concurrently on a parrun pool; the ordered commit keeps the
// returned slice (and everything rendered from it) byte-identical to a
// serial sweep.
func Scorecard(cfg ScorecardConfig) ([]ScorePoint, error) {
	if len(cfg.Qs) == 0 {
		return nil, fmt.Errorf("perf: scorecard needs at least one q")
	}
	if cfg.M <= 0 {
		return nil, fmt.Errorf("perf: scorecard vector length must be positive, got %d", cfg.M)
	}
	if cfg.Tolerance < 0 || cfg.Tolerance >= 1 {
		return nil, fmt.Errorf("perf: tolerance %g out of [0, 1)", cfg.Tolerance)
	}
	sweep, err := newSweep(cfg.Qs, cfg.M, cfg.Seed, false)
	if err != nil {
		return nil, err
	}
	var jobs []*designPoint
	for _, sq := range sweep {
		for _, e := range sq.embeds {
			jobs = append(jobs, sq.point(e, cfg.LinkLatency, cfg.VCDepth, cfg.Engine))
		}
	}
	return parrun.Map(cfg.Parallel, len(jobs), func(i int) (ScorePoint, error) {
		return scorePoint(cfg, jobs[i])
	})
}

// scorePoint simulates one design point.
func scorePoint(cfg ScorecardConfig, p *designPoint) (ScorePoint, error) {
	res, err := p.run()
	if err != nil {
		return ScorePoint{}, err
	}
	q := p.inst.Q
	row := core.NewSimRow(q, cfg.M, p.e, res)
	pt := ScorePoint{
		Q: q, Embedding: p.e.Kind.String(), Trees: len(p.e.Forest), M: cfg.M, Cycles: row.Cycles,
		ModelBW: row.ModelBW, MeasuredBW: row.MeasuredBW, OptimalBW: bandwidth.Optimal(q, 1.0),
		MaxLinkUtil: row.MaxLinkUtil, ModelMaxLinkUtil: row.ModelMaxLinkUtil, UtilRelErr: row.UtilRelErr,
		MaxEdgeCongestion: row.MaxLinkTrees, SharedDirectedLinks: row.SharedLinks,
		ReducePhaseCycles: row.ReduceCycles, BcastPhaseCycles: row.BcastCycles,
	}
	if pt.ModelBW > 0 {
		pt.BWRelErr = (pt.MeasuredBW - pt.ModelBW) / pt.ModelBW
	}
	pt.Bound, pt.BoundName = bound(q, p.e)
	pt.MeetsBound = pt.MeasuredBW >= pt.Bound*(1-cfg.Tolerance)
	return pt, nil
}

// ScorecardFailures lists every way the points violate the model-accuracy
// contract at the given tolerance: a measurement outside tolerance of the
// Algorithm 1 prediction, or below the theorem floor. Empty means the
// scorecard passes.
func ScorecardFailures(points []ScorePoint, tolerance float64) []string {
	var fails []string
	for _, pt := range points {
		if math.Abs(pt.BWRelErr) > tolerance {
			fails = append(fails, fmt.Sprintf(
				"q=%d %s: measured %.3f vs model %.3f elem/cycle (%.1f%% off, tolerance %.0f%%)",
				pt.Q, pt.Embedding, pt.MeasuredBW, pt.ModelBW, 100*pt.BWRelErr, 100*tolerance))
		}
		if !pt.MeetsBound {
			fails = append(fails, fmt.Sprintf(
				"q=%d %s: measured %.3f below the %s floor %.3f",
				pt.Q, pt.Embedding, pt.MeasuredBW, pt.BoundName, pt.Bound))
		}
	}
	return fails
}
