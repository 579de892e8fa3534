package perf

import (
	"fmt"
	"io"

	"polarfly/internal/core"
	"polarfly/internal/critpath"
	"polarfly/internal/netsim"
	"polarfly/internal/parrun"
)

// CritPathConfig parameterises the causal critical-path sweep: every
// embedding kind of every q is traced and analysed fault-free, then
// again under the worst-case single link failure, and each analysis is
// gated on the exact-conservation invariant (blame classes sum to the
// run's cycle count with zero residue).
type CritPathConfig struct {
	// Qs are the PolarFly orders to sweep (odd prime powers exercise all
	// embeddings; for even q the low-depth point is skipped).
	Qs []int `json:"qs"`
	// M is the Allreduce vector length. The serialization-dominance gate
	// needs the bandwidth regime, so the default is large.
	M int `json:"m"`
	// LinkLatency and VCDepth configure the simulated fabric.
	LinkLatency int `json:"link_latency"`
	VCDepth     int `json:"vc_depth"`
	// FailAt is the activation cycle of the injected worst-case link
	// failure in the faulted half of the sweep.
	FailAt int `json:"fail_at"`
	// Seed drives the workload and the Hamiltonian search.
	Seed int64 `json:"seed"`
	// Parallel is the parrun worker-pool size across design points: 1
	// forces the serial path, <1 means GOMAXPROCS. Ordered commit keeps
	// the returned points identical either way; the field is excluded
	// from snapshots so CRITPATH_*.json stays byte-identical.
	Parallel int `json:"-"`
	// Engine selects the netsim advance strategy; engines are
	// byte-identical, so it is excluded from snapshots.
	Engine netsim.Engine `json:"-"`
}

// DefaultCritPathConfig matches the scorecard calibration (latency-1
// links, m=16384 well inside the bandwidth regime) and the degraded
// sweep's mid-reduction failure cycle.
func DefaultCritPathConfig() CritPathConfig {
	return CritPathConfig{
		Qs:          []int{3, 5, 7, 11},
		M:           16384,
		LinkLatency: 1,
		VCDepth:     4,
		FailAt:      2000,
		Seed:        core.DefaultSeed,
	}
}

// CritPathPoint is one analysed design point: the per-class blame split
// of the run's critical path, the conservation check, and — for faulted
// points — the cross-check of the path's fault-detect+recovery blame
// against the recovery latency the simulator measured: each
// Result.Recoveries round's cycle minus the injected failure's.
type CritPathPoint struct {
	Q         int    `json:"q"`
	Embedding string `json:"embedding"`
	Trees     int    `json:"trees"`
	M         int    `json:"m"`
	// Faulted marks the fault-injected half of the sweep; FailedLink is
	// the worst-case link and FailAt its activation cycle.
	Faulted    bool  `json:"faulted,omitempty"`
	FailedLink []int `json:"failed_link,omitempty"`
	FailAt     int   `json:"fail_at,omitempty"`
	// AllTreesLost marks the single-tree faulted outcome: the run aborts
	// with netsim.ErrAllTreesLost, so there is no path to analyse.
	AllTreesLost bool `json:"all_trees_lost,omitempty"`
	Cycles       int  `json:"cycles,omitempty"`
	// PathSegments and PathNodes size the reconstructed critical path.
	PathSegments int `json:"path_segments,omitempty"`
	PathNodes    int `json:"path_nodes,omitempty"`
	// Blame is the per-class cycle attribution in canonical class order;
	// ConservationOK records whether it sums exactly to Cycles and
	// Unattributed is the residue the causal model could not explain.
	Blame          []critpath.BlameEntry `json:"blame,omitempty"`
	ConservationOK bool                  `json:"conservation_ok"`
	Unattributed   int                   `json:"unattributed"`
	DominantClass  string                `json:"dominant_class,omitempty"`
	// TopSerialization lists the up-to-three links with the most
	// serialization blame; MaxUtilLink is the hottest directed link in
	// Result.LinkStats and TopLinkIsHottest whether the path's top
	// serialization link is (one of) the maximally utilized links.
	// Informational, not gated: on congestion-shared forests the hottest
	// global link sums two trees' streams while the path's serialization
	// bottleneck is the completing tree's own busiest link (the shared
	// link's delay surfaces as congestion blame instead).
	TopSerialization   []critpath.LinkBlame `json:"top_serialization,omitempty"`
	MaxUtilLink        []int                `json:"max_util_link,omitempty"`
	MaxLinkUtilization float64              `json:"max_link_utilization,omitempty"`
	TopLinkIsHottest   bool                 `json:"top_link_is_hottest,omitempty"`
	// Recovery cross-check. The path traverses a recovery round only
	// when the completion chain runs through a re-issued job — a
	// surviving tree's original job can deliver last instead, in which
	// case the re-issued traffic's delay is congestion blame and the
	// round is legitimately off the path. The exactness contract: blame
	// equals the measured latency for exactly the traversed rounds, so
	// traversing all of them means exact equality with the measured
	// total, and traversing a subset means blame stays below it.
	RecoveriesMeasured     int `json:"recoveries_measured,omitempty"`
	RecoveriesOnPath       int `json:"recoveries_on_path,omitempty"`
	RecoveryBlameCycles    int `json:"recovery_blame_cycles,omitempty"`
	MeasuredRecoveryCycles int `json:"measured_recovery_cycles,omitempty"`
	// RecoveryRounds lists the traversed rounds (indices into
	// Result.Recoveries) and TraversedRecoveryCycles their summed
	// measured latency — the exact quantity the blame must equal even when
	// nested recoveries leave some rounds legitimately off the path.
	RecoveryRounds          []int `json:"recovery_rounds,omitempty"`
	TraversedRecoveryCycles int   `json:"traversed_recovery_cycles,omitempty"`
	// AnalysisError records an Analyze failure verbatim (always a gate
	// failure; the fields above are zero).
	AnalysisError string `json:"analysis_error,omitempty"`
}

// critJob is one design point of the sweep, fault-free or faulted.
type critJob struct {
	p       *designPoint
	faulted bool
}

// CritPath sweeps the configured design points, reconstructs each run's
// causal critical path from the trace stream, and returns one blame
// record per (q, embedding, faulted). The critpath builder is the only
// trace consumer; link utilization and recovery latency come from the
// run's counters. Each q's instance, embeddings and input matrix are
// built once, before the pool starts, and each job builds only its own
// builder, so cfg.Parallel points run concurrently on a parrun pool with
// ordered commit.
func CritPath(cfg CritPathConfig) ([]CritPathPoint, error) {
	if len(cfg.Qs) == 0 {
		return nil, fmt.Errorf("perf: critpath sweep needs at least one q")
	}
	if cfg.M <= 0 {
		return nil, fmt.Errorf("perf: critpath vector length must be positive, got %d", cfg.M)
	}
	if cfg.FailAt < 1 {
		return nil, fmt.Errorf("perf: critpath fail-at cycle must be ≥ 1, got %d", cfg.FailAt)
	}
	sweep, err := newSweep(cfg.Qs, cfg.M, cfg.Seed, false)
	if err != nil {
		return nil, err
	}
	var jobs []critJob
	for _, sq := range sweep {
		for _, faulted := range []bool{false, true} {
			for _, e := range sq.embeds {
				jobs = append(jobs, critJob{p: sq.point(e, cfg.LinkLatency, cfg.VCDepth, cfg.Engine), faulted: faulted})
			}
		}
	}
	return parrun.Map(cfg.Parallel, len(jobs), func(i int) (CritPathPoint, error) {
		return critPathPoint(cfg, jobs[i])
	})
}

// critPathPoint traces and analyses one design point.
func critPathPoint(cfg CritPathConfig, job critJob) (CritPathPoint, error) {
	p := job.p
	pt := CritPathPoint{
		Q: p.inst.Q, Embedding: p.e.Kind.String(), Trees: len(p.e.Forest), M: cfg.M,
	}
	if job.faulted {
		link, _, err := p.failWorst(cfg.FailAt)
		if err != nil {
			return CritPathPoint{}, err
		}
		pt.Faulted = true
		pt.FailedLink = []int{link[0], link[1]}
		pt.FailAt = cfg.FailAt
	}
	b := critpath.NewBuilder()
	b.Attach(&p.cfg)
	res, err := p.run()
	if err != nil {
		return CritPathPoint{}, err
	}
	if p.lost {
		// No tree survived, so there is no path to analyse.
		pt.AllTreesLost = true
		pt.ConservationOK = true // nothing to conserve; the abort is the expectation
		return pt, nil
	}
	pt.Cycles = res.Cycles

	a, aerr := b.Analyze(res.Cycles)
	if aerr != nil {
		pt.AnalysisError = aerr.Error()
		return pt, nil
	}
	pt.PathSegments = len(a.Segments)
	pt.PathNodes = a.PathNodes
	pt.Blame = a.Blame
	total := 0
	for _, be := range a.Blame {
		total += be.Cycles
	}
	pt.ConservationOK = total == res.Cycles
	pt.Unattributed = a.Unattributed
	pt.DominantClass = a.DominantClass()
	top := a.TopSerialization
	if len(top) > 3 {
		top = top[:3]
	}
	pt.TopSerialization = top
	for _, ls := range res.LinkStats {
		pt.MaxLinkUtilization = max(pt.MaxLinkUtilization, ls.Utilization)
	}
	// Utilization is flits over the shared run length, so "hottest" ties
	// are exact; the tiny slack only guards float division noise.
	hot := pt.MaxLinkUtilization * (1 - 1e-9)
	for _, ls := range res.LinkStats {
		if pt.MaxUtilLink == nil && ls.Utilization >= hot {
			pt.MaxUtilLink = []int{ls.From, ls.To}
		}
		if len(top) > 0 && ls.From == top[0].From && ls.To == top[0].To {
			pt.TopLinkIsHottest = ls.Utilization >= hot
		}
	}
	latency := recoveryLatencies(res.Recoveries, cfg.FailAt)
	pt.RecoveriesMeasured = len(latency)
	pt.RecoveriesOnPath = a.RecoveriesOnPath
	pt.RecoveryBlameCycles = a.BlameCycles("fault-detect") + a.BlameCycles("recovery")
	for _, l := range latency {
		pt.MeasuredRecoveryCycles += l
	}
	pt.RecoveryRounds = a.RecoveryRounds
	for _, ri := range a.RecoveryRounds {
		if ri < len(latency) {
			pt.TraversedRecoveryCycles += latency[ri]
		}
	}
	return pt, nil
}

// recoveryLatencies returns each recovery round's detection latency on a
// run whose plan is one LinkDown at cycle failAt: with a single lossy
// fault, every round pairs with it, so the latency is the round's cycle
// minus failAt. Empty for a run without recovery.
func recoveryLatencies(recs []netsim.Recovery, failAt int) []int {
	var out []int
	for _, r := range recs {
		out = append(out, r.Cycle-failAt)
	}
	return out
}

// CritPathFailures lists every violation of the critical-path contract:
// a blame split that does not sum exactly to the cycle count,
// unattributed residue, a fault-free run not dominated by link
// serialization on a maximally utilized link, or a faulted run that
// measured no recovery or whose fault-detect+recovery blame disagrees
// with the measured recovery latency. Empty means the critpath gate
// passes.
func CritPathFailures(points []CritPathPoint) []string {
	var fails []string
	for _, pt := range points {
		fails = append(fails, pt.failures()...)
	}
	return fails
}

// failures lists the point's violations for CritPathFailures; the
// markdown's ok column reads the same list.
func (pt CritPathPoint) failures() []string {
	if pt.AllTreesLost {
		return nil
	}
	id := fmt.Sprintf("q=%d %s", pt.Q, pt.Embedding)
	if pt.Faulted {
		id += " faulted"
	}
	if pt.AnalysisError != "" {
		return []string{fmt.Sprintf("%s: analysis failed: %s", id, pt.AnalysisError)}
	}
	var fails []string
	if !pt.ConservationOK {
		total := 0
		for _, be := range pt.Blame {
			total += be.Cycles
		}
		fails = append(fails, fmt.Sprintf(
			"%s: blame classes sum to %d, want exactly %d cycles", id, total, pt.Cycles))
	}
	if pt.Unattributed != 0 {
		fails = append(fails, fmt.Sprintf(
			"%s: %d unattributed cycles on the critical path", id, pt.Unattributed))
	}
	if !pt.Faulted {
		if pt.DominantClass != critpath.ClassSerialization.String() {
			fails = append(fails, fmt.Sprintf(
				"%s: dominant blame %q, want serialization (blame %v)", id, pt.DominantClass, pt.Blame))
		}
		if len(pt.TopSerialization) == 0 {
			fails = append(fails, fmt.Sprintf("%s: no serialization bottleneck link recorded", id))
		}
		return fails
	}
	switch {
	case pt.RecoveriesMeasured == 0:
		// A run that ends before its fault activates, or rides it out
		// without a round, never tested the recovery blame at all.
		fails = append(fails, fmt.Sprintf(
			"%s: no recovery despite link %v failing at cycle %d", id, pt.FailedLink, pt.FailAt))
	case pt.RecoveriesOnPath > pt.RecoveriesMeasured:
		fails = append(fails, fmt.Sprintf(
			"%s: path traversed %d recovery rounds, the run measured only %d",
			id, pt.RecoveriesOnPath, pt.RecoveriesMeasured))
	case pt.RecoveriesOnPath == pt.RecoveriesMeasured && pt.RecoveryBlameCycles != pt.MeasuredRecoveryCycles:
		fails = append(fails, fmt.Sprintf(
			"%s: fault-detect+recovery blame %d cycles != measured recovery latency %d",
			id, pt.RecoveryBlameCycles, pt.MeasuredRecoveryCycles))
	case pt.RecoveriesOnPath < pt.RecoveriesMeasured && len(pt.RecoveryRounds) > 0 &&
		pt.RecoveryBlameCycles != pt.TraversedRecoveryCycles:
		fails = append(fails, fmt.Sprintf(
			"%s: fault-detect+recovery blame %d cycles != measured latency %d of the %d traversed rounds %v",
			id, pt.RecoveryBlameCycles, pt.TraversedRecoveryCycles, pt.RecoveriesOnPath, pt.RecoveryRounds))
	case pt.RecoveriesOnPath < pt.RecoveriesMeasured && pt.RecoveryBlameCycles > pt.MeasuredRecoveryCycles:
		// Backstop for snapshots predating the traversed-round list.
		fails = append(fails, fmt.Sprintf(
			"%s: blame %d cycles for %d of %d recovery rounds exceeds the measured total %d",
			id, pt.RecoveryBlameCycles, pt.RecoveriesOnPath, pt.RecoveriesMeasured, pt.MeasuredRecoveryCycles))
	}
	return fails
}

// WriteCritPathMarkdown renders the critical-path blame scorecard.
func WriteCritPathMarkdown(w io.Writer, s *Snapshot) error {
	if _, err := fmt.Fprintf(w, "### Critical-path blame scorecard — %s\n\n", s.Label); err != nil {
		return err
	}
	if cfg := s.CritPathConfig; cfg != nil {
		if _, err := fmt.Fprintf(w, "m=%d, link latency=%d, VC depth=%d, faulted runs fail the worst-case link at cycle %d\n\n",
			cfg.M, cfg.LinkLatency, cfg.VCDepth, cfg.FailAt); err != nil {
			return err
		}
	}
	if err := writeRow(w, "q", "embedding", "mode", "cycles", "dominant",
		"top link", "ser share", "fault+rec blame", "ok"); err != nil {
		return err
	}
	if err := writeRule(w, 9); err != nil {
		return err
	}
	for _, pt := range s.CritPath {
		mode := "fault-free"
		if pt.Faulted {
			mode = "faulted"
		}
		if pt.AllTreesLost {
			if err := writeRow(w, fmt.Sprintf("%d", pt.Q), pt.Embedding, mode,
				"-", "-", "-", "-", "-", "aborted as predicted"); err != nil {
				return err
			}
			continue
		}
		topLink, serShare := "-", "-"
		if len(pt.TopSerialization) > 0 {
			top := pt.TopSerialization[0]
			topLink = fmt.Sprintf("%d→%d", top.From, top.To)
		}
		for _, be := range pt.Blame {
			if be.Class == critpath.ClassSerialization.String() && pt.Cycles > 0 {
				serShare = fmt.Sprintf("%.1f%%", 100*float64(be.Cycles)/float64(pt.Cycles))
			}
		}
		faultRec := "-"
		if pt.Faulted {
			faultRec = fmt.Sprintf("%d/%d", pt.RecoveryBlameCycles, pt.MeasuredRecoveryCycles)
		}
		ok := "yes"
		if len(pt.failures()) > 0 {
			ok = "**NO**"
		}
		if err := writeRow(w, fmt.Sprintf("%d", pt.Q), pt.Embedding, mode,
			fmt.Sprintf("%d", pt.Cycles), pt.DominantClass, topLink, serShare, faultRec, ok); err != nil {
			return err
		}
	}
	return nil
}
