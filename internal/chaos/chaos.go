// Package chaos is the seeded fault-space exploration campaign: it
// generates thousands of randomized fault plans — single and correlated
// link failures, transient windows, repeating storms, router-down
// domains, degraded links and engine stalls — runs each against the
// cycle-accurate simulator, and checks per-run invariants that must hold
// under ANY fault schedule:
//
//   - a completed run's outputs equal the exact element-wise sum;
//   - flit conservation: FlitsSent == DeliveredFlits + DroppedFlits;
//   - the causal critical path telescopes to exactly Result.Cycles with
//     zero unattributed residue;
//   - when the tail after the last recovery is long enough and the plan
//     is purely lossy, the measured post-recovery bandwidth is within
//     tolerance of the iterated core.Degrade prediction;
//   - every non-completion maps to a classified sentinel
//     (netsim.ErrAllTreesLost or netsim.ErrRecoveryLimit) — a progress
//     timeout or any other error is a campaign violation.
//
// Every run is reproducible in isolation: the per-run PRNG seed is a
// pure function of (campaign seed, q, embedding, run index), so a
// violation's plan can be regenerated without replaying the campaign.
// Runs execute on a parrun pool with ordered commit, keeping the report
// byte-identical at any -parallel setting.
package chaos

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"polarfly/internal/core"
	"polarfly/internal/critpath"
	"polarfly/internal/faults"
	"polarfly/internal/netsim"
	"polarfly/internal/parrun"
)

// Config parameterises one campaign.
type Config struct {
	// Qs are the PolarFly orders to sweep.
	Qs []int `json:"qs"`
	// Embeddings names the forest kinds per q ("low-depth",
	// "hamiltonian", "single-tree").
	Embeddings []string `json:"embeddings"`
	// Runs is the number of randomized fault plans per (q, embedding)
	// design point.
	Runs int `json:"runs"`
	// M is the Allreduce vector length.
	M int `json:"m"`
	// LinkLatency and VCDepth configure the simulated fabric.
	LinkLatency int `json:"link_latency"`
	VCDepth     int `json:"vc_depth"`
	// MinAt and MaxAt bound fault activation cycles (inclusive).
	MinAt int `json:"min_at"`
	MaxAt int `json:"max_at"`
	// Seed drives every per-run plan generator (mixed with the design
	// point and run index).
	Seed int64 `json:"seed"`
	// Tolerance is the relative error allowed between the measured
	// post-recovery bandwidth and the core.Degrade prediction.
	Tolerance float64 `json:"tolerance"`
	// MinTailElems gates the bandwidth cross-check: the elements still
	// outstanding after the last recovery must be at least this many for
	// the measured rate to be meaningful.
	MinTailElems int `json:"min_tail_elems"`
	// Parallel is the parrun worker-pool size: 1 forces the serial path,
	// <1 means GOMAXPROCS. Ordered commit keeps the report identical
	// either way; excluded from snapshots so CAMPAIGN_*.json stays
	// byte-identical.
	Parallel int `json:"-"`
	// Engine selects the netsim advance strategy (cycle or event); the
	// engines are byte-identical, so it is excluded from snapshots.
	Engine netsim.Engine `json:"-"`
}

// DefaultConfig is the scorecard calibration: 64 plans per point over
// q ∈ {3,5,7,11} × {low-depth, hamiltonian} = 512 runs.
func DefaultConfig() Config {
	return Config{
		Qs:           []int{3, 5, 7, 11},
		Embeddings:   []string{"low-depth", "hamiltonian"},
		Runs:         64,
		M:            2048,
		LinkLatency:  1,
		VCDepth:      4,
		MinAt:        50,
		MaxAt:        300,
		Seed:         core.DefaultSeed,
		Tolerance:    0.25,
		MinTailElems: 256,
	}
}

// ParseEmbedding maps an embedding name to its core kind.
func ParseEmbedding(name string) (core.EmbeddingKind, error) {
	for _, k := range []core.EmbeddingKind{core.SingleTree, core.LowDepth, core.Hamiltonian} {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("chaos: unknown embedding %q (want single-tree, low-depth or hamiltonian)", name)
}

// validate checks the config and returns its embeddings, parsed.
func (c *Config) validate() ([]core.EmbeddingKind, error) {
	if len(c.Qs) == 0 {
		return nil, fmt.Errorf("chaos: campaign needs at least one q")
	}
	if len(c.Embeddings) == 0 {
		return nil, fmt.Errorf("chaos: campaign needs at least one embedding")
	}
	kinds := make([]core.EmbeddingKind, len(c.Embeddings))
	for i, name := range c.Embeddings {
		kind, err := ParseEmbedding(name)
		if err != nil {
			return nil, err
		}
		kinds[i] = kind
	}
	if c.Runs < 1 {
		return nil, fmt.Errorf("chaos: runs per point must be ≥ 1, got %d", c.Runs)
	}
	if c.M < 1 {
		return nil, fmt.Errorf("chaos: vector length must be ≥ 1, got %d", c.M)
	}
	if c.MinAt < 1 || c.MaxAt < c.MinAt {
		return nil, fmt.Errorf("chaos: activation window [%d,%d] invalid", c.MinAt, c.MaxAt)
	}
	if c.Tolerance <= 0 || c.Tolerance >= 1 {
		return nil, fmt.Errorf("chaos: tolerance %g out of (0, 1)", c.Tolerance)
	}
	if c.MinTailElems < 1 {
		return nil, fmt.Errorf("chaos: min tail elements must be ≥ 1, got %d", c.MinTailElems)
	}
	return kinds, nil
}

// Outcome classifies one campaign run.
type Outcome int

const (
	// Completed: the run delivered and every invariant was checked.
	Completed Outcome = iota
	// AllTreesLost: the run aborted with netsim.ErrAllTreesLost — the
	// expected terminal state when the plan kills every tree.
	AllTreesLost
	// RecoveryLimit: the run aborted with netsim.ErrRecoveryLimit — the
	// bounded-nesting backstop, classified rather than hung.
	RecoveryLimit
	// Violation: wrong outputs, broken conservation, critpath residue, a
	// bandwidth miss, a progress timeout, or an unclassified error.
	Violation
)

func (o Outcome) String() string {
	switch o {
	case Completed:
		return "completed"
	case AllTreesLost:
		return "all-trees-lost"
	case RecoveryLimit:
		return "recovery-limit"
	case Violation:
		return "violation"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Point aggregates one (q, embedding) design point of the campaign.
type Point struct {
	Q         int    `json:"q"`
	Embedding string `json:"embedding"`
	Trees     int    `json:"trees"`
	Runs      int    `json:"runs"`
	// Outcome counts.
	Completed     int `json:"completed"`
	AllTreesLost  int `json:"all_trees_lost"`
	RecoveryLimit int `json:"recovery_limit,omitempty"`
	// Recoveries totals the recovery rounds across the point's runs;
	// MaxGeneration is the deepest recovery nesting observed (≥ 2 means a
	// mid-recovery fault storm forced a nested round).
	Recoveries    int `json:"recoveries"`
	MaxGeneration int `json:"max_generation"`
	// BWChecked counts the runs whose post-recovery tail was long enough
	// for the Degrade cross-check to apply.
	BWChecked int `json:"bw_checked"`
	// Violations lists every invariant breach, each prefixed with the
	// run index so the plan can be regenerated from the seed.
	Violations []string `json:"violations,omitempty"`
}

// Report is the versioned campaign result.
type Report struct {
	Schema string  `json:"schema"`
	Label  string  `json:"label"`
	Config Config  `json:"config"`
	Points []Point `json:"points"`
}

// Schema is the campaign snapshot schema identifier.
const Schema = "polarfly-campaign/v1"

// defaultMaxStall caps engine-stall and degraded-link windows well
// below netsim's progress timeout, so a slow run never masquerades as a
// hang.
const defaultMaxStall = 1500

// topoLinks returns the embedding's topology edge list, canonicalised
// (u < v) and sorted — the candidate pool every fault draw samples from.
func topoLinks(e *core.Embedding) [][2]int {
	var links [][2]int
	for _, ed := range e.Topology.Edges() {
		u, v := ed.U, ed.V
		if u > v {
			u, v = v, u
		}
		links = append(links, [2]int{u, v})
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i][0] != links[j][0] {
			return links[i][0] < links[j][0]
		}
		return links[i][1] < links[j][1]
	})
	return links
}

// pointSpec is the immutable per-design-point state shared (read-only)
// by that point's runs.
type pointSpec struct {
	q        int
	kindIdx  int // index into cfg.Embeddings
	inst     *core.Instance
	e        *core.Embedding
	inputs   [][]int64
	want     []int64
	links    [][2]int // topology edge list, canonical and sorted
	maxStall int      // engine-stall / degraded window cap, < netsim.DefaultProgressTimeout
}

// runResult is one run's contribution, merged per point in input order.
type runResult struct {
	outcome    Outcome
	violations []string
	recoveries int
	maxGen     int
	bwChecked  bool
}

// RunSeed is the per-run PRNG seed: a pure function of the campaign
// seed and the run coordinates, so any single run can be reproduced
// without replaying the campaign. The mixing constant is the SplitMix64
// increment; uint64 arithmetic keeps the wraparound well-defined.
func RunSeed(seed int64, q, kindIdx, run int) int64 {
	h := uint64(seed)
	for _, v := range []uint64{uint64(q), uint64(kindIdx), uint64(run)} {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	}
	return int64(h)
}

// Campaign runs the configured fault-space exploration and returns the
// aggregated report. It returns an error only on configuration or setup
// problems; invariant breaches are recorded as violations in the report
// (see Failures).
func Campaign(cfg Config) (*Report, error) {
	kinds, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	// Build each q's instance, embeddings, inputs and their expected sum
	// once, serially; runs share them read-only.
	var specs []*pointSpec
	for _, q := range cfg.Qs {
		inst, err := core.NewInstance(q)
		if err != nil {
			return nil, fmt.Errorf("chaos: q=%d: %w", q, err)
		}
		embeds, err := inst.EmbedAll(kinds)
		if err != nil {
			return nil, fmt.Errorf("chaos: q=%d: %w", q, err)
		}
		inputs := inst.Inputs(cfg.M, cfg.Seed)
		want := netsim.ExpectedOutput(inputs)
		for ki, e := range embeds {
			specs = append(specs, &pointSpec{
				q: q, kindIdx: ki,
				inst: inst, e: e, inputs: inputs,
				want:     want,
				links:    topoLinks(e),
				maxStall: defaultMaxStall,
			})
		}
	}

	total := len(specs) * cfg.Runs
	results, err := parrun.Map(cfg.Parallel, total, func(i int) (runResult, error) {
		return runOne(cfg, specs[i/cfg.Runs], i%cfg.Runs), nil
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{Schema: Schema, Config: cfg}
	for si, sp := range specs {
		pt := Point{
			Q: sp.q, Embedding: cfg.Embeddings[sp.kindIdx],
			Trees: len(sp.e.Forest), Runs: cfg.Runs,
		}
		for run := 0; run < cfg.Runs; run++ {
			rr := results[si*cfg.Runs+run]
			switch rr.outcome {
			case Completed:
				pt.Completed++
			case AllTreesLost:
				pt.AllTreesLost++
			case RecoveryLimit:
				pt.RecoveryLimit++
			case Violation:
				// Counted through the violation list below; a point's
				// violations slice being non-empty is the gate signal.
			default:
			}
			pt.Recoveries += rr.recoveries
			if rr.maxGen > pt.MaxGeneration {
				pt.MaxGeneration = rr.maxGen
			}
			if rr.bwChecked {
				pt.BWChecked++
			}
			pt.Violations = append(pt.Violations, rr.violations...)
		}
		rep.Points = append(rep.Points, pt)
	}
	return rep, nil
}

// runOne generates run `run`'s fault plan from its deterministic seed,
// executes it, and checks every applicable invariant. It never returns
// an error: anything unexpected is a recorded violation.
func runOne(cfg Config, sp *pointSpec, run int) runResult {
	rng := rand.New(rand.NewSource(RunSeed(cfg.Seed, sp.q, sp.kindIdx, run)))
	plan := randomPlan(rng, cfg, sp)
	var rr runResult
	violate := func(format string, args ...any) {
		rr.outcome = Violation
		prefix := fmt.Sprintf("q=%d %s run %d: ", sp.q, sp.e.Kind, run)
		rr.violations = append(rr.violations, prefix+fmt.Sprintf(format, args...))
	}
	if err := plan.Validate(); err != nil {
		violate("generated plan invalid: %v", err)
		return rr
	}

	runCfg := netsim.Config{
		LinkLatency: cfg.LinkLatency, VCDepth: cfg.VCDepth,
		Faults: plan, Engine: cfg.Engine,
	}
	b := critpath.NewBuilder()
	b.Attach(&runCfg)
	res, err := sp.inst.Allreduce(sp.e, sp.inputs, runCfg)

	var pe *netsim.ProgressError
	switch {
	case err == nil:
		rr.outcome = Completed
	case errors.Is(err, netsim.ErrAllTreesLost):
		rr.outcome = AllTreesLost
		return rr
	case errors.Is(err, netsim.ErrRecoveryLimit):
		rr.outcome = RecoveryLimit
		return rr
	case errors.As(err, &pe):
		violate("progress timeout (plan %v): %v", plan.Faults, err)
		return rr
	default:
		violate("unclassified failure (plan %v): %v", plan.Faults, err)
		return rr
	}

	rr.recoveries = len(res.Recoveries)
	for _, r := range res.Recoveries {
		if r.Generation > rr.maxGen {
			rr.maxGen = r.Generation
		}
	}

	// Invariant 1: exact reduction output at every node.
	for v := range res.Outputs {
		for k := range sp.want {
			if res.Outputs[v][k] != sp.want[k] {
				violate("node %d output[%d] = %d, want %d (plan %v)",
					v, k, res.Outputs[v][k], sp.want[k], plan.Faults)
				break
			}
		}
		if rr.outcome == Violation {
			break
		}
	}

	// Invariant 2: flit conservation.
	if res.FlitsSent != res.DeliveredFlits+res.DroppedFlits {
		violate("flit conservation: sent=%d delivered=%d dropped=%d (plan %v)",
			res.FlitsSent, res.DeliveredFlits, res.DroppedFlits, plan.Faults)
	}

	// Invariant 3: the causal critical path telescopes to exactly
	// Result.Cycles (Analyze re-verifies conservation internally). Zero
	// residue is only demanded for purely lossy plans: degraded-link
	// metering and engine-stall freezes leave no trace event, so their
	// delay legitimately lands in the unattributed class.
	if a, aerr := b.Analyze(res.Cycles); aerr != nil {
		violate("critpath analysis failed (plan %v): %v", plan.Faults, aerr)
	} else {
		total := 0
		for _, be := range a.Blame {
			total += be.Cycles
		}
		if total != res.Cycles {
			violate("critpath blame sums to %d, want %d (plan %v)", total, res.Cycles, plan.Faults)
		}
		if a.Unattributed != 0 && planAllLossy(plan) {
			violate("critpath residue %d cycles on a lossy-only plan (plan %v)", a.Unattributed, plan.Faults)
		}
	}

	// Invariant 4: post-recovery bandwidth tracks iterated Degrade. Only
	// meaningful when the plan is purely lossy (degraded links and engine
	// stalls depress the measured rate below the structural prediction)
	// and the tail after the last recovery carries enough elements.
	if n := len(res.Recoveries); n > 0 && planAllLossy(plan) &&
		res.Recoveries[n-1].Remaining >= cfg.MinTailElems {
		failed := make(map[[2]int]bool)
		for _, r := range res.Recoveries {
			for _, l := range r.FailedLinks {
				failed[l] = true
			}
		}
		union := make([][2]int, 0, len(failed))
		for l := range failed {
			union = append(union, l)
		}
		sort.Slice(union, func(i, j int) bool {
			if union[i][0] != union[j][0] {
				return union[i][0] < union[j][0]
			}
			return union[i][1] < union[j][1]
		})
		deg, derr := core.Degrade(sp.e, union)
		if derr != nil {
			violate("completed but Degrade(%v) predicts no survivors: %v", union, derr)
		} else if deg.Model.Aggregate > 0 {
			rr.bwChecked = true
			rel := (res.PostRecoveryBW - deg.Model.Aggregate) / deg.Model.Aggregate
			if math.Abs(rel) > cfg.Tolerance {
				violate("post-recovery BW %.3f vs predicted %.3f (rel err %+.1f%%, tolerance %.0f%%, plan %v)",
					res.PostRecoveryBW, deg.Model.Aggregate, 100*rel, 100*cfg.Tolerance, plan.Faults)
			}
		}
	}
	return rr
}

// planAllLossy reports whether every fault in the plan is of a lossy
// kind (no degraded links or engine stalls).
func planAllLossy(p *faults.Plan) bool {
	for _, f := range p.Faults {
		if !f.Kind.Lossy() {
			return false
		}
	}
	return true
}

// randomPlan draws one weighted fault scenario. The weights skew toward
// the lossy kinds that exercise detection and recovery; roughly one run
// in twelve draws a router-down domain and one in six a non-lossy
// slowdown fault (alone or stacked on a link failure).
func randomPlan(rng *rand.Rand, cfg Config, sp *pointSpec) *faults.Plan {
	at := func() int { return cfg.MinAt + rng.Intn(cfg.MaxAt-cfg.MinAt+1) }
	link := func() [2]int { return sp.links[rng.Intn(len(sp.links))] }
	p := &faults.Plan{}
	switch w := rng.Intn(24); {
	case w < 6: // single permanent link failure
		l := link()
		p.Faults = append(p.Faults, faults.Fault{Kind: faults.LinkDown, U: l[0], V: l[1], At: at()})
	case w < 10: // correlated group: 2-3 links down at one shared cycle
		groupSize := 2 + rng.Intn(2)
		gp, err := faults.GenerateCorrelated(sp.links, 1, groupSize, cfg.MinAt, cfg.MaxAt, rng.Int63())
		if err != nil {
			l := link()
			p.Faults = append(p.Faults, faults.Fault{Kind: faults.LinkDown, U: l[0], V: l[1], At: at()})
			break
		}
		p.Faults = gp.Faults
	case w < 13: // staggered pair: second failure lands mid-recovery
		l1, l2 := link(), link()
		a1 := at()
		p.Faults = append(p.Faults, faults.Fault{Kind: faults.LinkDown, U: l1[0], V: l1[1], At: a1})
		if l2 != l1 {
			p.Faults = append(p.Faults, faults.Fault{
				Kind: faults.LinkDown, U: l2[0], V: l2[1],
				At: a1 + cfg.LinkLatency*(5+rng.Intn(40)),
			})
		}
	case w < 16: // transient window
		l := link()
		a := at()
		p.Faults = append(p.Faults, faults.Fault{
			Kind: faults.LinkTransient, U: l[0], V: l[1],
			At: a, Until: a + 10 + rng.Intn(60),
		})
	case w < 19: // repeating storm
		l := link()
		a := at()
		width := 10 + rng.Intn(40)
		p.Faults = append(p.Faults, faults.Fault{
			Kind: faults.LinkStorm, U: l[0], V: l[1],
			At: a, Until: a + width,
			Period: width + 30 + rng.Intn(200),
			Repeat: 2 + rng.Intn(3),
		})
	case w < 21: // router-down domain: every incident link atomically
		p.Faults = append(p.Faults, faults.Fault{
			Kind: faults.RouterDown, Node: rng.Intn(sp.inst.N()), At: at(),
		})
	case w < 23: // degraded link, sometimes stacked on a failure elsewhere
		l := link()
		a := at()
		f := faults.Fault{
			Kind: faults.LinkDegraded, U: l[0], V: l[1],
			At: a, Bandwidth: 0.25 + 0.7*rng.Float64(),
		}
		if rng.Intn(2) == 0 {
			f.Until = a + 200 + rng.Intn(sp.maxStall-200)
		}
		p.Faults = append(p.Faults, f)
		if l2 := link(); rng.Intn(2) == 0 && l2 != l {
			p.Faults = append(p.Faults, faults.Fault{Kind: faults.LinkDown, U: l2[0], V: l2[1], At: at()})
		}
	default: // engine stall window
		a := at()
		p.Faults = append(p.Faults, faults.Fault{
			Kind: faults.EngineStall, Node: rng.Intn(sp.inst.N()),
			At: a, Until: a + 100 + rng.Intn(sp.maxStall-100),
		})
	}
	return p
}

// RandomPlan draws one weighted fault scenario for an embedding outside
// a campaign — the allreduce-sim -chaos-seed path — so the CLI and the
// campaign engine explore the same fault space with the same weights.
// Activations land uniformly in [minAt, maxAt] and slow-fault windows
// get the cap campaign runs use; the same seed always yields the same
// plan for the same embedding.
func RandomPlan(inst *core.Instance, e *core.Embedding, latency, minAt, maxAt int, seed int64) (*faults.Plan, error) {
	if minAt < 1 || maxAt < minAt {
		return nil, fmt.Errorf("chaos: cycle window [%d,%d] invalid", minAt, maxAt)
	}
	if latency < 1 {
		return nil, fmt.Errorf("chaos: link latency %d, must be ≥ 1", latency)
	}
	sp := &pointSpec{inst: inst, e: e, links: topoLinks(e), maxStall: defaultMaxStall}
	cfg := Config{LinkLatency: latency, MinAt: minAt, MaxAt: maxAt}
	rng := rand.New(rand.NewSource(seed))
	p := randomPlan(rng, cfg, sp)
	return p, p.Validate()
}

// Failures flattens every recorded violation across the report's
// points. Empty means the campaign gate passes: every run either
// completed with all invariants intact or terminated on a classified
// sentinel.
func (r *Report) Failures() []string {
	var fails []string
	for _, pt := range r.Points {
		fails = append(fails, pt.Violations...)
	}
	return fails
}
