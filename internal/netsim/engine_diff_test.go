package netsim

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"polarfly/internal/faults"
)

// engineRun is everything a simulation can observably produce: the
// Result, the error, the complete trace stream, and deep copies of every
// sample frame.
type engineRun struct {
	res    *Result
	err    error
	events []TraceEvent
	frames []SampleFrame
}

// capture runs one simulation through run with full trace and telemetry
// capture.
func capture(cfg Config, run func(Config) (*Result, error)) engineRun {
	var r engineRun
	cfg.Trace = func(ev TraceEvent) { r.events = append(r.events, ev) }
	cfg.SampleEvery = 16
	cfg.Sample = func(f *SampleFrame) {
		cp := *f
		cp.Links = append([]LinkCounters(nil), f.Links...)
		r.frames = append(r.frames, cp)
	}
	r.res, r.err = run(cfg)
	return r
}

// runCapture executes one simulation under the given advance policy.
func runCapture(spec Spec, cfg Config, engine Engine) engineRun {
	cfg.Engine = engine
	return capture(cfg, func(cfg Config) (*Result, error) { return Run(spec, cfg) })
}

// runReference executes one simulation on the reference loop
// (reference_test.go), through the same validation, construction and
// finalization as Run.
func runReference(spec Spec, cfg Config) engineRun {
	cfg.Engine = EngineCycle
	return capture(cfg, func(cfg Config) (*Result, error) {
		s, err := newSim(spec, cfg)
		if err != nil {
			return nil, err
		}
		now, err := s.referenceCycleLoop()
		if err != nil {
			return nil, err
		}
		return s.finalize(now)
	})
}

// runBare executes one simulation under the given advance policy with no
// trace and no sampler, the way production callers run it: no hook
// branches, and under EngineEvent a skip horizon no sample boundary cuts.
func runBare(spec Spec, cfg Config, engine Engine) engineRun {
	cfg.Engine = engine
	res, err := Run(spec, cfg)
	return engineRun{res: res, err: err}
}

// compareEngines runs the reference loop and both advance policies on
// one input and asserts each policy reproduces the reference byte for
// byte, captured and bare. It returns the reference run for
// scenario-specific checks.
func compareEngines(t *testing.T, spec Spec, cfg Config) engineRun {
	t.Helper()
	ref := runReference(spec, cfg)
	for _, e := range []Engine{EngineCycle, EngineEvent} {
		compareRuns(t, ref, runCapture(spec, cfg, e), e)
		compareResults(t, ref, runBare(spec, cfg, e), e, e.String()+" (bare)")
	}
	return ref
}

// firstTreeEdge returns the first (child, parent) edge of tree 0 — the
// deterministic fault target shared by the faulted scenarios.
func firstTreeEdge(spec Spec) (int, int) {
	for w, p := range spec.Forest[0].Parent {
		if p >= 0 {
			return w, p
		}
	}
	panic("tree 0 has no edges")
}

// diffPlans builds the fault scenarios of the equivalence matrix. All
// activation cycles land mid-reduction for the small vectors used here.
func diffPlans(spec Spec) []struct {
	name string
	plan *faults.Plan
} {
	u, v := firstTreeEdge(spec)
	node := u // a non-root router on tree 0
	return []struct {
		name string
		plan *faults.Plan
	}{
		{"fault-free", nil},
		{"link-down", &faults.Plan{Faults: []faults.Fault{
			{Kind: faults.LinkDown, U: u, V: v, At: 120},
		}}},
		{"router-down", &faults.Plan{Faults: []faults.Fault{
			{Kind: faults.RouterDown, Node: node, At: 90},
		}}},
		{"storm", &faults.Plan{Faults: []faults.Fault{
			{Kind: faults.LinkStorm, U: u, V: v, At: 80, Until: 110, Period: 100, Repeat: 3},
			{Kind: faults.LinkDegraded, U: v, V: u, At: 60, Until: 400, Bandwidth: 0.5},
			{Kind: faults.EngineStall, Node: v, At: 70, Until: 200},
		}}},
	}
}

// compareResults asserts byte-identity between the reference run's
// outcome and a run of the given advance policy, named label in
// failures: identical error text, type and sentinel, or identical
// JSON-encoded Result.
func compareResults(t *testing.T, ref, got engineRun, engine Engine, label string) {
	t.Helper()
	if (ref.err == nil) != (got.err == nil) {
		t.Fatalf("error divergence: reference=%v %s=%v", ref.err, label, got.err)
	}
	if ref.err != nil {
		if ref.err.Error() != got.err.Error() {
			t.Fatalf("error text divergence:\n reference: %v\n %s: %v", ref.err, label, got.err)
		}
		var rp, gp *ProgressError
		if errors.As(ref.err, &rp) != errors.As(got.err, &gp) {
			t.Fatalf("error type divergence: reference=%T %s=%T", ref.err, label, got.err)
		}
		for _, sentinel := range []error{ErrAllTreesLost, ErrRecoveryLimit} {
			if errors.Is(ref.err, sentinel) != errors.Is(got.err, sentinel) {
				t.Fatalf("%v divergence: reference=%v %s=%v", sentinel, ref.err, label, got.err)
			}
		}
		return
	}
	// Arena.EventBytes sizes the wake-set state only EngineEvent
	// allocates — the one documented policy-dependent Result field. Check
	// it obeys its contract, then normalise it out of the byte comparison.
	ra, ga := ref.res.Arena, got.res.Arena
	if ra.EventBytes != 0 {
		t.Fatalf("reference loop reported EventBytes=%d, want 0", ra.EventBytes)
	}
	if (ga.EventBytes > 0) != (engine == EngineEvent) || ga.EventBytes < 0 {
		t.Fatalf("%s policy reported EventBytes=%d", label, ga.EventBytes)
	}
	if ga.TotalBytes-ga.EventBytes != ra.TotalBytes {
		t.Fatalf("arena totals disagree beyond EventBytes: reference %+v %s %+v", ra, label, ga)
	}
	got.res.Arena = ra
	defer func() { got.res.Arena = ga }()
	rb, err := json.Marshal(ref.res)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := json.Marshal(got.res)
	if err != nil {
		t.Fatal(err)
	}
	if string(rb) != string(gb) {
		t.Errorf("Result bytes diverge:\n reference: %.2000s\n %s: %.2000s", rb, label, gb)
	}
}

// compareRuns asserts byte-identity between the reference run and a
// captured run of the given advance policy: identical outcome
// (compareResults), identical trace event sequence, identical telemetry
// frames.
func compareRuns(t *testing.T, ref, got engineRun, engine Engine) {
	t.Helper()
	compareResults(t, ref, got, engine, engine.String())
	if len(ref.events) != len(got.events) {
		t.Fatalf("trace length divergence: reference=%d %v=%d (first divergence: %s)",
			len(ref.events), engine, len(got.events), firstEventDiff(ref.events, got.events))
	}
	for i := range ref.events {
		if ref.events[i] != got.events[i] {
			t.Fatalf("trace event %d diverges:\n reference: %+v\n %v: %+v", i, ref.events[i], engine, got.events[i])
		}
	}
	if len(ref.frames) != len(got.frames) {
		t.Fatalf("frame count divergence: reference=%d %v=%d", len(ref.frames), engine, len(got.frames))
	}
	for i := range ref.frames {
		rf, gf := ref.frames[i], got.frames[i]
		if rf.Cycle != gf.Cycle || rf.Final != gf.Final || rf.Run != gf.Run {
			t.Fatalf("frame %d header/run diverges:\n reference: %+v\n %v: %+v", i, rf, engine, gf)
		}
		for j := range rf.Links {
			if rf.Links[j] != gf.Links[j] {
				t.Fatalf("frame %d (cycle %d) link %d diverges:\n reference: %+v\n %v: %+v",
					i, rf.Cycle, j, rf.Links[j], engine, gf.Links[j])
			}
		}
	}
}

func firstEventDiff(a, b []TraceEvent) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("index %d: reference %+v vs %+v", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("common prefix of %d events identical", n)
}

// TestEngineEquivalence is the differential harness of DESIGN.md §7h:
// for every swept q × embedding × fault scenario, both advance policies
// must reproduce the reference loop byte for byte — Result (JSON), trace
// stream, and telemetry frames — including identical classified errors
// where the scenario kills every tree.
func TestEngineEquivalence(t *testing.T) {
	cfg := Config{LinkLatency: 3, VCDepth: 2}
	for _, q := range []int{3, 5, 7, 11} {
		m := 384
		if q >= 7 {
			m = 768
		}
		for _, kind := range []string{"single", "lowdepth", "hamiltonian"} {
			if kind == "lowdepth" && q%2 == 0 {
				continue
			}
			spec := benchSpec(t, q, m, kind)
			for _, sc := range diffPlans(spec) {
				sc := sc
				name := fmt.Sprintf("q=%d/%s/%s", q, kind, sc.name)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					c := cfg
					c.Faults = sc.plan
					compareEngines(t, spec, c)
				})
			}
		}
	}
}

// TestEngineEquivalenceVariants covers the configuration axes the main
// matrix holds fixed: deep pipelines, a rate-limited reduction engine,
// reduce/broadcast-only collectives, and the progress-timeout abort path
// (every policy must emit the same ProgressError at the same cycle).
func TestEngineEquivalenceVariants(t *testing.T) {
	spec := benchSpec(t, 5, 512, "lowdepth")
	_, v := firstTreeEdge(spec)

	variants := []struct {
		name string
		cfg  Config
		op   Op
	}{
		{"deep-latency", Config{LinkLatency: 10, VCDepth: 16}, OpAllreduce},
		{"latency-bound", Config{LinkLatency: 8, VCDepth: 3}, OpAllreduce},
		{"engine-rate", Config{LinkLatency: 2, VCDepth: 4, EngineRate: 1}, OpAllreduce},
		{"reduce-only", Config{LinkLatency: 3, VCDepth: 2}, OpReduce},
		{"bcast-only", Config{LinkLatency: 3, VCDepth: 2}, OpBroadcast},
	}
	for _, vt := range variants {
		vt := vt
		t.Run(vt.name, func(t *testing.T) {
			t.Parallel()
			sp := spec
			sp.Op = vt.op
			compareEngines(t, sp, vt.cfg)
		})
	}

	t.Run("no-recovery-stall", func(t *testing.T) {
		t.Parallel()
		// A combining router frozen for good loses nothing, so no recovery
		// fires: the trees it reduces for stall until the timeout.
		c := Config{LinkLatency: 3, VCDepth: 2,
			Faults: &faults.Plan{Faults: []faults.Fault{
				{Kind: faults.EngineStall, Node: v, At: 50},
			}}}
		var pe *ProgressError
		if ref := compareEngines(t, spec, c); !errors.As(ref.err, &pe) {
			t.Fatalf("expected a ProgressError from the reference loop, got %v", ref.err)
		}
	})

	t.Run("single-tree-all-lost", func(t *testing.T) {
		t.Parallel()
		sp := benchSpec(t, 5, 256, "single")
		su, sv := firstTreeEdge(sp)
		c := Config{LinkLatency: 3, VCDepth: 2,
			Faults: &faults.Plan{Faults: []faults.Fault{
				{Kind: faults.LinkDown, U: su, V: sv, At: 40},
			}}}
		if ref := compareEngines(t, sp, c); !errors.Is(ref.err, ErrAllTreesLost) {
			t.Fatalf("expected ErrAllTreesLost from the reference loop, got %v", ref.err)
		}
	})
}

// fuzzBytes hands out fuzz input one byte at a time, as a choice in
// [0, n); an exhausted input reads as zeros.
type fuzzBytes []byte

func (b *fuzzBytes) pick(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// fuzzPlan builds a fault plan from the fuzz bytes: up to three faults of
// any of the six kinds, each from seven bytes (kind, tree link, router,
// activation, window, degraded bandwidth or storm period, storm repeat),
// with windows that may be invalid. It returns nil when the plan is empty
// or fails Validate, so the run goes fault-free.
func fuzzPlan(b *fuzzBytes, spec Spec) *faults.Plan {
	var edges [][2]int
	for _, t := range spec.Forest {
		for v, p := range t.Parent {
			if p >= 0 {
				edges = append(edges, [2]int{v, p})
			}
		}
	}
	p := &faults.Plan{}
	for i, n := 0, b.pick(4); i < n; i++ {
		f := faults.Fault{Kind: faults.Kind(b.pick(6))}
		e := edges[b.pick(len(edges))]
		f.U, f.V = e[0], e[1]
		f.Node = b.pick(spec.Topology.N())
		f.At = b.pick(120)
		if w := b.pick(80); w > 0 {
			f.Until = f.At + w - 8 // occasionally empty or inverted
		}
		x, y := b.pick(256), b.pick(4)
		switch f.Kind {
		case faults.LinkDegraded:
			f.Bandwidth = float64(x%9) / 8 // 0 is rejected by Validate
		case faults.LinkStorm:
			f.Period, f.Repeat = x%96, y
		}
		p.Faults = append(p.Faults, f)
	}
	if len(p.Faults) == 0 || p.Validate() != nil {
		return nil
	}
	return p
}

// fuzzBase is one of FuzzEngines' fabrics: a small PolarFly embedding
// whose split and inputs the fuzz bytes replace.
type fuzzBase struct {
	name string
	spec Spec
}

// fuzzBases builds FuzzEngines' fabrics: every embedding of q = 2…5, and
// last the q=5 Hamiltonian paths repeated as P0, P1, P0, P2, whose bare
// runs split into groups of several trees (repeatedPathSpec).
func fuzzBases(tb testing.TB) []fuzzBase {
	var bases []fuzzBase
	for _, q := range []int{2, 3, 4, 5} {
		for _, kind := range []string{"single", "lowdepth", "hamiltonian"} {
			if kind == "lowdepth" && q%2 == 0 {
				continue
			}
			bases = append(bases, fuzzBase{fmt.Sprintf("q=%d/%s", q, kind), benchSpec(tb, q, 8, kind)})
		}
	}
	return append(bases, fuzzBase{"q=5/hamiltonian-repeated", repeatedPathSpec(tb, make([]int, 4))})
}

// fuzzCase decodes one FuzzEngines input: the base fabric, the
// collective, the config, the fault plan (allreduce only) and last the
// split, with inputs drawn from the input's length.
func fuzzCase(bases []fuzzBase, data []byte) (string, Spec, Config) {
	b := fuzzBytes(data)
	bs := bases[b.pick(len(bases))]
	spec := bs.spec
	spec.Op = Op(b.pick(3))
	cfg := Config{LinkLatency: 1 + b.pick(6), VCDepth: 1 + b.pick(6), EngineRate: b.pick(3)}
	if plan := fuzzPlan(&b, spec); spec.Op == OpAllreduce {
		cfg.Faults = plan
	}
	spec.Split = make([]int, len(spec.Forest))
	m := 0
	for i := range spec.Split {
		spec.Split[i] = b.pick(25)
		m += spec.Split[i]
	}
	spec.Inputs = randInputs(spec.Topology.N(), m, int64(len(data)))
	return bs.name, spec, cfg
}

// switchingSeeds are FuzzEngines seeds on which the wake-set policy
// switches to visiting every link and back (TestWakePolicySwitches pins
// that they do): credit-bound fabrics (LinkLatency 6 above VCDepth 1, 2
// or 4) with the longest splits, fault-free and with a permanent
// link-down whose recovery round lands on a visit-all cycle (the third)
// and on a sparse one (the fourth). Bases 3, 7 and 8 are the q=3
// low-depth forest and the q=5 single tree and low-depth forest.
var switchingSeeds = [][]byte{
	{7, 0, 5, 0, 0, 0, 24},
	{8, 0, 5, 1, 0, 0, 24, 24, 24, 24, 24},
	{8, 0, 5, 1, 0, 1, 0, 5, 4, 40, 0, 70, 2, 24, 24, 24, 24, 24},
	{3, 0, 5, 3, 0, 1, 0, 5, 4, 70, 0, 70, 2, 24, 24, 24},
}

// FuzzEngines drives both advance policies against the reference loop on
// inputs the fixed matrices above never build. The fuzz bytes choose a
// small PolarFly and embedding, the collective, the fabric (LinkLatency
// 1–6, VCDepth 1–6, EngineRate 0–2), a fault plan over all six fault
// kinds (applied to allreduce only), and last a split of the vector over
// the trees, zero entries included (fuzzCase). Every policy must
// reproduce the reference run byte for byte (Result JSON, trace, frames,
// error text), and so must a bare run of each policy, which Run splits
// into independent groups unless the config couples the trees; every completed
// run must conserve flits (FlitsSent == DeliveredFlits + DroppedFlits)
// and have no more recovery rounds than dead trees, since each round
// aborts at least one live tree; and the link-major layout must match
// the reference construction (checkLinkLayout). The fixed matrices above
// stay as the deterministic seed set.
func FuzzEngines(f *testing.F) {
	bases := fuzzBases(f)
	// Seeds: a zero-length vector, each collective on a rate-limited
	// fabric and on the grouped repeated-path forest (base 10), one plan
	// per fault kind on the q=3 and q=5 low-depth forests (bases 3 and
	// 8), and the fabrics that switch wake order.
	f.Add([]byte{0})
	for op := byte(0); op < 3; op++ {
		f.Add([]byte{9, op, 3, 2, 2, 0, 15, 0, 10})
		f.Add([]byte{10, op, 3, 2, 0, 0, 9, 5, 7, 3})
	}
	for k := byte(0); k < 6; k++ {
		window := byte(30) // [40, 62)
		if k == byte(faults.LinkDown) || k == byte(faults.RouterDown) {
			window = 0 // permanent
		}
		f.Add([]byte{3 + 5*(k%2), 0, 2, 1, 0, 1, k, 5, 4, 40, window, 70, 2, 24, 24, 24, 24, 24})
	}
	for _, seed := range switchingSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		name, spec, cfg := fuzzCase(bases, data)
		checkLinkLayout(t, spec, cfg)
		ref := compareEngines(t, spec, cfg)
		if ref.err != nil {
			return
		}
		r := ref.res
		if r.FlitsSent != r.DeliveredFlits+r.DroppedFlits {
			t.Fatalf("%s: flits not conserved: sent %d, delivered %d, dropped %d",
				name, r.FlitsSent, r.DeliveredFlits, r.DroppedFlits)
		}
		if len(r.Recoveries) > len(r.DeadTrees) {
			t.Fatalf("%s: %d recovery rounds but only %d dead trees %v",
				name, len(r.Recoveries), len(r.DeadTrees), r.DeadTrees)
		}
	})
}

// runSwitching runs spec on the wake-set policy, captured and bare, checks
// both byte for byte against the reference loop, and returns the bare
// run's count of wake-order switches (evState.switches), which the
// captured run must match: the sampler's boundaries never change what a
// cycle sends.
func runSwitching(t *testing.T, spec Spec, cfg Config) int {
	t.Helper()
	cfg.Engine = EngineEvent
	var switches []int
	run := func(cfg Config) (*Result, error) {
		s, err := newSim(spec, cfg)
		if err != nil {
			return nil, err
		}
		now, err := s.advance()
		switches = append(switches, s.sched.switches)
		if err != nil {
			return nil, err
		}
		return s.finalize(now)
	}
	ref := runReference(spec, cfg)
	compareRuns(t, ref, capture(cfg, run), EngineEvent)
	var bare engineRun
	bare.res, bare.err = run(cfg)
	compareResults(t, ref, bare, EngineEvent, "event (bare)")
	if switches[0] != switches[1] {
		t.Fatalf("captured run switched %d times, bare run %d", switches[0], switches[1])
	}
	return switches[1]
}

// TestWakePolicySwitches pins the wake-set policy's change of order
// (adapt, visitAll, reseed) on runs that take each path, every one byte
// for byte against the reference loop: a Hamiltonian forwarding chain
// that goes dense once and thins out once at the drain; a credit-bound
// low-depth forest (LinkLatency 10 over VCDepth 4) whose density crosses
// both thresholds again and again; and a link-down whose recovery round
// lands on a sparse cycle of a fabric that never goes dense, so that
// cycle finishes visiting every link and the next is reseeded. The
// switching fuzz seeds must switch in both directions too.
func TestWakePolicySwitches(t *testing.T) {
	t.Run("once", func(t *testing.T) {
		t.Parallel()
		if sw := runSwitching(t, benchSpec(t, 7, 768, "hamiltonian"), Config{LinkLatency: 5, VCDepth: 8}); sw != 2 {
			t.Fatalf("switched %d times, want once to visiting every link and once back", sw)
		}
	})
	t.Run("credit-bound", func(t *testing.T) {
		t.Parallel()
		if sw := runSwitching(t, benchSpec(t, 7, 256, "lowdepth"), Config{LinkLatency: 10, VCDepth: 4}); sw < 10 {
			t.Fatalf("switched %d times, want at least 10", sw)
		}
	})
	t.Run("recovery-on-sparse-cycle", func(t *testing.T) {
		t.Parallel()
		spec := benchSpec(t, 7, 256, "hamiltonian")
		cfg := Config{LinkLatency: 10, VCDepth: 16}
		if sw := runSwitching(t, spec, cfg); sw != 0 {
			t.Fatalf("fault-free run switched %d times, want a fabric that stays sparse", sw)
		}
		u, v := firstTreeEdge(spec)
		cfg.Faults = &faults.Plan{Faults: []faults.Fault{{Kind: faults.LinkDown, U: u, V: v, At: 200}}}
		if sw := runSwitching(t, spec, cfg); sw != 2 {
			t.Fatalf("faulted run switched %d times, want the recovery cycle to visit every link and the next to reseed", sw)
		}
	})
	t.Run("fuzz-seeds", func(t *testing.T) {
		t.Parallel()
		bases := fuzzBases(t)
		for _, seed := range switchingSeeds {
			name, spec, cfg := fuzzCase(bases, seed)
			if sw := runSwitching(t, spec, cfg); sw < 2 {
				t.Errorf("seed %v (%s): switched %d times, want both directions", seed, name, sw)
			}
		}
	})
}
