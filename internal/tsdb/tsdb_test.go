package tsdb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"polarfly/internal/bandwidth"
	"polarfly/internal/core"
	"polarfly/internal/faults"
	"polarfly/internal/netsim"
	"polarfly/internal/workload"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr string
	}{
		{"defaults", Config{SampleEvery: 16}, ""},
		{"explicit", Config{SampleEvery: 1, Windows: 4, Levels: 2, Factor: 2}, ""},
		{"no window", Config{}, "SampleEvery"},
		{"negative window", Config{SampleEvery: -4}, "SampleEvery"},
		{"bad ring", Config{SampleEvery: 16, Windows: -1}, "Windows"},
		{"bad levels", Config{SampleEvery: 16, Levels: -2}, "Levels"},
		{"bad factor", Config{SampleEvery: 16, Factor: 1}, "Factor"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.cfg)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("New(%+v) = %v, want nil", tc.cfg, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("New(%+v) = %v, want error mentioning %q", tc.cfg, err, tc.wantErr)
			}
		})
	}
	if c, _ := (Config{SampleEvery: 16}).withDefaults(); c.Windows != 64 || c.Levels != 3 || c.Factor != 8 {
		t.Fatalf("defaults = %+v, want Windows=64 Levels=3 Factor=8", c)
	}
}

// newSampler is New for a test's statically valid config.
func newSampler(tb testing.TB, cfg Config) *Sampler {
	tb.Helper()
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// baseTap records every base window the sampler hands its analyzer hook:
// the run-level window and a copy of its per-link flit deltas, which the
// sampler overwrites when the next window closes.
type baseTap struct {
	runs  []RunWindow
	flits [][]uint32
}

// attach wraps s's base-window hook, chaining any analyzer already
// attached.
func (b *baseTap) attach(s *Sampler) {
	inner := s.onWindow
	s.onWindow = func(run RunWindow, flits []uint32) {
		b.runs = append(b.runs, run)
		b.flits = append(b.flits, append([]uint32(nil), flits...))
		if inner != nil {
			inner(run, flits)
		}
	}
}

// sampledRun runs one simulated Allreduce with a sampler attached, and
// records its base windows into base when base is not nil.
func sampledRun(t testing.TB, q, m int, kind core.EmbeddingKind, scfg Config,
	plan *faults.Plan, base *baseTap) (*core.Embedding, *core.AllreduceResult, *Sampler, *Analyzer) {
	t.Helper()
	inst, err := core.NewInstance(q)
	if err != nil {
		t.Fatal(err)
	}
	e, err := inst.Embed(kind)
	if err != nil {
		t.Fatal(err)
	}
	s := newSampler(t, scfg)
	a := NewAnalyzer(s, AnalyzerConfig{
		Tolerance: 0.1,
		Bounds: Bounds{
			Nodes:     inst.N(),
			Aggregate: e.Model.Aggregate,
			Optimal:   bandwidth.Optimal(q, 1.0),
			Floor:     floorFor(q, kind, e),
			FaultFree: plan == nil,
		},
	})
	if base != nil {
		base.attach(s)
	}
	cfg := netsim.Config{LinkLatency: 2, VCDepth: 4,
		SampleEvery: scfg.SampleEvery, Sample: s.Sample, Faults: plan}
	inputs := workload.Vectors(inst.N(), m, 100, int64(q))
	res, err := inst.Allreduce(e, inputs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, res, s, a
}

// floorFor is the construction's guaranteed bandwidth (§7).
func floorFor(q int, kind core.EmbeddingKind, e *core.Embedding) float64 {
	switch kind {
	case core.LowDepth:
		return bandwidth.LowDepthBound(q, 1.0)
	case core.Hamiltonian:
		return bandwidth.HamiltonianBound(len(e.Forest), 1.0)
	}
	return 0
}

// TestConservation pins exact reconciliation: for every design point
// and embedding, the per-link flit deltas the analyzer hook receives sum
// EXACTLY to the end-of-run Result.LinkStats counters, and the run-level
// windows of a fully retained resolution level sum exactly to the run
// totals — no quantization, no loss at ring wrap, no loss in the
// downsampling cascade.
func TestConservation(t *testing.T) {
	kinds := []core.EmbeddingKind{core.SingleTree, core.LowDepth, core.Hamiltonian}
	for _, q := range []int{3, 5, 7, 11} {
		for _, kind := range kinds {
			t.Run(fmt.Sprintf("q=%d/%v", q, kind), func(t *testing.T) {
				scfg := Config{SampleEvery: 16, Windows: 16, Levels: 3, Factor: 4}
				base := &baseTap{}
				_, res, s, _ := sampledRun(t, q, 256, kind, scfg, nil, base)
				if !s.Finished() {
					t.Fatal("sampler never saw the final frame")
				}
				// The finest level that retained its whole history.
				lvl := -1
				for l := 0; l < s.Levels(); l++ {
					if s.TotalWindows(l) <= s.Retained(l) {
						lvl = l
						break
					}
				}
				if lvl < 0 {
					t.Fatalf("no level retained full history (%d cycles)", res.Cycles)
				}
				if lvl > 0 && s.TotalWindows(0) <= scfg.Windows {
					t.Logf("note: base ring did not wrap (%d windows)", s.TotalWindows(0))
				}
				nlinks := len(s.Links())
				if nlinks != len(res.LinkStats) {
					t.Fatalf("%d sampled links vs %d LinkStats", nlinks, len(res.LinkStats))
				}
				if len(base.runs) != s.TotalWindows(0) {
					t.Fatalf("hook saw %d base windows, level 0 closed %d", len(base.runs), s.TotalWindows(0))
				}
				sums := make([]int, nlinks)
				for _, flits := range base.flits {
					for j, f := range flits {
						sums[j] += int(f)
					}
				}
				for j, ls := range res.LinkStats {
					key := s.Links()[j]
					if key[0] != ls.From || key[1] != ls.To {
						t.Fatalf("link %d order mismatch: %v vs %d->%d", j, key, ls.From, ls.To)
					}
					if sums[j] != ls.Flits {
						t.Errorf("link %d->%d base-window flits sum to %d, LinkStats %d",
							ls.From, ls.To, sums[j], ls.Flits)
					}
				}
				delivered, flits, dropped := 0, 0, 0
				for i := 0; i < s.Retained(lvl); i++ {
					run := s.Window(lvl, i)
					delivered += run.Delivered
					flits += run.Flits
					dropped += run.Dropped
				}
				if flits != res.FlitsSent {
					t.Errorf("window Flits sum to %d, want %d", flits, res.FlitsSent)
				}
				if dropped != res.DroppedFlits {
					t.Errorf("window Dropped sum to %d, want %d", dropped, res.DroppedFlits)
				}
				if want := len(res.Outputs) * 256; delivered != want {
					t.Errorf("window Delivered sum to %d, want N*m = %d", delivered, want)
				}
			})
		}
	}
}

// TestCascade pins the downsampling arithmetic: a coarser window is the
// exact sum of its child windows, its flits are its children's per-link
// flit deltas summed, and its hottest link is the hottest of those
// deltas — the earliest child's, then the first link's, on a tie.
func TestCascade(t *testing.T) {
	scfg := Config{SampleEvery: 8, Windows: 64, Levels: 2, Factor: 4}
	base := &baseTap{}
	_, _, s, _ := sampledRun(t, 3, 128, core.LowDepth, scfg, nil, base)
	if s.TotalWindows(1) < 2 {
		t.Fatalf("need ≥ 2 coarse windows, got %d (cycles=%d)", s.TotalWindows(1), s.Cycles())
	}
	if d := s.LevelDuration(1); d != 32 {
		t.Fatalf("level 1 duration %d, want 32", d)
	}
	if len(base.runs) != s.TotalWindows(0) {
		t.Fatalf("hook saw %d base windows, level 0 closed %d", len(base.runs), s.TotalWindows(0))
	}
	// Both levels fully retained here, so child groups line up directly.
	for ci := 0; ci < s.TotalWindows(1); ci++ {
		crun := s.Window(1, ci)
		var frun RunWindow
		linkFlits, best, bestLink := 0, 0.0, -1
		nchild := 0
		for fi := ci * 4; fi < (ci+1)*4 && fi < s.TotalWindows(0); fi++ {
			run := s.Window(0, fi)
			if run != base.runs[fi] {
				t.Fatalf("level 0 window %d = %+v, hook saw %+v", fi, run, base.runs[fi])
			}
			if nchild == 0 {
				frun = run
			} else {
				frun.End = run.End
				frun.Flits += run.Flits
				frun.Delivered += run.Delivered
			}
			dur := float64(run.End - run.Start)
			for j, f := range base.flits[fi] {
				linkFlits += int(f)
				if u := float64(f) / dur; u > best {
					best, bestLink = u, j
				}
			}
			nchild++
		}
		if crun.Start != frun.Start || crun.End != frun.End ||
			crun.Flits != frun.Flits || crun.Delivered != frun.Delivered {
			t.Fatalf("coarse window %d = %+v disagrees with child sum %+v", ci, crun, frun)
		}
		if nchild < 4 && !crun.Partial {
			t.Errorf("coarse window %d has %d children but is not partial", ci, nchild)
		}
		if linkFlits != crun.Flits {
			t.Fatalf("coarse window %d injected %d flits, its children's links %d", ci, crun.Flits, linkFlits)
		}
		want := [2]int{-1, -1}
		if bestLink >= 0 {
			want = s.Links()[bestLink]
		}
		if crun.MaxLinkUtil != best || crun.MaxLinkFrom != want[0] || crun.MaxLinkTo != want[1] {
			t.Fatalf("coarse window %d hottest link %d->%d at %v, children's hottest %v at %v",
				ci, crun.MaxLinkFrom, crun.MaxLinkTo, crun.MaxLinkUtil, want, best)
		}
	}
}

// TestFootprintIndependence is the bounded-memory guarantee: the same
// spec run 8× longer (larger m ⇒ more cycles ⇒ more windows ⇒ ring
// wraps) has the identical sampler footprint.
func TestFootprintIndependence(t *testing.T) {
	scfg := Config{SampleEvery: 8, Windows: 8, Levels: 3, Factor: 4}
	_, resShort, sShort, _ := sampledRun(t, 5, 256, core.LowDepth, scfg, nil, nil)
	_, resLong, sLong, _ := sampledRun(t, 5, 2048, core.LowDepth, scfg, nil, nil)
	if resLong.Cycles <= resShort.Cycles {
		t.Fatalf("long run (%d cycles) not longer than short (%d)", resLong.Cycles, resShort.Cycles)
	}
	if sLong.TotalWindows(0) <= scfg.Windows {
		t.Fatalf("long run closed only %d base windows; ring never wrapped", sLong.TotalWindows(0))
	}
	fpShort, fpLong := sShort.FootprintBytes(), sLong.FootprintBytes()
	if fpShort != fpLong {
		t.Fatalf("footprint grew with run length: %d bytes vs %d", fpShort, fpLong)
	}
	if fpShort <= 0 {
		t.Fatal("degenerate footprint")
	}
}

// TestFootprintPerLink pins what the sampler keeps per link: at a fixed
// Config, FootprintBytes grows by at most 32 bytes per directed link
// however many windows and levels the rings hold — the previous
// cumulative flit count and one window's flit delta, never a ring.
func TestFootprintPerLink(t *testing.T) {
	const small, large = 4, 1004
	for _, cfg := range []Config{
		{SampleEvery: 4}, // the defaults: 3 levels × 64 windows
		{SampleEvery: 4, Windows: 1, Levels: 1, Factor: 2},
		{SampleEvery: 4, Windows: 512, Levels: 6, Factor: 2},
	} {
		footprint := func(nlinks int) int {
			s := newSampler(t, cfg)
			feedFrames(s, cfg.SampleEvery, nlinks, 3)
			return s.FootprintBytes()
		}
		if grow := footprint(large) - footprint(small); grow > 32*(large-small) {
			t.Errorf("%+v: footprint grows %d bytes over %d links, want ≤ 32 per link",
				cfg, grow, large-small)
		}
	}
}

// TestSamplerReset pins run-to-run reuse: resetting and replaying the
// same spec yields identical series with zero additional footprint.
func TestSamplerReset(t *testing.T) {
	inst, err := core.NewInstance(3)
	if err != nil {
		t.Fatal(err)
	}
	e, err := inst.Embed(core.LowDepth)
	if err != nil {
		t.Fatal(err)
	}
	s := newSampler(t, Config{SampleEvery: 8, Windows: 16, Levels: 2, Factor: 4})
	inputs := workload.Vectors(inst.N(), 128, 100, 7)
	cfg := netsim.Config{LinkLatency: 2, VCDepth: 4, SampleEvery: 8, Sample: s.Sample}
	if _, err := inst.Allreduce(e, inputs, cfg); err != nil {
		t.Fatal(err)
	}
	first := BuildSnapshot(s, nil, SnapshotMeta{Nodes: inst.N()})
	fp := s.FootprintBytes()
	s.Reset()
	if s.Finished() {
		t.Fatal("Reset left the sampler finished")
	}
	if _, err := inst.Allreduce(e, inputs, cfg); err != nil {
		t.Fatal(err)
	}
	second := BuildSnapshot(s, nil, SnapshotMeta{Nodes: inst.N()})
	b1, _ := json.Marshal(first)
	b2, _ := json.Marshal(second)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("replay after Reset diverged:\n%s\nvs\n%s", b1, b2)
	}
	if got := s.FootprintBytes(); got != fp {
		t.Fatalf("footprint changed across Reset: %d vs %d", got, fp)
	}
}

// TestAnalyzerFaultDetection pins the tentpole's fault story: onset and
// recovery latency recovered purely from windowed telemetry match the
// simulator's recovery record exactly.
func TestAnalyzerFaultDetection(t *testing.T) {
	inst, err := core.NewInstance(5)
	if err != nil {
		t.Fatal(err)
	}
	e, err := inst.Embed(core.LowDepth)
	if err != nil {
		t.Fatal(err)
	}
	var u, v int
	for w, p := range e.Forest[0].Parent {
		if p >= 0 {
			u, v = w, p
			break
		}
	}
	plan := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.LinkDown, U: u, V: v, At: 40},
	}}
	scfg := Config{SampleEvery: 8, Windows: 64, Levels: 2, Factor: 4}
	s := newSampler(t, scfg)
	a := NewAnalyzer(s, AnalyzerConfig{Bounds: Bounds{Nodes: inst.N()}})
	inputs := workload.Vectors(inst.N(), 256, 100, 5)
	res, err := inst.Allreduce(e, inputs, netsim.Config{LinkLatency: 2, VCDepth: 4,
		SampleEvery: 8, Sample: s.Sample, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recoveries) == 0 {
		t.Fatal("fault plan caused no recovery")
	}
	rep := a.Report()
	if len(rep.Faults) != 1 || rep.Faults[0].Cycle != 40 {
		t.Fatalf("telemetry faults = %+v, want one at cycle 40", rep.Faults)
	}
	if lag := rep.Faults[0].ObservedEnd - rep.Faults[0].Cycle; lag < 0 || lag > scfg.SampleEvery {
		t.Errorf("detection lag %d outside [0, %d]", lag, scfg.SampleEvery)
	}
	if len(rep.Recoveries) != len(res.Recoveries) {
		t.Fatalf("telemetry saw %d recoveries, simulator recorded %d",
			len(rep.Recoveries), len(res.Recoveries))
	}
	for i, r := range rep.Recoveries {
		want := res.Recoveries[i]
		if r.Cycle != want.Cycle {
			t.Errorf("recovery %d at cycle %d, want %d", i, r.Cycle, want.Cycle)
		}
		if wantLat := want.Cycle - 40; r.Latency != wantLat {
			t.Errorf("recovery %d latency %d, want %d", i, r.Latency, wantLat)
		}
	}
	// The fault's drops survive the cascade: every level that retains its
	// whole history sums to the run's total.
	if res.DroppedFlits == 0 {
		t.Fatal("fault dropped no flits")
	}
	for l := 0; l < s.Levels(); l++ {
		if s.TotalWindows(l) > s.Retained(l) {
			continue
		}
		dropped := 0
		for i := 0; i < s.Retained(l); i++ {
			dropped += s.Window(l, i).Dropped
		}
		if dropped != res.DroppedFlits {
			t.Errorf("level %d windows drop %d flits, run dropped %d", l, dropped, res.DroppedFlits)
		}
	}
}

// TestBoundsFaultFree is the acceptance criterion: on fault-free runs of
// both constructions, the cumulative delivered rate never exceeds the
// tolerance-adjusted Algorithm 1 / Corollary 7.1 ceilings, and the
// finish-time rate clears the Theorem 7.6 / 7.19 floor.
func TestBoundsFaultFree(t *testing.T) {
	for _, kind := range []core.EmbeddingKind{core.LowDepth, core.Hamiltonian} {
		t.Run(kind.String(), func(t *testing.T) {
			scfg := Config{SampleEvery: 32, Windows: 64, Levels: 3, Factor: 8}
			e, res, _, a := sampledRun(t, 7, 4096, kind, scfg, nil, nil)
			rep := a.Report()
			if rep.ViolationCount != 0 {
				t.Fatalf("bound violations on a fault-free run: %+v", rep.Violations)
			}
			if rep.FinalRate <= 0 {
				t.Fatal("no final rate computed")
			}
			// The measured rate itself sits between floor and aggregate.
			if fl := floorFor(7, kind, e); rep.FinalRate < fl*0.9 {
				t.Errorf("final rate %.3f below floor %.3f-tolerance (cycles=%d)",
					rep.FinalRate, fl, res.Cycles)
			}
			if rep.FinalRate > e.Model.Aggregate*1.1 {
				t.Errorf("final rate %.3f above aggregate %.3f+tolerance",
					rep.FinalRate, e.Model.Aggregate)
			}
		})
	}
}

// TestAnalyzerHotspots sanity-checks the congestion side: top-k entries
// are sorted, utilizations are in range, and the per-link predicted
// comparison wires through.
func TestAnalyzerHotspots(t *testing.T) {
	inst, err := core.NewInstance(5)
	if err != nil {
		t.Fatal(err)
	}
	e, err := inst.Embed(core.LowDepth)
	if err != nil {
		t.Fatal(err)
	}
	s := newSampler(t, Config{SampleEvery: 16, Windows: 8, Levels: 2, Factor: 4})
	a := NewAnalyzer(s, AnalyzerConfig{TopK: 4,
		Bounds:    Bounds{Nodes: inst.N()},
		Predicted: core.ModelLinkLoads(e)})
	inputs := workload.Vectors(inst.N(), 512, 100, 9)
	if _, err := inst.Allreduce(e, inputs, netsim.Config{LinkLatency: 2, VCDepth: 4,
		SampleEvery: 16, Sample: s.Sample}); err != nil {
		t.Fatal(err)
	}
	rep := a.Report()
	if len(rep.Hotspots) == 0 {
		t.Fatal("no hotspot windows recorded")
	}
	if len(rep.Hotspots) > 8 {
		t.Fatalf("hotspot ring retained %d windows, cap is 8", len(rep.Hotspots))
	}
	for _, hw := range rep.Hotspots {
		for i, h := range hw.Top {
			if h.Util < 0 || h.Util > 1.0+1e-9 {
				t.Errorf("window (%d,%d] util %.3f out of range", hw.Start, hw.End, h.Util)
			}
			if i > 0 && h.Util > hw.Top[i-1].Util {
				t.Errorf("window (%d,%d] top-k not sorted", hw.Start, hw.End)
			}
		}
	}
	if len(rep.TopLinks) == 0 || rep.TopLinks[0].PeakUtil <= 0 {
		t.Fatalf("top links missing: %+v", rep.TopLinks)
	}
	// Steady-state windows should not beat the Algorithm 1 prediction by
	// more than tolerance on the hottest link of the whole run.
	pred := core.ModelLinkLoads(e)
	top := rep.TopLinks[0]
	if p := pred[[2]int{top.From, top.To}]; p > 0 && top.PeakUtil > p*1.5 {
		t.Errorf("peak util %.3f far above prediction %.3f for %d->%d",
			top.PeakUtil, p, top.From, top.To)
	}
}

// TestSnapshotTimeline pins the snapshot document: schema, full-run
// coverage at the chosen resolution, phase labels, and a deterministic
// markdown rendering.
func TestSnapshotTimeline(t *testing.T) {
	scfg := Config{SampleEvery: 16, Windows: 16, Levels: 3, Factor: 4}
	e, res, s, a := sampledRun(t, 5, 4096, core.Hamiltonian, scfg, nil, nil)
	meta := SnapshotMeta{Q: 5, Kind: "hamiltonian", M: 4096, Nodes: len(res.Outputs),
		Aggregate: e.Model.Aggregate, Optimal: bandwidth.Optimal(5, 1.0),
		Floor: floorFor(5, core.Hamiltonian, e)}
	sn := BuildSnapshot(s, a, meta)
	if sn.Schema != SnapshotSchema {
		t.Fatalf("schema %q, want %q", sn.Schema, SnapshotSchema)
	}
	if len(sn.Points) == 0 {
		t.Fatal("no timeline points")
	}
	if sn.Points[0].Start != 0 || sn.Points[len(sn.Points)-1].End != res.Cycles {
		t.Fatalf("points cover (%d,%d], want (0,%d]", sn.Points[0].Start,
			sn.Points[len(sn.Points)-1].End, res.Cycles)
	}
	for i := 1; i < len(sn.Points); i++ {
		if sn.Points[i].Start != sn.Points[i-1].End {
			t.Fatalf("gap between points %d and %d", i-1, i)
		}
	}
	// Reduce and broadcast pipeline per-element, so steady-state windows
	// are "mixed"; the tail of the run drains as pure broadcast.
	valid := map[string]bool{"reduce": true, "bcast": true, "mixed": true, "drain": true}
	for _, p := range sn.Points {
		if !valid[p.Phase] {
			t.Fatalf("unknown phase label %q", p.Phase)
		}
	}
	// At the chosen resolution (coarse enough to retain the whole run)
	// every window carries traffic, so labels must be traffic-bearing.
	if sn.Resolution <= scfg.SampleEvery {
		if last := sn.Points[len(sn.Points)-1].Phase; last != "bcast" && last != "drain" {
			t.Errorf("final base window phase %q, want a broadcast/drain tail", last)
		}
	}
	if sn.FootprintBytes != s.FootprintBytes() {
		t.Errorf("snapshot footprint %d != sampler %d", sn.FootprintBytes, s.FootprintBytes())
	}
	var md bytes.Buffer
	if err := sn.WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	out := md.String()
	for _, want := range []string{"## Telemetry timeline", "| window | phase |",
		"Hottest links", "No bound violations"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}
