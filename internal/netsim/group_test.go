package netsim

import (
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"polarfly/internal/faults"
	"polarfly/internal/trees"
)

// repeatedPathSpec builds a forest whose groups hold several trees at
// non-contiguous indices: the q=5 Hamiltonian paths P0, P1, P0, P2, so
// trees 0 and 2 share every edge and form one group, and trees 1 and 3
// are groups of their own. Neither the Hamiltonian nor the low-depth
// forest builds such a group.
func repeatedPathSpec(tb testing.TB, split []int) Spec {
	tb.Helper()
	ham := benchSpec(tb, 5, 8, "hamiltonian")
	p := ham.Forest
	forest := []*trees.Tree{p[0], p[1], p[0], p[2]}
	m := 0
	for _, x := range split {
		m += x
	}
	return Spec{Topology: ham.Topology, Forest: forest, Split: split, Inputs: randInputs(ham.Topology.N(), m, int64(m))}
}

// groupsOf returns the partition Run makes of spec under cfg.
func groupsOf(t *testing.T, spec Spec, cfg Config) [][]int {
	t.Helper()
	r, err := prepare(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r.partition().groups
}

// compareGrouped asserts that a bare run of each wake policy, which Run
// splits into its groups, reproduces the reference loop's one sim of the
// whole forest byte for byte, and that its Arena equals the one-sim
// footprint component by component outside EventBytes.
func compareGrouped(t *testing.T, spec Spec, cfg Config) engineRun {
	t.Helper()
	ref := runReference(spec, cfg)
	if ref.err != nil {
		t.Fatal(ref.err)
	}
	for _, e := range []Engine{EngineCycle, EngineEvent} {
		got := runBare(spec, cfg, e)
		compareResults(t, ref, got, e, e.String()+" (grouped)")
		ga := got.res.Arena
		ga.TotalBytes -= ga.EventBytes
		ga.EventBytes = 0
		if ga != ref.res.Arena {
			t.Fatalf("%v: grouped arena %+v, one sim %+v", e, ga, ref.res.Arena)
		}
	}
	return ref
}

// TestGroupsHoldingSeveralTrees runs forests whose groups hold several
// trees at non-contiguous indices, with zero splits, under every
// collective and both wake policies, against the reference loop: the
// merge must rebuild the one-sim Result exactly, PeakBufferFlits,
// TreeDone and LinkStats' Utilization included.
func TestGroupsHoldingSeveralTrees(t *testing.T) {
	splits := [][]int{
		{9, 5, 7, 3},
		{0, 6, 11, 0},
		{8, 0, 0, 4},
		{0, 0, 0, 0},
	}
	for _, split := range splits {
		spec := repeatedPathSpec(t, split)
		if got, want := groupsOf(t, spec, Config{LinkLatency: 3, VCDepth: 2}), [][]int{{0, 2}, {1}, {3}}; !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("groups %v, want %v", got, want)
		}
		for _, op := range []Op{OpAllreduce, OpReduce, OpBroadcast} {
			for _, cfg := range []Config{{LinkLatency: 3, VCDepth: 2}, {LinkLatency: 1, VCDepth: 1}, {LinkLatency: 6, VCDepth: 9}} {
				sp := spec
				sp.Op = op
				t.Run(fmt.Sprintf("split=%v/%v/L=%d,VC=%d", split, op, cfg.LinkLatency, cfg.VCDepth), func(t *testing.T) {
					t.Parallel()
					ref := compareGrouped(t, sp, cfg)
					r := ref.res
					if split[0]+split[2] > 0 && r.PeakBufferFlits == 0 {
						t.Fatalf("PeakBufferFlits 0 on a run that buffers")
					}
					if r.Cycles > 0 && r.MaxLinkUtilization() == 0 {
						t.Fatalf("no link utilization on a %d-cycle run", r.Cycles)
					}
				})
			}
		}
	}
}

// TestPartition pins the groups Run makes: one per path of the paper's
// Hamiltonian forest (congestion 1), one for the single tree and for
// every low-depth forest, and one for a Hamiltonian run whose config
// couples its trees (a trace, a sampler, a fault plan or a capped
// engine).
func TestPartition(t *testing.T) {
	cfg := Config{LinkLatency: 3, VCDepth: 2}
	for _, q := range []int{3, 5, 7, 11} {
		for _, kind := range []string{"single", "lowdepth", "hamiltonian"} {
			spec := benchSpec(t, q, 64, kind)
			want := 1
			if kind == "hamiltonian" {
				want = len(spec.Forest)
			}
			groups := groupsOf(t, spec, cfg)
			if len(groups) != want {
				t.Errorf("q=%d %s: %d groups of %d trees, want %d", q, kind, len(groups), len(spec.Forest), want)
			}
			var all []int
			for _, g := range groups {
				all = append(all, g...)
			}
			slices.Sort(all)
			for i, ti := range all {
				if ti != i || len(all) != len(spec.Forest) {
					t.Errorf("q=%d %s: groups %v do not cover the %d trees once each", q, kind, groups, len(spec.Forest))
					break
				}
			}
		}
		spec := benchSpec(t, q, 64, "hamiltonian")
		link := firstTreeLink(spec, 0)
		for _, c := range []struct {
			name string
			cfg  Config
		}{
			{"traced", Config{Trace: func(TraceEvent) {}}},
			{"sampled", Config{SampleEvery: 8, Sample: func(*SampleFrame) {}}},
			{"faulted", Config{Faults: &faults.Plan{Faults: []faults.Fault{{Kind: faults.LinkDown, U: link[0], V: link[1], At: 10}}}}},
			{"engine-rate", Config{EngineRate: 1}},
		} {
			c.cfg.LinkLatency, c.cfg.VCDepth = cfg.LinkLatency, cfg.VCDepth
			if groups := groupsOf(t, spec, c.cfg); len(groups) != 1 {
				t.Errorf("q=%d hamiltonian %s: %d groups, want 1", q, c.name, len(groups))
			}
		}
	}
}

// TestGroupedRunWorkerCount runs grouped forests under GOMAXPROCS 1 and 2,
// so on one worker and on two, and requires identical Results.
func TestGroupedRunWorkerCount(t *testing.T) {
	specs := []Spec{benchSpec(t, 7, 512, "hamiltonian"), repeatedPathSpec(t, []int{40, 0, 25, 31})}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, spec := range specs {
		for _, e := range []Engine{EngineCycle, EngineEvent} {
			cfg := Config{LinkLatency: 4, VCDepth: 3, Engine: e}
			var runs [2][]byte
			for i, procs := range []int{1, 2} {
				runtime.GOMAXPROCS(procs)
				res, err := Run(spec, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if runs[i], err = json.Marshal(res); err != nil {
					t.Fatal(err)
				}
			}
			if string(runs[0]) != string(runs[1]) {
				t.Fatalf("%d trees, %v: Results differ between GOMAXPROCS 1 and 2:\n%.2000s\n%.2000s",
					len(spec.Forest), e, runs[0], runs[1])
			}
		}
	}
}
