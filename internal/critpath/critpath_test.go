package critpath

import (
	"strings"
	"testing"

	"polarfly/internal/core"
	"polarfly/internal/faults"
	"polarfly/internal/netsim"
	"polarfly/internal/obsv"
	"polarfly/internal/workload"
)

func runWithBuilder(t *testing.T, q int, kind core.EmbeddingKind, m int, cfg netsim.Config) (*Builder, *core.AllreduceResult, *obsv.Report) {
	t.Helper()
	inst, err := core.NewInstance(q)
	if err != nil {
		t.Fatalf("NewInstance(%d): %v", q, err)
	}
	e, err := inst.Embed(kind)
	if err != nil {
		t.Fatalf("Embed(%v): %v", kind, err)
	}
	inputs := workload.Vectors(inst.N(), m, 1000, core.DefaultSeed)
	b := NewBuilder()
	col := obsv.NewCollector()
	col.Attach(&cfg)
	b.Attach(&cfg) // chained in front of the collector
	res, err := inst.Allreduce(e, inputs, cfg)
	if err != nil {
		t.Fatalf("Allreduce: %v", err)
	}
	col.SetCycles(res.Cycles)
	return b, res, col.Report()
}

func TestConservationFaultFree(t *testing.T) {
	for _, kind := range []core.EmbeddingKind{core.SingleTree, core.LowDepth, core.Hamiltonian} {
		for _, cfg := range []netsim.Config{
			{LinkLatency: 1, VCDepth: 4},
			{LinkLatency: 3, VCDepth: 2}, // VCDepth < latency: credit stalls guaranteed
			{LinkLatency: 2, VCDepth: 8},
		} {
			b, res, _ := runWithBuilder(t, 3, kind, 96, cfg)
			a, err := b.Analyze(res.Cycles)
			if err != nil {
				t.Fatalf("%v %+v: Analyze: %v", kind, cfg, err)
			}
			total := 0
			for _, e := range a.Blame {
				total += e.Cycles
			}
			if total != res.Cycles {
				t.Errorf("%v %+v: blame sums to %d, want %d", kind, cfg, total, res.Cycles)
			}
			if a.Unattributed != 0 {
				t.Errorf("%v %+v: unattributed residue %d, want 0", kind, cfg, a.Unattributed)
			}
			if a.RecoveriesOnPath != 0 {
				t.Errorf("%v %+v: fault-free run traversed %d recoveries", kind, cfg, a.RecoveriesOnPath)
			}
			if len(a.TopSerialization) == 0 {
				t.Errorf("%v %+v: no serialization blame recorded", kind, cfg)
			}
		}
	}
}

func TestCreditStallBlameAppears(t *testing.T) {
	// VCDepth 2 with latency 3 cannot cover the latency-bandwidth
	// product, so the pipeline throttles on credit and the path must
	// blame the credit window for part of the run.
	b, res, _ := runWithBuilder(t, 3, core.Hamiltonian, 128, netsim.Config{LinkLatency: 3, VCDepth: 2})
	a, err := b.Analyze(res.Cycles)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if got := a.BlameCycles("credit-stall"); got == 0 {
		t.Errorf("credit-starved run attributed no credit-stall cycles (blame %v)", a.Blame)
	}
}

func TestSerializationDominatesAtLargeM(t *testing.T) {
	b, res, _ := runWithBuilder(t, 3, core.Hamiltonian, 2048, netsim.Config{LinkLatency: 1, VCDepth: 4})
	a, err := b.Analyze(res.Cycles)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if got := a.DominantClass(); got != "serialization" {
		t.Errorf("dominant class %q, want serialization (blame %v)", got, a.Blame)
	}
	// The bottleneck link's serialization blame should account for most
	// of the run at large m (the waterfill argument).
	if top := a.TopSerialization[0]; top.Cycles < res.Cycles/2 {
		t.Errorf("top serialization link %d→%d explains only %d of %d cycles",
			top.From, top.To, top.Cycles, res.Cycles)
	}
}

func TestFaultedRecoveryBlameMatchesCollector(t *testing.T) {
	for _, kind := range []core.EmbeddingKind{core.LowDepth, core.Hamiltonian} {
		inst, err := core.NewInstance(3)
		if err != nil {
			t.Fatalf("NewInstance: %v", err)
		}
		e, err := inst.Embed(kind)
		if err != nil {
			t.Fatalf("Embed: %v", err)
		}
		link, _, err := core.WorstCaseLink(e)
		if err != nil {
			t.Fatalf("WorstCaseLink: %v", err)
		}
		cfg := netsim.Config{
			LinkLatency: 1, VCDepth: 4,
			Faults: &faults.Plan{Faults: []faults.Fault{{
				Kind: faults.LinkDown, U: link[0], V: link[1], At: 100,
			}}},
		}
		inputs := workload.Vectors(inst.N(), 512, 1000, core.DefaultSeed)
		b := NewBuilder()
		col := obsv.NewCollector()
		col.Attach(&cfg)
		b.Attach(&cfg)
		res, err := inst.Allreduce(e, inputs, cfg)
		if err != nil {
			t.Fatalf("%v: Allreduce: %v", kind, err)
		}
		col.SetCycles(res.Cycles)
		rep := col.Report()
		if len(rep.Recoveries) == 0 {
			t.Fatalf("%v: fault plan produced no recovery", kind)
		}
		a, err := b.Analyze(res.Cycles)
		if err != nil {
			t.Fatalf("%v: Analyze: %v", kind, err)
		}
		if a.Unattributed != 0 {
			t.Errorf("%v: unattributed residue %d, want 0", kind, a.Unattributed)
		}
		if a.RecoveriesOnPath != len(rep.Recoveries) {
			t.Errorf("%v: path traversed %d recoveries, collector measured %d",
				kind, a.RecoveriesOnPath, len(rep.Recoveries))
		}
		measured := 0
		for _, r := range rep.Recoveries {
			measured += r.LatencyCycles
		}
		blamed := a.BlameCycles("fault-detect") + a.BlameCycles("recovery")
		if blamed != measured {
			t.Errorf("%v: fault-detect+recovery blame %d != measured recovery latency %d",
				kind, blamed, measured)
		}
		if a.RecoveryLatencyCycles != measured {
			t.Errorf("%v: RecoveryLatencyCycles %d != measured %d", kind, a.RecoveryLatencyCycles, measured)
		}
	}
}

// treeLinkOther returns a canonical (u < v) tree link of forest tree ti
// different from avoid.
func treeLinkOther(t *testing.T, e *core.Embedding, ti int, avoid [2]int) [2]int {
	t.Helper()
	for v, p := range e.Forest[ti].Parent {
		if p < 0 {
			continue
		}
		l := [2]int{v, p}
		if l[0] > l[1] {
			l[0], l[1] = l[1], l[0]
		}
		if l != avoid {
			return l
		}
	}
	t.Fatalf("tree %d has no link other than %v", ti, avoid)
	return [2]int{}
}

// TestTwoRecoveryConservation is the nested-recovery contract: a second
// link failure landing while the first recovery's re-issues are still in
// flight forces a second round, and the blame split must still telescope
// to exactly Result.Cycles with zero residue, with the fault-detect +
// recovery blame equal to the collector's measured latency summed over
// exactly the traversed rounds.
func TestTwoRecoveryConservation(t *testing.T) {
	inst, err := core.NewInstance(5)
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	e, err := inst.Embed(core.LowDepth)
	if err != nil {
		t.Fatalf("Embed: %v", err)
	}
	inputs := workload.Vectors(inst.N(), 3000, 1000, core.DefaultSeed)
	linkA := treeLinkOther(t, e, 0, [2]int{-1, -1})

	// Probe: learn when the first recovery lands and which trees it kills.
	probe, err := inst.Allreduce(e, inputs, netsim.Config{
		LinkLatency: 3, VCDepth: 6,
		Faults: &faults.Plan{Faults: []faults.Fault{
			{Kind: faults.LinkDown, U: linkA[0], V: linkA[1], At: 200},
		}},
	})
	if err != nil {
		t.Fatalf("probe Allreduce: %v", err)
	}
	if len(probe.Recoveries) == 0 {
		t.Fatal("probe fault produced no recovery")
	}
	rc := probe.Recoveries[0].Cycle
	dead := make(map[int]bool)
	for _, ti := range probe.DeadTrees {
		dead[ti] = true
	}
	survivor := -1
	for ti := range e.Forest {
		if !dead[ti] {
			survivor = ti
			break
		}
	}
	if survivor < 0 {
		t.Fatal("probe fault killed every tree")
	}
	linkB := treeLinkOther(t, e, survivor, linkA)

	// Real run: the second failure hits a survivor's link 50 cycles after
	// the first recovery, while its re-issued traffic is in flight.
	cfg := netsim.Config{
		LinkLatency: 3, VCDepth: 6,
		Faults: &faults.Plan{Faults: []faults.Fault{
			{Kind: faults.LinkDown, U: linkA[0], V: linkA[1], At: 200},
			{Kind: faults.LinkDown, U: linkB[0], V: linkB[1], At: rc + 50},
		}},
	}
	b := NewBuilder()
	col := obsv.NewCollector()
	col.Attach(&cfg)
	b.Attach(&cfg)
	res, err := inst.Allreduce(e, inputs, cfg)
	if err != nil {
		t.Fatalf("Allreduce: %v", err)
	}
	if len(res.Recoveries) < 2 {
		t.Fatalf("staggered plan produced %d recoveries, want ≥ 2", len(res.Recoveries))
	}
	col.SetCycles(res.Cycles)
	rep := col.Report()
	a, err := b.Analyze(res.Cycles)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	total := 0
	for _, be := range a.Blame {
		total += be.Cycles
	}
	if total != res.Cycles {
		t.Errorf("blame sums to %d, want exactly %d", total, res.Cycles)
	}
	if a.Unattributed != 0 {
		t.Errorf("unattributed residue %d, want 0", a.Unattributed)
	}
	segSum := 0
	for _, s := range a.Segments {
		segSum += s.Cycles()
	}
	if segSum != res.Cycles {
		t.Errorf("segments sum to %d, want %d", segSum, res.Cycles)
	}
	if len(a.RecoveryRounds) != a.RecoveriesOnPath {
		t.Errorf("RecoveryRounds %v but RecoveriesOnPath %d", a.RecoveryRounds, a.RecoveriesOnPath)
	}
	traversed := 0
	for _, ri := range a.RecoveryRounds {
		if ri < 0 || ri >= len(rep.Recoveries) {
			t.Fatalf("traversed round index %d out of range (%d measured)", ri, len(rep.Recoveries))
		}
		traversed += rep.Recoveries[ri].LatencyCycles
	}
	blamed := a.BlameCycles("fault-detect") + a.BlameCycles("recovery")
	if blamed != traversed {
		t.Errorf("fault-detect+recovery blame %d != measured latency %d of traversed rounds %v",
			blamed, traversed, a.RecoveryRounds)
	}
}

func TestAnalyzeZeroCycles(t *testing.T) {
	b := NewBuilder()
	a, err := b.Analyze(0)
	if err != nil {
		t.Fatalf("Analyze(0): %v", err)
	}
	if len(a.Segments) != 0 || a.Cycles != 0 {
		t.Errorf("empty analysis not empty: %+v", a)
	}
}

func TestAnalyzeErrorsWithoutEvents(t *testing.T) {
	b := NewBuilder()
	if _, err := b.Analyze(10); err == nil {
		t.Error("Analyze on an empty trace should error, got nil")
	}
}

func TestSegmentsTelescope(t *testing.T) {
	b, res, _ := runWithBuilder(t, 3, core.LowDepth, 256, netsim.Config{LinkLatency: 2, VCDepth: 4})
	a, err := b.Analyze(res.Cycles)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	at := 0
	for i, s := range a.Segments {
		if s.Start != at {
			t.Fatalf("segment %d starts at %d, want %d", i, s.Start, at)
		}
		if s.End <= s.Start {
			t.Fatalf("segment %d empty or reversed: %+v", i, s)
		}
		at = s.End
	}
	if at != res.Cycles {
		t.Fatalf("segments end at %d, want %d", at, res.Cycles)
	}
}

func TestWriteMarkdown(t *testing.T) {
	b, res, _ := runWithBuilder(t, 3, core.Hamiltonian, 64, netsim.Config{LinkLatency: 1, VCDepth: 4})
	a, err := b.Analyze(res.Cycles)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	var sb strings.Builder
	if err := WriteMarkdown(&sb, a, 5); err != nil {
		t.Fatalf("WriteMarkdown: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"Critical path", "serialization", "**total**", "path segments"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}
