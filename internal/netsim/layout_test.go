package netsim

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"polarfly/internal/er"
	"polarfly/internal/faults"
	"polarfly/internal/trees"
)

// checkLinkLayout builds spec through newSim and through the reference
// construction (reference_test.go) and asserts the link-major layout: the same
// links in the same (from, to) order under the same ids, the same CSR
// rows, the same flows on every link in creation order, every initial
// flow, flow pointer and pipeline ring at its link's slab slots, and the
// reduction windows laid out as checkWindows asserts.
func checkLinkLayout(t *testing.T, spec Spec, cfg Config) {
	t.Helper()
	s, err := newSim(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceLinks(spec, s.cfg)
	if len(s.links) != len(ref.links) {
		t.Fatalf("%d links, reference %d", len(s.links), len(ref.links))
	}
	if !slices.Equal(s.rowStart, ref.rowStart) {
		t.Fatalf("rowStart %v, reference %v", s.rowStart, ref.rowStart)
	}
	ring := cfg.LinkLatency
	nflows := int(s.flowStart[len(s.links)])
	if len(s.flowSlab) != nflows || len(s.flowPtrs) != nflows ||
		len(s.linkSlab) != len(s.links) || len(s.pipeSlab) != len(s.links)*ring {
		t.Fatalf("slab lengths: links %d/%d, flows %d, pointers %d, pipelines %d for %d flows",
			len(s.linkSlab), len(s.links), len(s.flowSlab), len(s.flowPtrs), len(s.pipeSlab), nflows)
	}
	checkWindows(t, s, cfg.VCDepth)
	for id, l := range s.links {
		rl := ref.links[id]
		if l != &s.linkSlab[id] || l.id != int32(id) || rl.id != int32(id) || l.from != rl.from || l.to != rl.to {
			t.Fatalf("link %d is %d→%d (id %d), reference %d→%d (id %d)", id, l.from, l.to, l.id, rl.from, rl.to, rl.id)
		}
		lo, hi := int(s.flowStart[id]), int(s.flowStart[id+1])
		if len(l.flows) != len(rl.flows) || hi-lo != len(l.flows) || cap(l.flows) != hi-lo {
			t.Fatalf("link %d→%d: %d flows (cap %d) in slots [%d,%d), reference %d",
				l.from, l.to, len(l.flows), cap(l.flows), lo, hi, len(rl.flows))
		}
		for k, f := range l.flows {
			rf := rl.flows[k]
			if f.j.idx != rf.j.idx || f.tree != rf.tree || f.phase != rf.phase || f.from != rf.from ||
				f.to != rf.to || f.m != rf.m {
				t.Fatalf("link %d→%d flow %d: job %d tree %d phase %d %d→%d m=%d, reference job %d tree %d phase %d %d→%d m=%d",
					l.from, l.to, k, f.j.idx, f.tree, f.phase, f.from, f.to, f.m,
					rf.j.idx, rf.tree, rf.phase, rf.from, rf.to, rf.m)
			}
			slot := lo + k
			if f != &s.flowSlab[slot] || s.flowPtrs[slot] != f || f.ln != l {
				t.Fatalf("link %d→%d flow %d is not at slab slot %d", l.from, l.to, k, slot)
			}
		}
		if len(l.pipeline) != 0 || cap(l.pipeline) != ring || &l.pipeline[:1][0] != &s.pipeSlab[id*ring] {
			t.Fatalf("link %d→%d: pipeline len %d cap %d is not ring %d of the slab",
				l.from, l.to, len(l.pipeline), cap(l.pipeline), id)
		}
	}
}

// checkWindows asserts the reduction windows of a freshly built
// simulator: window is the smallest power of two ≥ vcDepth; in job then
// vertex order, every node with children of an initial job takes the
// next window slots of the slab as a full-cap window of its own, every
// other node has none, and the slab holds exactly those windows.
func checkWindows(t *testing.T, s *sim, vcDepth int) {
	t.Helper()
	w := s.window
	if w < vcDepth || w&(w-1) != 0 || (w > 1 && w/2 >= vcDepth) {
		t.Fatalf("window %d slots for VCDepth %d, want the smallest power of two ≥ it", w, vcDepth)
	}
	next := 0
	for _, j := range s.jobs {
		for v := range j.nodes {
			nt := &j.nodes[v]
			if len(nt.redIn) == 0 {
				if nt.acc != nil {
					t.Fatalf("job %d node %d has no children but a %d-slot window", j.idx, v, len(nt.acc))
				}
				continue
			}
			if next+w > len(s.accSlab) || len(nt.acc) != w || cap(nt.acc) != w || &nt.acc[0] != &s.accSlab[next] {
				t.Fatalf("job %d node %d: window len %d cap %d is not slab slots [%d,%d) of %d",
					j.idx, v, len(nt.acc), cap(nt.acc), next, next+w, len(s.accSlab))
			}
			next += w
		}
	}
	if next != len(s.accSlab) {
		t.Fatalf("windows take %d slab slots, slab holds %d", next, len(s.accSlab))
	}
}

// layoutCfg gives every reduction window four slots (VCDepth 3 rounded up
// to a power of two) and every pipeline ring three.
var layoutCfg = Config{LinkLatency: 3, VCDepth: 3}

// TestLinkLayoutMatchesReference checks the link-major layout against the
// reference construction on every embedding and collective of the small
// PolarFlys, on uncoordinated random forests (congested links carrying
// many flows), and on recovery re-issues after a mid-run link failure.
func TestLinkLayoutMatchesReference(t *testing.T) {
	for _, q := range []int{2, 3, 4, 5, 7, 11} {
		for _, kind := range []string{"single", "lowdepth", "hamiltonian"} {
			if kind == "lowdepth" && q%2 == 0 {
				continue
			}
			spec := benchSpec(t, q, 64, kind)
			for _, op := range []Op{OpAllreduce, OpReduce, OpBroadcast} {
				t.Run(fmt.Sprintf("q=%d/%s/%v", q, kind, op), func(t *testing.T) {
					sp := spec
					sp.Op = op
					checkLinkLayout(t, sp, layoutCfg)
				})
			}
		}
		pg, err := er.New(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{q, 2 * q} {
			for seed := int64(1); seed <= 4; seed++ {
				forest, err := trees.RandomForest(pg.G, k, seed)
				if err != nil {
					t.Fatal(err)
				}
				split := make([]int, k)
				m := 0
				for i := range split {
					split[i] = i % 3 // zero-split trees still register flows
					m += split[i]
				}
				spec := Spec{Topology: pg.G, Forest: forest, Split: split, Inputs: randInputs(pg.G.N(), m, seed)}
				t.Run(fmt.Sprintf("q=%d/random/k=%d/seed=%d", q, k, seed), func(t *testing.T) {
					checkLinkLayout(t, spec, layoutCfg)
				})
			}
		}
	}

	t.Run("q=11/link-down/reissue", func(t *testing.T) {
		spec := benchSpec(t, 11, 768, "lowdepth")
		u, v := firstTreeEdge(spec)
		cfg := Config{LinkLatency: 3, VCDepth: 2, Faults: &faults.Plan{Faults: []faults.Fault{
			{Kind: faults.LinkDown, U: u, V: v, At: 120},
		}}}
		checkLinkLayout(t, spec, cfg)
		s, err := newSim(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pairs := make([][2]int, len(s.links))
		for id, l := range s.links {
			pairs[id] = [2]int{l.from, l.to}
		}
		res, err := s.run()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Recoveries) == 0 || len(s.jobs) == len(spec.Forest) {
			t.Fatalf("no re-issue: %d recoveries, %d jobs", len(res.Recoveries), len(s.jobs))
		}
		_, _, jobFlows := s.phases()
		accLo := uintptr(unsafe.Pointer(&s.accSlab[0]))
		accHi := accLo + uintptr(len(s.accSlab))*8
		want, reissuedSlots := 0, 0
		for _, j := range s.jobs[len(spec.Forest):] {
			if !j.dead {
				want += jobFlows
			}
			for v := range j.nodes {
				nt := &j.nodes[v]
				slots := 0
				if len(nt.redIn) > 0 {
					slots = s.window
				}
				if len(nt.acc) != slots || cap(nt.acc) != slots {
					t.Fatalf("re-issued job %d node %d with %d children: window len %d cap %d, want %d",
						j.idx, v, len(nt.redIn), len(nt.acc), cap(nt.acc), slots)
				}
				if p := uintptr(unsafe.Pointer(unsafe.SliceData(nt.acc))); p >= accLo && p < accHi {
					t.Fatalf("re-issued job %d node %d: window sits in the initial window slab", j.idx, v)
				}
				reissuedSlots += len(nt.acc)
			}
		}
		if got, want := res.Arena.VCBufferBytes, int64(len(s.accSlab)+reissuedSlots)*8; got != want {
			t.Fatalf("arena counts %d window bytes, slab and re-issued blocks hold %d", got, want)
		}
		slabLo := uintptr(unsafe.Pointer(&s.flowSlab[0]))
		slabHi := slabLo + uintptr(len(s.flowSlab))*unsafe.Sizeof(flow{})
		got := 0
		for id, l := range s.links {
			if l != &s.linkSlab[id] || l.id != int32(id) || [2]int{l.from, l.to} != pairs[id] {
				t.Fatalf("link %d moved: %d→%d (id %d), was %v", id, l.from, l.to, l.id, pairs[id])
			}
			for k, f := range l.flows {
				if k > 0 && l.flows[k-1].j.idx >= f.j.idx {
					t.Fatalf("link %d→%d: flow %d (job %d) follows job %d, not in creation order",
						l.from, l.to, k, f.j.idx, l.flows[k-1].j.idx)
				}
				if f.ln != l || f.from != l.from || f.to != l.to {
					t.Fatalf("link %d→%d carries flow %d→%d", l.from, l.to, f.from, f.to)
				}
				if f.j.idx < len(spec.Forest) {
					continue
				}
				got++
				if p := uintptr(unsafe.Pointer(f)); p >= slabLo && p < slabHi {
					t.Fatalf("link %d→%d: re-issued flow of job %d sits in the initial flow slab", l.from, l.to, f.j.idx)
				}
			}
		}
		if got != want {
			t.Fatalf("%d re-issued flows registered on links, want %d", got, want)
		}
	})
}

// TestArenaMatchesSlabs pins Result.Arena to the allocations on
// fault-free runs under both policies: every link-major component is its
// slab lengths × element sizes, the flow count is the slab's, and the
// total is the sum of the components.
func TestArenaMatchesSlabs(t *testing.T) {
	ptr := int64(unsafe.Sizeof(uintptr(0)))
	for _, kind := range []string{"single", "lowdepth", "hamiltonian"} {
		spec := benchSpec(t, 5, 256, kind)
		for _, op := range []Op{OpAllreduce, OpReduce, OpBroadcast} {
			for _, e := range []Engine{EngineCycle, EngineEvent} {
				t.Run(fmt.Sprintf("%s/%v/%v", kind, op, e), func(t *testing.T) {
					sp := spec
					sp.Op = op
					cfg := layoutCfg
					cfg.Engine = e
					s, err := newSim(sp, cfg)
					if err != nil {
						t.Fatal(err)
					}
					res, err := s.run()
					if err != nil {
						t.Fatal(err)
					}
					a := res.Arena
					want := ArenaFootprint{
						Links: len(s.linkSlab),
						Flows: len(s.flowSlab),
						LinkBytes: int64(len(s.linkSlab))*int64(unsafe.Sizeof(link{})) +
							int64(len(s.links))*ptr + int64(len(s.rowStart)+len(s.flowStart))*4,
						FlowBytes:     int64(len(s.flowSlab))*int64(unsafe.Sizeof(flow{})) + int64(len(s.flowPtrs))*ptr,
						VCBufferBytes: int64(len(s.accSlab)) * 8,
						PipelineBytes: int64(len(s.pipeSlab)) * int64(unsafe.Sizeof(inflight{})),
						NodeTreeBytes: a.NodeTreeBytes,
						OutputBytes:   int64(len(s.outputs)) * int64(s.m) * 8,
						EventBytes:    a.EventBytes,
					}
					want.TotalBytes = want.LinkBytes + want.FlowBytes + want.VCBufferBytes + want.PipelineBytes +
						want.NodeTreeBytes + want.OutputBytes + want.EventBytes
					if a != want {
						t.Fatalf("arena %+v, slabs give %+v", a, want)
					}
				})
			}
		}
	}
}
