package netsim

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"polarfly/internal/faults"
)

// TestDetectionClosedForm pins loss detection to its closed form. A
// healthy flit lands exactly LinkLatency cycles after it is sent, so only
// a dropped flit can go overdue: the first recovery must fire at the
// earliest first-dropped flit's send cycle + 5·LinkLatency + 1, and blame
// exactly the links of the streams whose first loss is due by then. Drops
// and send cycles are read from the trace, not from the simulator's loss
// list. Every case runs at two link latencies under both wake policies.
func TestDetectionClosedForm(t *testing.T) {
	spec, _ := buildPolarSpec(t, 5, 3000, "lowdepth")
	link := firstTreeLink(spec, 0)

	// A router-down fails every link of its node for good, and every
	// spanning tree must deliver to every node, so the run always ends in
	// ErrAllTreesLost. For a first round with survivors, give Hamiltonian
	// tree 0 the whole vector and take down a leaf of tree 0 whose parent
	// edge no other tree uses (the forest is edge-disjoint): round 1 aborts
	// tree 0 alone and re-issues onto the idle trees, which a later round
	// loses.
	solo, _ := buildPolarSpec(t, 5, 3000, "hamiltonian")
	solo.Split = make([]int, len(solo.Split))
	solo.Split[0] = 3000
	leaf := soleLeaf(t, solo)

	cases := []struct {
		name  string
		spec  Spec
		fault faults.Fault
		// purge: the earliest-due stream first lost a flit in flight,
		// purged when the link failed. inject: every stream first lost a
		// flit it sent into the failed link. allLost: the run ends in
		// ErrAllTreesLost after the first round.
		purge, inject, allLost bool
	}{
		{name: "link-down/in-flight", spec: spec, purge: true,
			fault: faults.Fault{Kind: faults.LinkDown, U: link[0], V: link[1], At: 200}},
		{name: "link-down/idle", spec: spec, inject: true,
			fault: faults.Fault{Kind: faults.LinkDown, U: link[0], V: link[1], At: 1}},
		{name: "link-transient", spec: spec,
			fault: faults.Fault{Kind: faults.LinkTransient, U: link[0], V: link[1], At: 150, Until: 200}},
		{name: "link-storm", spec: spec,
			fault: faults.Fault{Kind: faults.LinkStorm, U: link[0], V: link[1], At: 200, Until: 230, Period: 400, Repeat: 3}},
		{name: "router-down", spec: solo, allLost: true,
			fault: faults.Fault{Kind: faults.RouterDown, Node: leaf, At: 200}},
	}
	for _, tc := range cases {
		for _, lat := range []int{1, 3} {
			for _, engine := range []Engine{EngineCycle, EngineEvent} {
				t.Run(fmt.Sprintf("%s/latency=%d/%v", tc.name, lat, engine), func(t *testing.T) {
					type streamKey struct{ job, phase, from, to int }
					type loss struct{ sent, dropped int }
					sends := make(map[streamKey][]int)
					first := make(map[streamKey]loss)
					var order []streamKey
					recovered := false
					cfg := Config{LinkLatency: lat, VCDepth: 6, Engine: engine,
						Faults: &faults.Plan{Faults: []faults.Fault{tc.fault}}}
					cfg.Trace = func(ev TraceEvent) {
						if recovered {
							return
						}
						k := streamKey{ev.Job, ev.Phase, ev.From, ev.To}
						switch ev.Kind {
						case TraceSend:
							sends[k] = append(sends[k], ev.Cycle)
						case TraceDrop:
							// A drop naming no flit is an out-of-sequence
							// discard on a broken stream or the recovery's
							// abort purge, never a stream's first loss.
							if _, ok := first[k]; ok || ev.Flit < 0 {
								return
							}
							if ev.Flit >= len(sends[k]) {
								t.Fatalf("first drop on %+v at cycle %d names flit %d of %d sent",
									k, ev.Cycle, ev.Flit, len(sends[k]))
							}
							first[k] = loss{sent: sends[k][ev.Flit], dropped: ev.Cycle}
							order = append(order, k)
						case TraceRecover:
							recovered = true
						}
					}
					s, err := newSim(tc.spec, cfg)
					if err != nil {
						t.Fatal(err)
					}
					// advance, not Run: a run that ends in ErrAllTreesLost
					// returns no Result, but its first round is recorded.
					if _, err := s.advance(); tc.allLost != errors.Is(err, ErrAllTreesLost) || (!tc.allLost && err != nil) {
						t.Fatalf("advance: %v (want ErrAllTreesLost: %v)", err, tc.allLost)
					}
					if len(s.result.Recoveries) == 0 || len(order) == 0 {
						t.Fatalf("%d recoveries after %d broken streams", len(s.result.Recoveries), len(order))
					}

					due := func(k streamKey) int { return first[k].sent + 5*lat + 1 }
					earliest := slices.MinFunc(order, func(a, b streamKey) int { return due(a) - due(b) })
					rec := s.result.Recoveries[0]
					if rec.Cycle != due(earliest) {
						t.Errorf("first recovery at cycle %d, want %d (first loss on %+v sent at %d)",
							rec.Cycle, due(earliest), earliest, first[earliest].sent)
					}
					var want [][2]int
					for _, k := range order {
						key := [2]int{min(k.from, k.to), max(k.from, k.to)}
						if due(k) <= rec.Cycle && !slices.Contains(want, key) {
							want = append(want, key)
						}
					}
					slices.SortFunc(want, func(a, b [2]int) int {
						if a[0] != b[0] {
							return a[0] - b[0]
						}
						return a[1] - b[1]
					})
					if !reflect.DeepEqual(rec.FailedLinks, want) {
						t.Errorf("first recovery blamed %v, want %v", rec.FailedLinks, want)
					}

					if l := first[earliest]; tc.purge && l.dropped == l.sent {
						t.Errorf("earliest loss on %+v was an injection at cycle %d, want a purge", earliest, l.sent)
					}
					for _, k := range order {
						if l := first[k]; tc.inject && l.dropped != l.sent {
							t.Errorf("stream %+v first lost flit sent at %d in a purge at %d, want an injection",
								k, l.sent, l.dropped)
						}
					}
				})
			}
		}
	}
}

// soleLeaf returns a leaf of forest tree 0 whose parent edge no other
// tree of the forest uses.
func soleLeaf(t *testing.T, spec Spec) int {
	t.Helper()
	t0 := spec.Forest[0]
	for v, p := range t0.Parent {
		if p < 0 || len(t0.Children(v)) > 0 {
			continue
		}
		shared := false
		for _, tr := range spec.Forest[1:] {
			if tr.Parent[v] == p || tr.Parent[p] == v {
				shared = true
				break
			}
		}
		if !shared {
			return v
		}
	}
	t.Fatal("tree 0 has no leaf with an unshared parent edge")
	return -1
}
