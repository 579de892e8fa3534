package critpath

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"polarfly/internal/bandwidth"
	"polarfly/internal/core"
	"polarfly/internal/faults"
	"polarfly/internal/netsim"
	"polarfly/internal/workload"
)

// referenceBuilder is the map-keyed trace indexer the stream table
// replaced, kept as the oracle: stream and Observe are the former
// Builder methods, hashing a stream key and a link key on every event,
// and they record what the former builder recorded — every send and
// arrival cycle, and each directed link's (cycle, stream) injection log.
// fill checks that recording against the two derivations the Builder's
// send log relies on and encodes it into the embedded Builder, so the
// shared Analyze walks both.
type referenceBuilder struct {
	*Builder
	streamID       map[streamKey]int32
	sends, arrives [][]int32 // stream id → flit → cycle, -1 unseen
	logs           map[[2]int]*linkLog
}

// linkLog is one directed link's injection history: one (cycle, stream)
// entry per send, in emission order (cycles non-decreasing).
type linkLog struct {
	cycles  []int32
	streams []int32 // stream ids, parallel to cycles
}

func newReferenceBuilder() *referenceBuilder {
	return &referenceBuilder{Builder: NewBuilder(), streamID: make(map[streamKey]int32),
		logs: make(map[[2]int]*linkLog)}
}

func (b *referenceBuilder) stream(ev netsim.TraceEvent) *stream {
	key := streamKey{job: ev.Job, from: ev.From, to: ev.To, phase: ev.Phase}
	if id, ok := b.streamID[key]; ok {
		return b.streams[id]
	}
	s := &stream{id: int32(len(b.streams)), key: key, tree: ev.Tree}
	b.streamID[key] = s.id
	b.streams = append(b.streams, s)
	b.sends = append(b.sends, nil)
	b.arrives = append(b.arrives, nil)
	return s
}

// Observe consumes one trace event.
func (b *referenceBuilder) Observe(ev netsim.TraceEvent) {
	switch ev.Kind {
	case netsim.TraceSend:
		s := b.stream(ev)
		setAt(&b.sends[s.id], ev.Flit, ev.Cycle)
		key := [2]int{ev.From, ev.To}
		ll, ok := b.logs[key]
		if !ok {
			ll = &linkLog{}
			b.logs[key] = ll
		}
		ll.cycles = append(ll.cycles, int32(ev.Cycle))
		ll.streams = append(ll.streams, s.id)
	case netsim.TraceArrive:
		s := b.stream(ev)
		setAt(&b.arrives[s.id], ev.Flit, ev.Cycle)
		if ev.Phase == phaseBcast {
			b.noteDelivery(ev.Cycle, true, s.id, ev.Job, ev.Flit)
		}
	case netsim.TraceStall:
		s := b.stream(ev)
		if n := len(s.stalls); n == 0 || s.stalls[n-1] != int32(ev.Cycle) {
			s.stalls = append(s.stalls, int32(ev.Cycle))
		}
	case netsim.TraceRootCompute:
		j := b.job(ev.Job)
		j.tree = ev.Tree
		j.root = ev.From
		setAt(&j.computes, ev.Flit, ev.Cycle)
		b.noteDelivery(ev.Cycle, false, -1, ev.Job, ev.Flit)
	case netsim.TraceFault:
		b.faults = append(b.faults, faultMark{cycle: ev.Cycle, u: ev.From, v: ev.To, kind: ev.Phase})
	case netsim.TraceRecover:
		b.recovers = append(b.recovers, recoverMark{
			cycle: ev.Cycle, u: ev.From, v: ev.To,
			firstJob: ev.Job, reissued: ev.Flit,
		})
	case netsim.TraceDrop, netsim.TraceBufferOccupancy:
		// Drops are causally represented by the fault bridge; occupancy
		// is a per-link gauge with no dependency edge.
	}
}

// fill encodes the recording into the embedded Builder's per-stream
// send logs, arrival counts and links. It fails where the recording
// breaks a derivation: a stream's arrivals must be a prefix of its
// sends, each at exactly send + LinkLatency, and a link must log at most
// one injection per cycle, so that a send cycle names its stream.
func (b *referenceBuilder) fill() error {
	for key, ll := range b.logs {
		for i := 1; i < len(ll.cycles); i++ {
			if ll.cycles[i] == ll.cycles[i-1] {
				return fmt.Errorf("link %d→%d: streams %d and %d both injected at cycle %d",
					key[0], key[1], ll.streams[i-1], ll.streams[i], ll.cycles[i])
			}
		}
	}
	for _, s := range b.streams {
		sends, arrives := b.sends[s.id], b.arrives[s.id]
		for k, a := range arrives {
			if k >= len(sends) || a < 0 || sends[k] < 0 || int(a) != int(sends[k])+b.linkLatency {
				return fmt.Errorf("stream %v: flit %d arrived at cycle %d, not at its send + %d (sends %v)",
					s.key, k, a, b.linkLatency, sends[:min(k+1, len(sends))])
			}
		}
		s.arrived = len(arrives)
		for k, c := range sends {
			if c < 0 {
				return fmt.Errorf("stream %v: flit %d never sent, but flit %d was", s.key, k, len(sends)-1)
			}
		}
		s.sends = sends
		key := [2]int{s.key.from, s.key.to}
		l, ok := b.links[key]
		if !ok {
			l = &link{last: -1}
			b.links[key] = l
		}
		s.link = l
		l.streams = append(l.streams, s)
	}
	return nil
}

// sameSendLogs reports the first difference between two builders'
// streams, send logs and arrival counts.
func sameSendLogs(got, want *Builder) error {
	if len(got.streams) != len(want.streams) {
		return fmt.Errorf("%d streams, reference %d", len(got.streams), len(want.streams))
	}
	for i, s := range got.streams {
		w := want.streams[i]
		switch {
		case s.key != w.key:
			return fmt.Errorf("stream %d is %v, reference %v", i, s.key, w.key)
		case s.arrived != w.arrived:
			return fmt.Errorf("stream %v counts %d arrivals, reference %d", s.key, s.arrived, w.arrived)
		case !slices.Equal(s.sends, w.sends):
			return fmt.Errorf("stream %v send log %v, reference %v", s.key, s.sends, w.sends)
		}
	}
	return nil
}

// analysisText renders an Analyze outcome for byte comparison: the
// Analysis JSON, or the error text.
func analysisText(a *Analysis, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	out, jerr := json.Marshal(a)
	if jerr != nil {
		return "marshal: " + jerr.Error()
	}
	return string(out)
}

// diffRun is one simulated run for the builder-vs-reference comparison.
type diffRun struct {
	q    int
	kind core.EmbeddingKind
	op   netsim.Op
	m    int
	cfg  netsim.Config
}

func (r diffRun) String() string {
	plan := "fault-free"
	if r.cfg.Faults != nil {
		plan = fmt.Sprint(r.cfg.Faults.Faults)
	}
	return fmt.Sprintf("q=%d %v %v m=%d latency=%d vc=%d %s",
		r.q, r.kind, r.op, r.m, r.cfg.LinkLatency, r.cfg.VCDepth, plan)
}

// embedCache builds each (q, kind) embedding once per test binary.
var embedCache = map[[2]int]*core.Embedding{}

func cachedEmbedding(t testing.TB, q int, kind core.EmbeddingKind) *core.Embedding {
	t.Helper()
	key := [2]int{q, int(kind)}
	if e, ok := embedCache[key]; ok {
		return e
	}
	inst, err := core.NewInstance(q)
	if err != nil {
		t.Fatalf("NewInstance(%d): %v", q, err)
	}
	e, err := inst.Embed(kind)
	if err != nil {
		t.Fatalf("Embed(%v): %v", kind, err)
	}
	embedCache[key] = e
	return e
}

// compareWithReference simulates the run once and feeds the recorded
// trace to a fresh Builder and a fresh referenceBuilder. It fails unless
// the recording keeps both derivations of the Builder's send log, the
// two builders hold the same send logs and arrival counts, and both
// Analyze to the same JSON or the same error text. Runs the simulator
// rejects or aborts (all trees lost, recovery limit) have no cycle count
// to analyse and are skipped; it reports whether the run was compared.
func compareWithReference(t *testing.T, r diffRun) bool {
	t.Helper()
	e := cachedEmbedding(t, r.q, r.kind)
	n := e.Topology.N()
	split, err := bandwidth.SubvectorSplit(r.m, e.Model.PerTree)
	if err != nil {
		t.Fatalf("%v: split: %v", r, err)
	}
	var events []netsim.TraceEvent
	cfg := r.cfg
	cfg.Trace = func(ev netsim.TraceEvent) { events = append(events, ev) }
	res, err := netsim.Run(netsim.Spec{Op: r.op, Topology: e.Topology, Forest: e.Forest,
		Split: split, Inputs: workload.Vectors(n, r.m, 1000, core.DefaultSeed)}, cfg)
	if err != nil {
		return false
	}
	got, want := NewBuilder(), newReferenceBuilder()
	gcfg, wcfg := r.cfg, r.cfg
	got.Attach(&gcfg)
	want.Builder.Attach(&wcfg)
	for _, ev := range events {
		got.Observe(ev)
		want.Observe(ev)
	}
	if got.err != nil {
		t.Fatalf("%v: builder rejected the simulator's trace: %v", r, got.err)
	}
	if err := want.fill(); err != nil {
		t.Fatalf("%v: the recorded trace breaks a send-log derivation: %v", r, err)
	}
	if err := sameSendLogs(got, want.Builder); err != nil {
		t.Fatalf("%v: builder and reference disagree: %.400v", r, err)
	}
	ga, gerr := got.Analyze(res.Cycles)
	wa, werr := want.Analyze(res.Cycles)
	if g, w := analysisText(ga, gerr), analysisText(wa, werr); g != w {
		t.Fatalf("%v: stream table and reference builder disagree\n got: %.400s\nwant: %.400s", r, g, w)
	}
	return true
}

// randomPlan hand-builds a fault plan of one to three faults over all
// six kinds on the embedding's tree links and routers, activating inside
// the first cycles of a small run. Windows may be empty; plans that fail
// Validate come back nil.
func randomPlan(rng *rand.Rand, e *core.Embedding) *faults.Plan {
	var edges [][2]int
	for _, t := range e.Forest {
		for v, p := range t.Parent {
			if p >= 0 {
				edges = append(edges, [2]int{v, p})
			}
		}
	}
	p := &faults.Plan{}
	for i, k := 0, 1+rng.Intn(3); i < k; i++ {
		edge := edges[rng.Intn(len(edges))]
		f := faults.Fault{Kind: faults.Kind(rng.Intn(6)), U: edge[0], V: edge[1],
			Node: rng.Intn(e.Topology.N()), At: 1 + rng.Intn(150)}
		if w := rng.Intn(80); w > 0 {
			f.Until = f.At + w
		}
		switch f.Kind {
		case faults.LinkDegraded:
			f.Bandwidth = float64(1+rng.Intn(8)) / 8
		case faults.LinkStorm:
			f.Until = f.At + 1 + rng.Intn(20)
			f.Period, f.Repeat = f.Until-f.At+1+rng.Intn(40), 1+rng.Intn(3)
		}
		p.Faults = append(p.Faults, f)
	}
	if p.Validate() != nil {
		return nil
	}
	return p
}

// TestBuilderMatchesReference is the stream table's oracle check: at
// q ∈ {3,5,7}, every embedding under all three collectives fault-free,
// and allreduce under seeded random fault plans over all six fault kinds
// (netsim injects faults into allreduce only), the table-indexed Builder
// must keep the reference's send logs and Analyze to the same JSON or
// error text as the map-keyed reference.
func TestBuilderMatchesReference(t *testing.T) {
	qs := []int{3, 5, 7}
	plans := 6
	if testing.Short() {
		qs, plans = []int{3, 5}, 3
	}
	kinds := []core.EmbeddingKind{core.SingleTree, core.LowDepth, core.Hamiltonian}
	ops := []netsim.Op{netsim.OpAllreduce, netsim.OpReduce, netsim.OpBroadcast}
	rng := rand.New(rand.NewSource(1))
	compared, faulted := 0, 0
	for _, q := range qs {
		for _, kind := range kinds {
			for _, op := range ops {
				r := diffRun{q: q, kind: kind, op: op, m: 192,
					cfg: netsim.Config{LinkLatency: 1 + rng.Intn(3), VCDepth: 1 + rng.Intn(5)}}
				if compareWithReference(t, r) {
					compared++
				}
			}
			e := cachedEmbedding(t, q, kind)
			for i := 0; i < plans; i++ {
				plan := randomPlan(rng, e)
				if plan == nil {
					continue
				}
				r := diffRun{q: q, kind: kind, op: netsim.OpAllreduce, m: 256,
					cfg: netsim.Config{LinkLatency: 1 + rng.Intn(3), VCDepth: 1 + rng.Intn(5), Faults: plan}}
				if compareWithReference(t, r) {
					faulted++
				}
			}
		}
	}
	if compared != len(qs)*len(kinds)*len(ops) {
		t.Errorf("compared %d fault-free runs, want every one of %d", compared, len(qs)*len(kinds)*len(ops))
	}
	if faulted == 0 {
		t.Error("no faulted run completed; the fault half compared nothing")
	}
}

// FuzzBuilderMatchesReference widens TestBuilderMatchesReference to
// fuzz-chosen runs: the bytes pick q ∈ {3,5,7}, the embedding, the
// collective, the vector length, the fabric and — for allreduce — the
// seed of a random fault plan.
func FuzzBuilderMatchesReference(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint8(0), uint8(40), uint8(1), uint8(3), int64(1), true)
	f.Add(uint8(1), uint8(2), uint8(0), uint8(90), uint8(2), uint8(1), int64(7), true)
	f.Add(uint8(2), uint8(0), uint8(2), uint8(10), uint8(0), uint8(4), int64(3), false)
	f.Add(uint8(0), uint8(1), uint8(1), uint8(63), uint8(3), uint8(0), int64(9), false)
	f.Fuzz(func(t *testing.T, qi, ki, oi, mi, li, vi uint8, seed int64, faulted bool) {
		q := []int{3, 5, 7}[int(qi)%3]
		kind := []core.EmbeddingKind{core.SingleTree, core.LowDepth, core.Hamiltonian}[int(ki)%3]
		op := []netsim.Op{netsim.OpAllreduce, netsim.OpReduce, netsim.OpBroadcast}[int(oi)%3]
		r := diffRun{q: q, kind: kind, op: op, m: 1 + int(mi)%160,
			cfg: netsim.Config{LinkLatency: 1 + int(li)%4, VCDepth: 1 + int(vi)%6}}
		if faulted && op == netsim.OpAllreduce {
			r.cfg.Faults = randomPlan(rand.New(rand.NewSource(seed)), cachedEmbedding(t, q, kind))
		}
		compareWithReference(t, r)
	})
}

// TestStreamTableRejectsForeignEndpoints: a spanning tree gives each
// node one parent, so a second stream of the same job and phase on the
// same child slot but other endpoints cannot come from netsim. The
// builder must make Analyze fail on it instead of merging the two
// streams' histories.
func TestStreamTableRejectsForeignEndpoints(t *testing.T) {
	for _, tc := range []struct {
		name  string
		phase int
		a, b  [2]int // the first stream's and the intruder's endpoints
	}{
		{"reduce shares a child", phaseReduce, [2]int{2, 0}, [2]int{2, 1}},
		{"broadcast shares a child", phaseBcast, [2]int{0, 2}, [2]int{1, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder()
			b.Observe(netsim.TraceEvent{Cycle: 1, Kind: netsim.TraceSend, Phase: tc.phase,
				From: tc.a[0], To: tc.a[1], Flit: 0, Job: 0})
			b.Observe(netsim.TraceEvent{Cycle: 2, Kind: netsim.TraceArrive, Phase: tc.phase,
				From: tc.b[0], To: tc.b[1], Flit: 0, Job: 0})
			if len(b.streams) != 1 {
				t.Errorf("%d streams after the intruder, want the first one only", len(b.streams))
			}
			_, err := b.Analyze(2)
			if err == nil || !strings.Contains(err.Error(), "already streams") {
				t.Fatalf("Analyze error %v, want the stream-table conflict", err)
			}
		})
	}
	b := NewBuilder()
	b.Observe(netsim.TraceEvent{Cycle: 1, Kind: netsim.TraceStall, Phase: phaseReduce,
		From: 1, To: 0, Job: -1})
	if _, err := b.Analyze(1); err == nil || !strings.Contains(err.Error(), "names no stream") {
		t.Errorf("Analyze error %v, want the rejected job -1 stall", err)
	}
}

// TestBuilderRejectsBrokenSendLog: the walk derives every arrival from
// the send log (netsim lands each flit exactly LinkLatency cycles after
// its send, in flit order), names a link's sender by its send cycle
// (netsim injects at most one flit per link per cycle) and keeps each
// send cycle in an int32, so a trace that breaks any of these rules must
// make Analyze fail instead of yielding a path built on sends and
// arrivals that never happened.
func TestBuilderRejectsBrokenSendLog(t *testing.T) {
	ev := func(kind netsim.TraceEventKind, cycle, flit int) netsim.TraceEvent {
		return netsim.TraceEvent{Cycle: cycle, Kind: kind, Phase: phaseReduce, From: 1, To: 0, Flit: flit, Job: 0}
	}
	send := func(cycle, flit int) netsim.TraceEvent { return ev(netsim.TraceSend, cycle, flit) }
	arrive := func(cycle, flit int) netsim.TraceEvent { return ev(netsim.TraceArrive, cycle, flit) }
	for _, tc := range []struct {
		name   string
		events []netsim.TraceEvent
		want   string
	}{
		{"arrival not at send + latency", []netsim.TraceEvent{send(1, 0), arrive(3, 0)}, "breaks the link rule"},
		{"arrival without a send", []netsim.TraceEvent{arrive(2, 0)}, "breaks the link rule"},
		{"out-of-order arrival", []netsim.TraceEvent{send(1, 0), send(2, 1), arrive(3, 1)}, "breaks the link rule"},
		{"send skips a flit", []netsim.TraceEvent{send(1, 0), send(2, 2)}, "out of order"},
		{"send before the link's last", []netsim.TraceEvent{send(5, 0), send(4, 1)}, "out of order"},
		{"two sends on a link in one cycle", []netsim.TraceEvent{send(5, 0),
			{Cycle: 5, Kind: netsim.TraceSend, Phase: phaseReduce, From: 1, To: 0, Flit: 0, Job: 1}}, "out of order"},
		{"cycle too large", []netsim.TraceEvent{send(maxSendCycle+1, 0)}, "outside the send log's range"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder()
			for _, e := range tc.events {
				b.Observe(e)
			}
			if _, err := b.Analyze(3); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Analyze error %v, want %q", err, tc.want)
			}
		})
	}
	b := NewBuilder()
	b.Observe(send(maxSendCycle, 0))
	if b.err != nil {
		t.Errorf("send at the log's last cycle %d rejected: %v", maxSendCycle, b.err)
	}
}
