package critpath

import (
	"fmt"
	"sort"
)

// Segment is one critical-path interval covering cycles (Start, End],
// attributed to a single blame class. Adjacent same-class segments on the
// same stream are merged, so the sequence telescopes: each segment starts
// where the previous one ends, the first starts at 0 and the last ends at
// the run's completion cycle.
type Segment struct {
	Start int    `json:"start"`
	End   int    `json:"end"`
	Class string `json:"class"`
	// From and To name the directed link the segment blames (the root
	// router twice for compute, the failed link for fault segments, -1
	// when no link applies).
	From int `json:"from"`
	To   int `json:"to"`
	// Tree, Phase and Job locate the stream (-1 when not applicable;
	// Phase is 0 for reduction, 1 for broadcast).
	Tree  int `json:"tree"`
	Phase int `json:"phase"`
	Job   int `json:"job"`
}

// Cycles is the segment's length.
func (s Segment) Cycles() int { return s.End - s.Start }

// BlameEntry is one row of the per-class blame table.
type BlameEntry struct {
	Class  string `json:"class"`
	Cycles int    `json:"cycles"`
}

// LinkBlame is the serialization blame charged to one directed link.
type LinkBlame struct {
	From   int `json:"from"`
	To     int `json:"to"`
	Cycles int `json:"cycles"`
}

// Analysis is the result of one backward critical-path walk.
type Analysis struct {
	// Cycles is the run length every segment and blame count must sum to.
	Cycles int `json:"cycles"`
	// Segments is the full critical path in ascending cycle order.
	Segments []Segment `json:"segments"`
	// Blame holds every class's total path cycles, in canonical class
	// order; the entries sum to Cycles exactly.
	Blame []BlameEntry `json:"blame"`
	// PathNodes counts the causal events the walk visited.
	PathNodes int `json:"path_nodes"`
	// Unattributed mirrors the unattributed Blame entry — the residue the
	// gate rejects.
	Unattributed int `json:"unattributed"`
	// RecoveriesOnPath counts the recovery rounds the path traversed, and
	// RecoveryLatencyCycles their summed fault→recovery intervals — the
	// quantity that must equal the run's measured recovery latency (the
	// fault-detect + recovery blame classes by construction).
	RecoveriesOnPath      int `json:"recoveries_on_path"`
	RecoveryLatencyCycles int `json:"recovery_latency_cycles"`
	// RecoveryRounds lists the indices (into Result.Recoveries order) of
	// the rounds the path traversed, ascending. Under nested recoveries
	// the path can skip rounds whose re-issues were themselves aborted, so
	// the exactness cross-check must sum the measured latency over exactly
	// these rounds rather than the full set.
	RecoveryRounds []int `json:"recovery_rounds,omitempty"`
	// TopSerialization ranks directed links by serialization blame,
	// descending (ties by link id ascending). On a fault-free run the
	// first entry is the measured bottleneck — the link Algorithm 1's
	// waterfill saturates.
	TopSerialization []LinkBlame `json:"top_serialization"`
}

// DominantClass returns the class with the most blame (first in
// canonical order on ties) — "" for an empty analysis.
func (a *Analysis) DominantClass() string {
	best, cycles := "", -1
	for _, e := range a.Blame {
		if e.Cycles > cycles {
			best, cycles = e.Class, e.Cycles
		}
	}
	return best
}

// BlameCycles returns the blame total of one class by name.
func (a *Analysis) BlameCycles(class string) int {
	for _, e := range a.Blame {
		if e.Class == class {
			return e.Cycles
		}
	}
	return 0
}

// node kinds of the backward walk.
const (
	nArrive = iota
	nSend
	nCompute
	nBirth
	nRecover
	nFault
)

type node struct {
	kind  int
	sid   int32 // nArrive/nSend
	job   int   // nCompute/nBirth
	flit  int
	cycle int
	ri    int // recover index (nRecover) / fault index (nFault)
}

// walker holds the per-analysis derived indexes and accumulators.
type walker struct {
	b *Builder
	// redInto[job][node] lists the reduce streams delivering to node,
	// sorted by sender; bcastInto[job][node] is the broadcast stream
	// feeding node.
	redInto   map[int]map[int][]int32
	bcastInto map[int]map[int]int32

	segs      []Segment // in reverse (walk) order
	blame     [numClasses]int
	linkSer   map[[2]int]int
	nodes     int
	recOn     int
	recLat    int
	recRounds []int // traversed recovery-round indices, walk order
}

// Analyze walks backwards from the completion event and returns the
// blame attribution. cycles must be the run's Result.Cycles; Analyze
// errors on any internal inconsistency — a missing causal event, a
// completion event that does not match cycles, or a conservation
// violation — since each would mean the causal model diverged from the
// simulator.
func (b *Builder) Analyze(cycles int) (*Analysis, error) {
	if b.err != nil {
		return nil, b.err
	}
	a := &Analysis{Cycles: cycles}
	if cycles == 0 {
		a.Blame = blameTable(&[numClasses]int{})
		return a, nil
	}
	if !b.haveDone {
		return nil, fmt.Errorf("critpath: %d-cycle run produced no delivery event; was the builder attached?", cycles)
	}
	if b.doneCycle != cycles {
		return nil, fmt.Errorf("critpath: last delivery at cycle %d but run reports %d cycles", b.doneCycle, cycles)
	}

	w := &walker{
		b:         b,
		redInto:   make(map[int]map[int][]int32),
		bcastInto: make(map[int]map[int]int32),
		linkSer:   make(map[[2]int]int),
	}
	for _, s := range b.streams {
		switch s.key.phase {
		case phaseReduce:
			m := w.redInto[s.key.job]
			if m == nil {
				m = make(map[int][]int32)
				w.redInto[s.key.job] = m
			}
			m[s.key.to] = append(m[s.key.to], s.id)
		case phaseBcast:
			m := w.bcastInto[s.key.job]
			if m == nil {
				m = make(map[int]int32)
				w.bcastInto[s.key.job] = m
			}
			m[s.key.to] = s.id
		}
	}
	for _, m := range w.redInto {
		for _, ids := range m {
			sort.Slice(ids, func(i, j int) bool {
				return b.streams[ids[i]].key.from < b.streams[ids[j]].key.from
			})
		}
	}

	cur := node{kind: nCompute, job: b.doneJob, flit: b.doneFlit, cycle: b.doneCycle}
	if b.doneArrive {
		cur = node{kind: nArrive, sid: b.doneStream, flit: b.doneFlit, cycle: b.doneCycle}
	}
	if err := w.walk(cur); err != nil {
		return nil, err
	}

	// Reverse into ascending order and verify the telescoping invariant:
	// contiguous coverage of (0, cycles] and exact blame conservation.
	for i, j := 0, len(w.segs)-1; i < j; i, j = i+1, j-1 {
		w.segs[i], w.segs[j] = w.segs[j], w.segs[i]
	}
	at := 0
	for _, seg := range w.segs {
		if seg.Start != at {
			return nil, fmt.Errorf("critpath: path gap at cycle %d (next segment starts at %d)", at, seg.Start)
		}
		at = seg.End
	}
	if at != cycles {
		return nil, fmt.Errorf("critpath: path covers (0,%d], want (0,%d]", at, cycles)
	}
	total := 0
	for _, n := range w.blame {
		total += n
	}
	if total != cycles {
		return nil, fmt.Errorf("critpath: conservation violated: blame sums to %d, want %d", total, cycles)
	}

	a.Segments = w.segs
	a.Blame = blameTable(&w.blame)
	a.PathNodes = w.nodes
	a.Unattributed = w.blame[ClassUnattributed]
	a.RecoveriesOnPath = w.recOn
	a.RecoveryLatencyCycles = w.recLat
	if len(w.recRounds) > 0 {
		a.RecoveryRounds = append([]int(nil), w.recRounds...)
		sort.Ints(a.RecoveryRounds)
	}
	keys := make([][2]int, 0, len(w.linkSer))
	for k := range w.linkSer {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		ca, cb := w.linkSer[a], w.linkSer[b]
		if ca != cb {
			return ca > cb
		}
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		return a[1] < b[1]
	})
	for _, k := range keys {
		a.TopSerialization = append(a.TopSerialization, LinkBlame{From: k[0], To: k[1], Cycles: w.linkSer[k]})
	}
	return a, nil
}

func blameTable(blame *[numClasses]int) []BlameEntry {
	out := make([]BlameEntry, numClasses)
	for c := Class(0); c < numClasses; c++ {
		out[c] = BlameEntry{Class: c.String(), Cycles: blame[c]}
	}
	return out
}

// walk runs the backward chain from the completion node to cycle 0.
func (w *walker) walk(cur node) error {
	b := w.b
	for {
		w.nodes++
		switch cur.kind {
		case nArrive:
			s := b.streams[cur.sid]
			sc, err := eventCycle(s.sends, cur.flit, s, "send")
			if err != nil {
				return err
			}
			w.addSeg(sc, cur.cycle, ClassSerialization, s.key.from, s.key.to, s.tree, s.key.phase, s.key.job)
			cur = node{kind: nSend, sid: cur.sid, flit: cur.flit, cycle: sc}

		case nSend:
			s := b.streams[cur.sid]
			pred, err := w.sendPred(cur, s)
			if err != nil {
				return err
			}
			w.classifyGap(s, pred.cycle, cur.cycle, true)
			cur = pred

		case nCompute:
			pred, err := w.computePred(cur)
			if err != nil {
				return err
			}
			j := b.jobs[cur.job]
			w.addSeg(pred.cycle, cur.cycle, ClassCompute, j.root, j.root, j.tree, -1, cur.job)
			cur = pred

		case nBirth:
			birth, ri := b.birth(cur.job)
			if ri < 0 {
				if birth != 0 {
					return fmt.Errorf("critpath: initial job %d born at cycle %d", cur.job, birth)
				}
				return nil // reached cycle 0
			}
			cur = node{kind: nRecover, ri: ri, cycle: birth}

		case nRecover:
			r := b.recovers[cur.ri]
			// Pair the round with the fault that triggered it: the latest
			// lossy mark at or before the recovery, preferring one on the
			// round's own suspect link. Under nested recoveries or mixed
			// plans the unfiltered latest mark can be a degraded/stall
			// window opening or another link's storm pulse, which would
			// mis-split the detect/recovery interval and bridge into the
			// wrong stream's history.
			fi := -1
			for i := len(b.faults) - 1; i >= 0; i-- {
				f := b.faults[i]
				if f.cycle > r.cycle || !lossyFault(f.kind) {
					continue
				}
				if fi < 0 {
					fi = i
				}
				if (f.u == r.u && f.v == r.v) || (f.u == r.v && f.v == r.u) {
					fi = i
					break
				}
			}
			if fi < 0 {
				// A recovery with no fault event would be a simulator bug;
				// surface it as residue rather than guessing.
				w.addSeg(0, r.cycle, ClassUnattributed, r.u, r.v, -1, -1, -1)
				return nil
			}
			f := b.faults[fi]
			detect := r.cycle - f.cycle
			if detect > b.detectDeadline {
				detect = b.detectDeadline
			}
			w.recOn++
			w.recLat += r.cycle - f.cycle
			w.recRounds = append(w.recRounds, cur.ri)
			w.addSeg(f.cycle+detect, r.cycle, ClassRecovery, r.u, r.v, -1, -1, -1)
			w.addSeg(f.cycle, f.cycle+detect, ClassFaultDetect, f.u, f.v, -1, -1, -1)
			cur = node{kind: nFault, ri: fi, cycle: f.cycle}

		case nFault:
			f := b.faults[cur.ri]
			sid, flit, sc := w.lastSendOnLink(f.u, f.v, f.cycle)
			if sid < 0 {
				// The fault hit a link with no recorded traffic; nothing to
				// bridge into, so the pre-fault span stays unexplained.
				w.addSeg(0, f.cycle, ClassUnattributed, f.u, f.v, -1, -1, -1)
				return nil
			}
			s := b.streams[sid]
			w.classifyGap(s, sc, f.cycle, false)
			cur = node{kind: nSend, sid: sid, flit: flit, cycle: sc}
		}
	}
}

// sendPred resolves the data dependency of a send: the event that made
// the flit's payload available at the sender.
func (w *walker) sendPred(cur node, s *stream) (node, error) {
	b := w.b
	if s.key.phase == phaseReduce {
		children := w.redInto[s.key.job][s.key.from]
		if len(children) == 0 {
			// Leaf: its input segment exists from the job's birth.
			return node{kind: nBirth, job: s.key.job, flit: cur.flit, cycle: w.birthCycle(s.key.job)}, nil
		}
		best, bestID := -1, int32(-1)
		for _, cid := range children {
			cs := b.streams[cid]
			ac, err := eventCycle(cs.arrives, cur.flit, cs, "arrival")
			if err != nil {
				return node{}, err
			}
			if ac > best {
				best, bestID = ac, cid
			}
		}
		return node{kind: nArrive, sid: bestID, flit: cur.flit, cycle: best}, nil
	}
	if in, ok := w.bcastInto[s.key.job][s.key.from]; ok {
		is := b.streams[in]
		ac, err := eventCycle(is.arrives, cur.flit, is, "arrival")
		if err != nil {
			return node{}, err
		}
		return node{kind: nArrive, sid: in, flit: cur.flit, cycle: ac}, nil
	}
	// Root broadcast: sourced from the reduction engine when the run had
	// a reduce phase, from the root's own input otherwise (OpBroadcast).
	if s.key.job < len(b.jobs) {
		if j := b.jobs[s.key.job]; j != nil && cur.flit < len(j.computes) && j.computes[cur.flit] >= 0 {
			return node{kind: nCompute, job: s.key.job, flit: cur.flit, cycle: int(j.computes[cur.flit])}, nil
		}
	}
	return node{kind: nBirth, job: s.key.job, flit: cur.flit, cycle: w.birthCycle(s.key.job)}, nil
}

// computePred resolves a root compute's binding dependency: the slowest
// child arrival of the flit, or the engine's previous output when that
// came later (the engine emits one flit per job per cycle).
func (w *walker) computePred(cur node) (node, error) {
	b := w.b
	j := b.jobs[cur.job]
	best := node{kind: nBirth, job: cur.job, flit: cur.flit, cycle: w.birthCycle(cur.job)}
	for _, cid := range w.redInto[cur.job][j.root] {
		cs := b.streams[cid]
		ac, err := eventCycle(cs.arrives, cur.flit, cs, "arrival")
		if err != nil {
			return node{}, err
		}
		if ac > best.cycle {
			best = node{kind: nArrive, sid: cid, flit: cur.flit, cycle: ac}
		}
	}
	if cur.flit > 0 {
		if pc := int(j.computes[cur.flit-1]); pc > best.cycle {
			best = node{kind: nCompute, job: cur.job, flit: cur.flit - 1, cycle: pc}
		}
	}
	return best, nil
}

func (w *walker) birthCycle(job int) int {
	c, _ := w.b.birth(job)
	return c
}

// classifyGap attributes the cycles (from, to] leading up to an injection
// on stream s: the injection's own slot (when isSend) is serialization,
// and each earlier cycle is classified by what actually occupied it — a
// recorded credit stall, the link injecting the same stream
// (serialization) or another stream (congestion), or nothing the model
// knows about (residue).
func (w *walker) classifyGap(s *stream, from, to int, isSend bool) {
	if to <= from {
		return // same-cycle forwarding: nothing to attribute
	}
	g := to
	if isSend {
		w.addSeg(g-1, g, ClassSerialization, s.key.from, s.key.to, s.tree, s.key.phase, s.key.job)
		g--
	}
	for ; g > from; g-- {
		class := ClassUnattributed
		if containsCycle(s.stalls, g) {
			class = ClassCreditStall
		} else if id := s.link.sendAt(g); id >= 0 {
			if id == s.id {
				class = ClassSerialization
			} else {
				class = ClassCongestion
			}
		}
		w.addSeg(g-1, g, class, s.key.from, s.key.to, s.tree, s.key.phase, s.key.job)
	}
}

// lastSendOnLink finds the latest injection at or before cycle c on
// either direction of the undirected link {u, v}, returning the stream,
// flit and cycle (-1 stream when the link never sent). Ties prefer the
// (u, v) direction, then the lower stream id.
func (w *walker) lastSendOnLink(u, v, c int) (int32, int, int) {
	bestSid, bestFlit, bestCycle := int32(-1), -1, -1
	for _, s := range w.b.streams {
		if !((s.key.from == u && s.key.to == v) || (s.key.from == v && s.key.to == u)) {
			continue
		}
		// Sends are recorded in flit order; scan back to the last one ≤ c.
		for k := len(s.sends) - 1; k >= 0; k-- {
			sc := int(s.sends[k])
			if sc < 0 || sc > c {
				continue
			}
			if sc > bestCycle {
				bestSid, bestFlit, bestCycle = s.id, k, sc
			}
			break
		}
	}
	return bestSid, bestFlit, bestCycle
}

// addSeg records one classified interval (start, end], merging into the
// previously recorded segment when contiguous with the same class and
// stream. The walk emits segments in descending cycle order, so the
// predecessor segment is the one that starts where this one ends.
func (w *walker) addSeg(start, end int, class Class, from, to, tree, phase, job int) {
	if end <= start {
		return
	}
	w.blame[class] += end - start
	if class == ClassSerialization && from >= 0 {
		w.linkSer[[2]int{from, to}] += end - start
	}
	if n := len(w.segs); n > 0 {
		p := &w.segs[n-1]
		if p.Start == end && p.Class == class.String() && p.From == from && p.To == to &&
			p.Tree == tree && p.Phase == phase && p.Job == job {
			p.Start = start
			return
		}
	}
	w.segs = append(w.segs, Segment{
		Start: start, End: end, Class: class.String(),
		From: from, To: to, Tree: tree, Phase: phase, Job: job,
	})
}

// eventCycle fetches a per-flit event cycle, erroring when the causal
// model references an event the trace never recorded.
func eventCycle(sl []int32, flit int, s *stream, what string) (int, error) {
	if flit < len(sl) && sl[flit] >= 0 {
		return int(sl[flit]), nil
	}
	return 0, fmt.Errorf("critpath: missing %s of flit %d on stream job=%d %d→%d phase=%d",
		what, flit, s.key.job, s.key.from, s.key.to, s.key.phase)
}
