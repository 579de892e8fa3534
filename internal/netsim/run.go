package netsim

import (
	"fmt"
	"slices"
)

// Run executes one in-network Allreduce and returns the cycle count and the
// value-verified outputs. It validates the config and the spec first:
// every tree must be a spanning tree of the topology, the split must match
// the input length, and all nodes must provide equal-length inputs.
func Run(spec Spec, cfg Config) (*Result, error) {
	s, err := newSim(spec, cfg)
	if err != nil {
		return nil, err
	}
	return s.run()
}

type sim struct {
	spec Spec
	cfg  Config

	n       int
	m       int   // total vector length
	offsets []int // segment offset per tree

	links []*link // links in (from, to) order; links[id] == &linkSlab[id]
	// rowStart[v] is the index of node v's first outgoing link in links
	// (rowStart[n] == len(links)); links within a row are sorted by
	// destination, so linkAt is a binary search over the row. A CSR index
	// instead of a dense n×n table: at q=127 (N=16 257) the dense table
	// alone would cost a gigabyte for a fabric whose links number ~2M.
	rowStart []int32
	// flowStart[id] is link id's first slot in the flow slabs
	// (flowStart[len(links)] == len(flowSlab)): the link's initial flows,
	// their pointers and their VC windows occupy slots
	// [flowStart[id], flowStart[id+1]) in creation order.
	flowStart []int32
	// The link-major slabs layoutLinks carves once, in link-id order: the
	// link records, the initial flows, the per-link flow pointer lists, the
	// VC windows (VCDepth per flow) and the pipeline rings. Recovery
	// re-issues allocate their flows in a per-job block instead.
	linkSlab []link
	flowSlab []flow
	flowPtrs []*flow
	bufSlab  []int64
	pipeSlab []inflight
	frozen   bool   // initial flows placed; recovery may not add links
	jobs     []*job // initial jobs (one per tree) + recovery re-issues
	pending  int    // flit deliveries still outstanding (all jobs, all nodes)
	bufTotal int    // Σ link.curBuf, maintained on push and retire

	// ev is the wake-set policy's state (wake sets, timing wheel,
	// retirement queues); nil under EngineCycle, whose phases visit every
	// link and flow instead.
	ev *evState

	// traced is cfg.Trace != nil, hoisted so hot-loop emit sites skip
	// building TraceEvent values on untraced runs. lint:cold
	traced bool

	// Telemetry sampling state (see sample.go); sampling is cfg.Sample !=
	// nil, hoisted like traced so the unsampled advance loop never branches
	// into frame assembly. The scratch frame is the only allocation.
	// lint:cold
	sampling      bool
	nextSample    int
	sampleScratch []LinkCounters
	sampleFrame   SampleFrame
	delivered     int // completed target deliveries (root computes + bcast arrivals)
	reduceFlits   int // FlitsSent split: reduce-phase injections
	reissuedTotal int // elements re-issued across all recovery rounds
	// lastFaultCycle / lastRecoverCycle are the RunCounters gauges, -1
	// until the first event.
	lastFaultCycle   int
	lastRecoverCycle int

	// outputs[v] is node v's assembled m-element result, written in place
	// at delivery time (broadcast arrival or root-local compute). All rows
	// share one contiguous backing array.
	outputs [][]int64

	// engineUsed[v] counts reduction flits produced by router v this
	// cycle; charged, read and reset only when cfg.EngineRate is non-zero.
	engineUsed []int

	// Fault-engine state; zero-valued and untouched on fault-free runs.
	// lint:cold
	faultsOn    bool
	faultActive []bool  // per plan fault: currently in its window
	stalled     []bool  // per node: reduction engine frozen
	deadTree    []bool  // per forest tree: aborted by recovery
	degLinks    []*link // links a LinkDegraded fault names
	lossList    []*flow // broken streams awaiting detection (noteLoss)

	result Result
}

// linkAt resolves a directed link through the CSR row index; nil when the
// pair carries no flow. O(log degree), used by construction and the
// fault/recovery paths only — never by the advance loop.
func (s *sim) linkAt(from, to int) *link {
	lo, hi := int(s.rowStart[from]), int(s.rowStart[from+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.links[mid].to < to {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < int(s.rowStart[from+1]) && s.links[lo].to == to {
		return s.links[lo]
	}
	return nil
}

// newSim validates cfg, filling its defaults, and spec, and builds the
// simulator state for one run.
func newSim(spec Spec, cfg Config) (*sim, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	g := spec.Topology
	if g == nil {
		return nil, fmt.Errorf("netsim: nil topology")
	}
	n := g.N()
	if len(spec.Forest) == 0 {
		return nil, fmt.Errorf("netsim: empty forest")
	}
	if len(spec.Split) != len(spec.Forest) {
		return nil, fmt.Errorf("netsim: %d split entries for %d trees", len(spec.Split), len(spec.Forest))
	}
	if len(spec.Inputs) != n {
		return nil, fmt.Errorf("netsim: %d input vectors for %d nodes", len(spec.Inputs), n)
	}
	if spec.Op < OpAllreduce || spec.Op > OpBroadcast {
		return nil, fmt.Errorf("netsim: unknown op %v", spec.Op)
	}
	s := &sim{spec: spec, cfg: cfg, n: n, engineUsed: make([]int, n), traced: cfg.Trace != nil}
	s.offsets = make([]int, 0, len(spec.Forest))
	s.jobs = make([]*job, 0, len(spec.Forest))
	for i, t := range spec.Forest {
		if err := t.ValidateSpanning(g); err != nil {
			return nil, fmt.Errorf("netsim: tree %d: %w", i, err)
		}
		if spec.Split[i] < 0 {
			return nil, fmt.Errorf("netsim: negative split for tree %d", i)
		}
		s.offsets = append(s.offsets, s.m)
		s.m += spec.Split[i]
	}
	for v, in := range spec.Inputs {
		if len(in) != s.m {
			return nil, fmt.Errorf("netsim: node %d input length %d, want %d", v, len(in), s.m)
		}
	}
	if cfg.Faults != nil {
		if spec.Op != OpAllreduce {
			return nil, fmt.Errorf("netsim: fault injection requires OpAllreduce, got %v", spec.Op)
		}
		for i, f := range cfg.Faults.Faults {
			if f.IsLink() {
				if f.U >= n || f.V >= n {
					return nil, fmt.Errorf("netsim: fault %d: link %d-%d outside %d-node topology", i, f.U, f.V, n)
				}
			} else if f.Node >= n {
				return nil, fmt.Errorf("netsim: fault %d: node %d outside %d-node topology", i, f.Node, n)
			}
		}
		s.faultsOn = true
		s.faultActive = make([]bool, len(cfg.Faults.Faults))
		s.stalled = make([]bool, n)
		s.deadTree = make([]bool, len(spec.Forest))
	}

	// One contiguous backing array for all n result rows.
	outBack := make([]int64, n*s.m)
	s.outputs = make([][]int64, n)
	for v := 0; v < n; v++ {
		s.outputs[v] = outBack[v*s.m : (v+1)*s.m : (v+1)*s.m]
	}
	s.layoutLinks()
	if s.faultsOn {
		s.degLinks = s.degradableLinks()
	}
	for ti := range spec.Forest {
		s.addStream(ti, s.offsets[ti], spec.Split[ti])
	}
	s.frozen = true
	s.result.TreeDone = make([]int, len(spec.Forest))
	s.result.TreeReduceDone = make([]int, len(spec.Forest))
	for i := range s.result.TreeDone {
		s.result.TreeDone[i] = -1
		if spec.Op == OpBroadcast {
			s.result.TreeReduceDone[i] = -1 // no reduce phase
		}
		s.checkJobDone(s.jobs[i], 0) // zero-split or trivially-complete trees
	}
	s.initSampling()
	if cfg.Engine == EngineEvent {
		s.initEvent()
	}
	return s, nil
}

// phases reports which collective phases the op runs and how many flows
// one job has: a spanning tree contributes n−1 edges per active phase.
func (s *sim) phases() (withReduce, withBcast bool, jobFlows int) {
	withReduce, withBcast = s.spec.Op != OpBroadcast, s.spec.Op != OpReduce
	if withReduce {
		jobFlows += s.n - 1
	}
	if withBcast {
		jobFlows += s.n - 1
	}
	return withReduce, withBcast, jobFlows
}

// layoutLinks lays out the link set and its slabs in one counting pass
// before any flow exists. It enumerates the directed (from, to) pair of
// every tree edge in every active phase — one pair per initial flow —
// and sorts them once: each run of equal pairs is one link, so run order
// gives the link ids, the run starts give flowStart, and the run heads
// per source give rowStart. Every link then takes its records from the
// slabs in id order: its flow pointers and pipeline ring as full-cap
// windows that can never spill into a neighbour's. The pipeline is sized
// for its maximum in-flight load (one injection per cycle, each airborne
// LinkLatency cycles), so injection never grows it.
func (s *sim) layoutLinks() {
	withReduce, withBcast, jobFlows := s.phases()
	pairs := make([]uint64, 0, len(s.spec.Forest)*jobFlows)
	for _, t := range s.spec.Forest {
		for v, p := range t.Parent {
			if p < 0 {
				continue
			}
			if withReduce {
				pairs = append(pairs, uint64(v)<<32|uint64(p))
			}
			if withBcast {
				pairs = append(pairs, uint64(p)<<32|uint64(v))
			}
		}
	}
	slices.Sort(pairs)
	nl := 0
	for i, k := range pairs {
		if i == 0 || k != pairs[i-1] {
			nl++
		}
	}
	s.linkSlab = make([]link, nl)
	s.links = make([]*link, nl)
	s.rowStart = make([]int32, s.n+1)
	s.flowStart = make([]int32, nl+1)
	id := -1
	for i, k := range pairs {
		if i > 0 && k == pairs[i-1] {
			continue
		}
		id++
		l := &s.linkSlab[id]
		l.from, l.to, l.id = int(k>>32), int(uint32(k)), int32(id)
		s.links[id] = l
		s.rowStart[l.from+1]++
		s.flowStart[id] = int32(i)
	}
	s.flowStart[nl] = int32(len(pairs))
	for v := 0; v < s.n; v++ {
		s.rowStart[v+1] += s.rowStart[v]
	}

	ring := s.cfg.LinkLatency
	s.flowSlab = make([]flow, len(pairs))
	s.flowPtrs = make([]*flow, len(pairs))
	s.bufSlab = make([]int64, len(pairs)*s.cfg.VCDepth)
	s.pipeSlab = make([]inflight, nl*ring)
	for id, l := range s.links {
		lo, hi := s.flowStart[id], s.flowStart[id+1]
		l.flows = s.flowPtrs[lo:lo:hi]
		l.pipeline = s.pipeSlab[id*ring : id*ring : (id+1)*ring]
	}
}

// addFlow stores fl in slot i of flows, gives it the VC window at the
// same index of bufs, and registers it with its directed link, resolved
// through the CSR row index. Before freeze flows and bufs are the
// link-major slabs and i is ignored: the k-th initial flow of link l goes
// to slot flowStart[l]+k, the same slot its pointer takes in l.flows, so
// l.flows keeps creation order and each link's streams, pointers and VC
// windows sit together in link-id order. After freeze (recovery
// re-issues) they are the job's own block, and the link — which must
// already exist, since surviving trees only use links their initial
// flows created — grows l.flows by append.
func (s *sim) addFlow(fl flow, flows []flow, bufs []int64, i int) *flow {
	l := s.linkAt(fl.from, fl.to)
	if l == nil {
		panic(fmt.Sprintf("netsim: internal: flow on unknown link %d→%d", fl.from, fl.to))
	}
	if !s.frozen {
		i = int(s.flowStart[l.id]) + len(l.flows)
	}
	d := s.cfg.VCDepth
	f := &flows[i]
	*f = fl
	f.buf = bufs[i*d : i*d : (i+1)*d]
	f.ln = l
	l.flows = append(l.flows, f)
	return f
}

// addStream builds one job — the collective for the contiguous global
// range [goff, goff+mt) over forest tree ti — together with its per-node
// state and flows. It is used both for the initial Equation 2 split and
// for recovery re-issues, so flow creation order (ascending vertex,
// reduce before broadcast) is part of the determinism contract.
//
// The per-node state is one block per job. An initial job's flows and VC
// windows go to the link-major slabs (addFlow); a re-issue appends to
// frozen links whose slab ranges are full, so it carves them from two
// blocks of its own, sized exactly: a tree contributes n−1 edges per
// active phase, and credit flow caps every buffer at VCDepth flits.
func (s *sim) addStream(ti, goff, mt int) *job {
	t := s.spec.Forest[ti]
	j := &job{idx: len(s.jobs), tree: ti, goff: goff, m: mt, nodes: make([]nodeTree, s.n)}
	for v := 0; v < s.n; v++ {
		j.nodes[v] = nodeTree{
			parent: t.Parent[v],
			seg:    s.spec.Inputs[v][goff : goff+mt],
		}
	}
	withReduce, withBcast, jobFlows := s.phases()
	flows, bufs := s.flowSlab, s.bufSlab
	if s.frozen {
		flows = make([]flow, jobFlows)
		bufs = make([]int64, jobFlows*s.cfg.VCDepth)
	}
	made := 0
	newFlow := func(fl flow) *flow {
		f := s.addFlow(fl, flows, bufs, made)
		made++
		return f
	}
	for v := 0; v < s.n; v++ {
		nt := &j.nodes[v]
		p := t.Parent[v]
		if p >= 0 {
			pt := &j.nodes[p]
			if withReduce {
				nt.redOut = newFlow(flow{j: j, tree: ti, phase: phaseReduce,
					from: v, to: p, m: mt, snd: nt, rcv: pt})
				pt.redIn = append(pt.redIn, nt.redOut)
			}
			if withBcast {
				nt.bcastIn = newFlow(flow{j: j, tree: ti, phase: phaseBcast,
					from: p, to: v, m: mt, snd: pt, rcv: nt})
				pt.bcastOut = append(pt.bcastOut, nt.bcastIn)
			}
		} else {
			// The root's reduction-engine output is the root's result row:
			// both were always written with identical values at identical
			// times, so they share the outputs storage (and recovery
			// re-issues reuse it instead of allocating fresh scratch).
			nt.rootResult = s.outputs[v][goff : goff+mt]
			if s.spec.Op == OpBroadcast {
				// The root sources its own input; it is trivially done.
				copy(nt.rootResult, nt.seg)
				nt.rootComputed = mt
				nt.delivered = mt
			}
		}
		// Completion targets per op: everyone for allreduce/broadcast,
		// only the root for reduce.
		switch s.spec.Op {
		case OpReduce:
			if p < 0 {
				nt.target = mt
			}
		default:
			nt.target = mt
		}
		s.pending += nt.target - nt.delivered
		j.remaining += nt.target - nt.delivered
	}
	// Seed the incremental minima (see nodeTree): every in-stream starts
	// at arrived == 0 and every out-stream at sent == 0, so the census is
	// len at minimum 0; an empty broadcast fan-out takes the sentinel the
	// credit release expects. Recovery re-issues pass through here too.
	for v := 0; v < s.n; v++ {
		nt := &j.nodes[v]
		nt.redMinCnt = len(nt.redIn)
		if len(nt.bcastOut) == 0 {
			nt.bcastMin = evInf
		} else {
			nt.bcastMinCnt = len(nt.bcastOut)
		}
	}
	s.jobs = append(s.jobs, j)
	return j
}

// reduceReady returns how many reduced flits node nt could emit so far:
// bounded by the slowest child stream (its own input is always
// available), read from the redMin census.
func (nt *nodeTree) reduceReady(m int) int {
	if len(nt.redIn) == 0 || nt.redMin >= m {
		return m
	}
	return nt.redMin
}

// senderReady returns how many flits the sender of f has available to
// inject.
func (s *sim) senderReady(f *flow) int {
	nt := f.snd
	if f.phase == phaseReduce {
		return nt.reduceReady(f.m)
	}
	// Broadcast: the root sources from its reduction engine, everyone else
	// from the stream received from their parent.
	if nt.bcastIn == nil {
		return nt.rootComputed
	}
	return nt.bcastIn.arrived
}

// flitValue produces the value of flit k on flow f at injection time.
func (s *sim) flitValue(f *flow, k int) int64 {
	nt := f.snd
	if f.phase == phaseReduce {
		v := nt.seg[k]
		for _, cf := range nt.redIn {
			v += cf.at(k)
		}
		return v
	}
	if nt.bcastIn == nil {
		return nt.rootResult[k]
	}
	return nt.bcastIn.at(k)
}

// noteStall records a credit stall: the stream has a flit ready but its
// VC window is full. The arbitration scan visits each stream at most once
// a cycle; a link counts one stall cycle however many of its streams
// stall in it.
func (s *sim) noteStall(l *link, f *flow, now int) {
	if l.stallMark != now {
		l.stallMark = now
		l.stallCycles++
	}
	s.emit(TraceEvent{Cycle: now, Kind: TraceStall, Tree: f.tree, Phase: f.phase,
		From: f.from, To: f.to, Flit: f.sent, Value: int64(f.sent - f.consumed), Job: f.j.idx})
}

// checkJobDone marks a completed job and, when it was the last unfinished
// job on its tree, records the tree's completion cycle. The per-job
// remaining counter makes the completion test O(1) per delivery.
func (s *sim) checkJobDone(j *job, now int) {
	if j.done || j.dead || j.remaining > 0 {
		return
	}
	j.done = true
	for _, o := range s.jobs {
		if o.tree == j.tree && !o.dead && !o.done {
			return
		}
	}
	s.result.TreeDone[j.tree] = now
}

func (s *sim) run() (*Result, error) {
	now, err := s.advance()
	if err != nil {
		return nil, err
	}
	return s.finalize(now)
}

// advance runs the per-cycle phase sequence — fault transitions, deliver,
// recover, root compute, credit release, arbitrate, occupancy, sample,
// progress — until every flit is delivered, returning the cycle count.
// Config.Engine only chooses what the phases visit: every link and flow
// in every cycle (EngineCycle), or the links and flows in the wake sets,
// with idle cycles skipped (EngineEvent). Both policies therefore
// produce the same results, traces and frames. This is the simulator's
// hot path: everything reachable from here must stay allocation-free
// outside the cold tracing/sampling/fault branches.
//
//lint:hotpath per-cycle advance loop; allocation here scales with processed cycles × visited links
func (s *sim) advance() (int, error) {
	ev := s.ev // nil under EngineCycle: phases visit everything
	now, lastProgress := 0, 0
	for s.pending > 0 {
		if ev != nil {
			now = s.nextEventCycle(now, lastProgress)
			ev.turn()
		} else {
			now++
		}
		if s.cfg.EngineRate > 0 {
			for v := range s.engineUsed {
				s.engineUsed[v] = 0
			}
		}
		progressed := false

		// 0. Fault plan transitions: fail/heal links, start/stop
		//    degradation windows and engine stalls.
		if s.faultsOn {
			s.applyFaults(now)
		}

		// 1. Deliver flits whose pipeline delay expires this cycle.
		links := s.links
		if ev != nil {
			links = s.due(now)
		}
		progressed = s.deliver(links, now) || progressed

		// 1b. Loss detection and recovery: streams whose first dropped
		//     flit is overdue identify failed links; the trees crossing
		//     them abort and re-issue over the survivors.
		if s.faultsOn {
			if suspects := s.detectLoss(now); len(suspects) > 0 {
				if err := s.recoverFrom(now, suspects); err != nil {
					return 0, err
				}
				progressed = true
				if ev != nil {
					s.rewake()
				}
			}
		}

		// 2. Root reduction engines run at link rate.
		progressed = s.computeRoots(now) || progressed

		// 3. Credit release from receiver progress.
		links = s.links
		if ev != nil {
			links = s.drain(&ev.conNow)
		}
		s.release(links)

		// 4. Link arbitration: one flit per directed link per cycle,
		//    round-robin over virtual channels with data and credit.
		//    Degraded links refill their token buckets first, whether or
		//    not they are visited; only links a LinkDegraded fault names
		//    can be degraded.
		for _, l := range s.degLinks {
			if l.degraded {
				// Token bucket: refill at the degraded rate, burst capped
				// so idle cycles cannot bank unbounded credit.
				l.degBudget += l.degRate
				if burst := maxf(1, l.degRate); l.degBudget > burst {
					l.degBudget = burst
				}
			}
		}
		links = s.links
		if ev != nil {
			links = s.drain(&ev.cur)
		}
		progressed = s.arbitrate(links, now) || progressed

		// 5. Track peak buffering (globally and per link) and publish
		//    occupancy changes to the trace.
		links = s.links
		if ev != nil {
			links = s.drain(&ev.occ)
		}
		s.noteOccupancy(links, now)
		if s.bufTotal > s.result.PeakBufferFlits {
			s.result.PeakBufferFlits = s.bufTotal
		}

		// 6. Telemetry sample boundary: hand the cumulative counters to the
		//    hook. Cold unless sampling is enabled, and O(links) only at
		//    boundary cycles (which the skip horizon never jumps).
		if s.sampling && now >= s.nextSample {
			s.sampleNow(now, false)
			s.nextSample = now + s.cfg.SampleEvery
		}

		// 7. Progress accounting: skipped cycles change nothing, so they
		//    count as idle and the deadlock diagnostic fires at the same
		//    cycle under both policies.
		if progressed {
			lastProgress = now
		} else if idle := now - lastProgress; idle > DefaultProgressTimeout {
			return 0, s.progressError(now, idle)
		}
	}
	return now, nil
}

// deliver accepts the flits on the given links whose pipeline delay
// expires at now. Under the wake-set policy each accepted arrival also
// wakes what it feeds: a reduce arrival the receiver's parent stream (the
// root engines run every processed cycle), a broadcast arrival the
// receiver's child streams and its own buffer retirement.
func (s *sim) deliver(links []*link, now int) bool {
	ev := s.ev
	progressed := false
	for _, l := range links {
		for l.pipeHead < len(l.pipeline) && l.pipeline[l.pipeHead].arrive <= now {
			fl := l.pipeline[l.pipeHead]
			l.pipeHead++
			f := fl.f
			if f.lost {
				// The stream already dropped an earlier flit: this one is out
				// of sequence and must not land at the wrong prefix index.
				// Discard; recovery re-issues the range.
				s.result.DroppedFlits++
				l.dropped++
				s.emit(TraceEvent{Cycle: now, Kind: TraceDrop, Tree: f.tree, Phase: f.phase,
					From: f.from, To: f.to, Flit: -1, Value: fl.val, Job: f.j.idx})
				continue
			}
			progressed = true
			f.push(fl.val)
			l.curBuf++
			s.bufTotal++
			s.result.DeliveredFlits++
			k := f.arrived
			f.arrived++
			nt := f.rcv
			if s.traced {
				s.emit(TraceEvent{Cycle: now, Kind: TraceArrive, Tree: f.tree, Phase: f.phase,
					From: f.from, To: f.to, Flit: k, Value: fl.val, Job: f.j.idx})
			}
			if f.phase == phaseBcast {
				// Local delivery on arrival.
				s.outputs[f.to][f.j.goff+k] = fl.val
				nt.delivered++
				if s.sampling {
					s.delivered++
				}
				s.pending--
				f.j.remaining--
				s.checkJobDone(f.j, now)
			} else if k == nt.redMin {
				// Census upkeep: f sat at the minimum and moved up one.
				nt.redMinCnt--
				if nt.redMinCnt == 0 {
					nt.redMin++
					c := 0
					for _, cf := range nt.redIn {
						if cf.arrived == nt.redMin {
							c++
						}
					}
					nt.redMinCnt = c
				}
			}
			if ev != nil {
				ev.occ.add(l.id)
				if f.phase == phaseBcast {
					for _, of := range nt.bcastOut {
						ev.cur.add(of.ln.id)
					}
					ev.conNow.add(l.id)
				} else if nt.redOut != nil {
					ev.cur.add(nt.redOut.ln.id)
				}
			}
		}
		if l.pipeHead == len(l.pipeline) && l.pipeHead > 0 {
			l.pipeline = l.pipeline[:0]
			l.pipeHead = 0
		}
	}
	return progressed
}

// computeRoots advances every live root reduction engine by one flit
// (§5.1: the engine runs at link rate), unless EngineRate caps the
// router's total output, recording the final value and delivering it
// locally. Under the wake-set policy each computed flit wakes the root's
// child streams and retires its input buffers this same cycle, and
// rootNext keeps the next cycle scheduled while any engine still holds
// computable flits. It reports whether any flit was computed.
func (s *sim) computeRoots(now int) bool {
	ev := s.ev
	if s.spec.Op == OpBroadcast {
		return false // roots already hold their source data
	}
	progressed := false
	for _, j := range s.jobs {
		if j.dead || j.done {
			continue
		}
		root := s.spec.Forest[j.tree].Root
		if s.faultsOn && s.stalled[root] {
			continue // faulted runs process every cycle; no wake needed
		}
		nt := &j.nodes[root]
		mt := j.m
		if k := nt.rootComputed; k < mt && nt.reduceReady(mt) > k &&
			(s.cfg.EngineRate == 0 || s.engineUsed[root] < s.cfg.EngineRate) {
			if s.cfg.EngineRate > 0 {
				s.engineUsed[root]++
			}
			v := nt.seg[k]
			for _, cf := range nt.redIn {
				v += cf.at(k)
			}
			// rootResult aliases s.outputs[root][goff:goff+mt], so this one
			// write is both the engine output and the local delivery.
			nt.rootResult[k] = v
			nt.rootComputed++
			if nt.rootComputed == mt {
				s.result.TreeReduceDone[j.tree] = now
			}
			nt.delivered++
			if s.sampling {
				s.delivered++
			}
			s.pending--
			j.remaining--
			if s.traced {
				s.emit(TraceEvent{Cycle: now, Kind: TraceRootCompute, Tree: j.tree,
					From: root, To: root, Flit: k, Value: v, Job: j.idx})
			}
			s.checkJobDone(j, now)
			progressed = true
			if ev != nil {
				for _, of := range nt.bcastOut {
					ev.cur.add(of.ln.id)
				}
				for _, cf := range nt.redIn {
					ev.conNow.add(cf.ln.id)
				}
			}
		}
		if ev != nil && !j.done && nt.rootComputed < mt &&
			nt.reduceReady(mt) > nt.rootComputed {
			ev.rootNext = true
		}
	}
	return progressed
}

// release advances the consumed counters (credit release) of the given
// links' flows from their receivers' progress and trims their buffers.
// Under the wake-set policy freed credit wakes the link for this cycle's
// arbitration: credit is released in phase 3 and links arbitrate in
// phase 4, so a same-cycle send on the freed window is the per-cycle
// semantics, not an anticipation.
func (s *sim) release(links []*link) {
	ev := s.ev
	for _, l := range links {
		for _, f := range l.flows {
			if f.consumed >= f.m {
				continue // stream fully retired
			}
			nt := f.rcv
			var c int
			if f.phase == phaseReduce {
				if nt.redOut != nil {
					// A reduced flit k is retired from each child buffer
					// when the combined flit k departs toward the parent.
					c = nt.redOut.sent
				} else {
					// Root: retired when the reduction engine computes it.
					c = nt.rootComputed
				}
			} else {
				// Broadcast buffer at v is retired when flit k has been
				// forwarded to all of v's children (leaves retire on
				// arrival; local delivery copies the value eagerly).
				c = f.arrived
				if nt.bcastMin < c {
					c = nt.bcastMin
				}
			}
			if c > f.consumed {
				l.curBuf -= c - f.consumed
				s.bufTotal -= c - f.consumed
				f.consumed = c
				f.dropTo(c)
				if ev != nil {
					ev.occ.add(l.id)
					if f.sent < f.m {
						ev.cur.add(l.id)
					}
				}
			}
		}
	}
}

// arbitrate injects at most one flit into each of the given links: the
// first virtual channel, round-robin from the link's pointer, with data,
// credit and (for combining senders) a free engine slot. Under the
// wake-set policy each send schedules its arrival on the wheel and queues
// the sender's own receive buffers for retirement next cycle, and the
// closing scan re-arms the link for the next cycle whenever any stream
// still has data to move — the one rule that keeps stalled, metered and
// rate-limited streams scanned (and their stalls counted) every cycle, as
// under the visit-all policy. It reports whether any flit was sent.
func (s *sim) arbitrate(links []*link, now int) bool {
	ev := s.ev
	progressed := false
	for _, l := range links {
		nf := len(l.flows)
		for i := 0; i < nf; i++ {
			if l.degraded && l.degBudget < 1 {
				break // metered out this cycle
			}
			f := l.flows[(l.rr+i)%nf]
			if f.sent >= f.m {
				continue // stream finished
			}
			if s.senderReady(f) <= f.sent {
				continue // nothing to send yet
			}
			if f.sent-f.consumed >= s.cfg.VCDepth {
				s.noteStall(l, f, now)
				continue // no credit
			}
			if f.phase == phaseReduce && s.faultsOn && s.stalled[f.from] &&
				len(f.snd.redIn) > 0 {
				continue // combining engine frozen by an engine-stall fault
			}
			if f.phase == phaseReduce && s.cfg.EngineRate > 0 && len(f.snd.redIn) > 0 {
				// A non-leaf sender combines child flits as it transmits —
				// that production consumes engine slots.
				if s.engineUsed[f.from] >= s.cfg.EngineRate {
					continue
				}
				s.engineUsed[f.from]++
			}
			k := f.sent
			val := s.flitValue(f, k)
			f.sent++
			s.result.FlitsSent++
			if s.sampling && f.phase == phaseReduce {
				s.reduceFlits++
			}
			if s.traced {
				s.emit(TraceEvent{Cycle: now, Kind: TraceSend, Tree: f.tree, Phase: f.phase,
					From: f.from, To: f.to, Flit: k, Value: val, Job: f.j.idx})
			}
			if l.failed {
				// The physical layer fails silently: the sender spends its
				// cycle, the flit evaporates, the stream is broken.
				s.noteLoss(f, now)
				s.result.DroppedFlits++
				l.dropped++
				s.emit(TraceEvent{Cycle: now, Kind: TraceDrop, Tree: f.tree, Phase: f.phase,
					From: f.from, To: f.to, Flit: k, Value: val, Job: f.j.idx})
			} else {
				l.pipePush(inflight{f: f, val: val, arrive: now + s.cfg.LinkLatency})
			}
			snd := f.snd
			if f.phase == phaseBcast && k == snd.bcastMin {
				// Census upkeep: f sat at the minimum and moved up one.
				snd.bcastMinCnt--
				if snd.bcastMinCnt == 0 {
					snd.bcastMin++
					c := 0
					for _, of := range snd.bcastOut {
						if of.sent == snd.bcastMin {
							c++
						}
					}
					snd.bcastMinCnt = c
				}
			}
			if ev != nil {
				if !l.failed {
					ev.wheelAdd(now+s.cfg.LinkLatency, l.id)
				}
				if f.phase == phaseReduce {
					for _, cf := range snd.redIn {
						ev.conNext.add(cf.ln.id)
					}
				} else if snd.bcastIn != nil {
					ev.conNext.add(snd.bcastIn.ln.id)
				}
			}
			if l.degraded {
				l.degBudget--
			}
			l.rr = (l.rr + i + 1) % nf
			l.flits++
			l.busyCycles++
			progressed = true
			break
		}
		if ev != nil {
			for _, f := range l.flows {
				if f.sent < f.m && s.senderReady(f) > f.sent {
					ev.nxt.add(l.id)
					break
				}
			}
		}
	}
	return progressed
}

// noteOccupancy updates the given links' peak buffer occupancy and
// publishes changes to the trace. Occupancy is maintained incrementally
// on push and retire, so this reads one counter per link.
func (s *sim) noteOccupancy(links []*link, now int) {
	for _, l := range links {
		lb := l.curBuf
		if lb > l.peakBuf {
			l.peakBuf = lb
		}
		if lb != l.lastBuf {
			l.lastBuf = lb
			s.emit(TraceEvent{Cycle: now, Kind: TraceBufferOccupancy,
				Tree: -1, Phase: -1, From: l.from, To: l.to, Flit: -1, Value: int64(lb), Job: -1})
		}
	}
}

// finalize runs the post-loop invariant checks and assembles the Result.
// It is off the hot path: per-link summaries may allocate freely.
func (s *sim) finalize(now int) (*Result, error) {
	s.result.Cycles = now

	// Final telemetry frame: closes the partial tail window and flushes
	// downsampling accumulators. Emitted even when the last cycle was a
	// boundary — consumers treat a zero-duration final frame as a flush
	// marker.
	if s.sampling {
		s.sampleNow(now, true)
	}

	// Post-run invariants: every stream fully drained, no flit stranded in
	// a pipeline or buffer, all credits returned. A violation indicates a
	// simulator bug, not a workload property, so it is an error.
	s.release(s.links)
	for _, l := range s.links {
		if l.pipeLen() != 0 {
			return nil, fmt.Errorf("netsim: internal: %d flits stranded in a link pipeline", l.pipeLen())
		}
		for _, f := range l.flows {
			if f.sent != f.m || f.arrived != f.m {
				return nil, fmt.Errorf("netsim: internal: flow tree=%d phase=%d %d→%d ended at sent=%d arrived=%d of %d",
					f.tree, f.phase, f.from, f.to, f.sent, f.arrived, f.m)
			}
			if f.consumed != f.m || f.bufLen() != 0 {
				return nil, fmt.Errorf("netsim: internal: flow tree=%d %d→%d left %d flits buffered",
					f.tree, f.from, f.to, f.bufLen())
			}
		}
	}

	// Flit conservation: every link transmission ends exactly once, as an
	// accepted arrival or as one of the four drop sites (injection into a
	// failed link, pipeline purge at fault activation, out-of-sequence
	// discard, abort purge at recovery).
	if s.result.FlitsSent != s.result.DeliveredFlits+s.result.DroppedFlits {
		return nil, fmt.Errorf("netsim: internal: flit conservation violated: sent=%d delivered=%d dropped=%d",
			s.result.FlitsSent, s.result.DeliveredFlits, s.result.DroppedFlits)
	}

	s.result.Outputs = s.outputs
	s.result.Arena = s.arenaFootprint()

	// Post-recovery bandwidth: the work outstanding at the last recovery
	// over the cycles the survivors took to finish it.
	if nr := len(s.result.Recoveries); nr > 0 {
		last := s.result.Recoveries[nr-1]
		if s.result.Cycles > last.Cycle {
			s.result.PostRecoveryBW = float64(last.Remaining) / float64(s.result.Cycles-last.Cycle)
		}
	}

	// Per-link summary; s.links is already in (from, to) order.
	s.result.LinkStats = make([]LinkStat, 0, len(s.links))
	for _, l := range s.links {
		treeSet := make(map[int]bool)
		for _, f := range l.flows {
			treeSet[f.tree] = true
		}
		ls := LinkStat{
			From: l.from, To: l.to,
			Flits:           l.flits,
			BusyCycles:      l.busyCycles,
			StallCycles:     l.stallCycles,
			Dropped:         l.dropped,
			PeakBufferFlits: l.peakBuf,
			Trees:           len(treeSet),
		}
		if now > 0 {
			ls.Utilization = float64(l.busyCycles) / float64(now)
		}
		s.result.LinkStats = append(s.result.LinkStats, ls)
	}
	return &s.result, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// ExpectedOutput computes the reference element-wise sum of the inputs,
// for verification.
func ExpectedOutput(inputs [][]int64) []int64 {
	if len(inputs) == 0 {
		return nil
	}
	out := make([]int64, len(inputs[0]))
	for _, in := range inputs {
		for k, v := range in {
			out[k] += v
		}
	}
	return out
}

// UsedDirectedLinks returns the number of distinct directed links carrying
// at least one flow — a sanity statistic for embeddings.
func UsedDirectedLinks(spec Spec) int {
	seen := make(map[[2]int]bool)
	for _, t := range spec.Forest {
		for v, p := range t.Parent {
			if p >= 0 {
				seen[[2]int{v, p}] = true
				seen[[2]int{p, v}] = true
			}
		}
	}
	return len(seen)
}
