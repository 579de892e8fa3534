package netsim

import (
	"fmt"
	"slices"
)

// Run executes one in-network Allreduce and returns the cycle count and the
// value-verified outputs. It validates the config and the spec first:
// every tree must be a spanning tree of the topology, the split must match
// the input length, and all nodes must provide equal-length inputs.
// Trees that share no topology edge cannot interact, so Run simulates
// each independent group of trees as a sim of its own, on GOMAXPROCS
// workers, and merges their Results into the one a single sim of the
// whole forest returns (group.go).
func Run(spec Spec, cfg Config) (*Result, error) {
	r, err := prepare(spec, cfg)
	if err != nil {
		return nil, err
	}
	p := r.partition()
	if len(p.groups) == 1 {
		return r.build(p.groups[0], nil).run()
	}
	return r.runGroups(p)
}

// runSpec is one run's validated spec and config, with the storage every
// sim of the run shares: a grouped run builds one sim per group over the
// same runSpec, and each group writes only its own trees' entries and
// output columns.
type runSpec struct {
	spec Spec
	cfg  Config

	n       int
	m       int   // total vector length
	offsets []int // segment offset per tree

	// outputs[v] is node v's assembled m-element result, written in place
	// at delivery time (broadcast arrival or root-local compute). All rows
	// share one contiguous backing array.
	outputs [][]int64
	// treeDone and treeReduceDone back Result.TreeDone and
	// Result.TreeReduceDone.
	treeDone, treeReduceDone []int
}

type sim struct {
	runSpec

	// trees are the forest trees this sim carries, ascending: the whole
	// forest, or one independent group of a grouped run. The initial jobs
	// follow their order.
	trees []int

	links []*link // links in (from, to) order; links[id] == &linkSlab[id]
	// rowStart[v] is the index of node v's first outgoing link in links
	// (rowStart[n] == len(links)); links within a row are sorted by
	// destination, so linkAt is a binary search over the row. A CSR index
	// instead of a dense n×n table: at q=127 (N=16 257) the dense table
	// alone would cost a gigabyte for a fabric whose links number ~2M.
	rowStart []int32
	// flowStart[id] is link id's first slot in the flow slabs
	// (flowStart[len(links)] == len(flowSlab)): the link's initial flows
	// and their pointers occupy slots [flowStart[id], flowStart[id+1]) in
	// creation order.
	flowStart []int32
	// The link-major slabs layoutLinks carves once, in link-id order: the
	// link records, the initial flows, the per-link flow pointer lists and
	// the pipeline rings. Recovery re-issues allocate their flows in a
	// per-job block instead.
	linkSlab []link
	flowSlab []flow
	flowPtrs []*flow
	pipeSlab []inflight
	// nodeSlab holds the initial jobs' per-vertex state, n records per job
	// in job order; recovery re-issues allocate theirs per job.
	nodeSlab []nodeTree
	// accSlab holds the initial jobs' reduction windows (nodeTree.acc),
	// window slots for each node with children, in job then vertex order;
	// recovery re-issues carve theirs from a block of their own. window is
	// the smallest power of two ≥ VCDepth.
	accSlab  []int64
	window   int
	frozen   bool   // initial flows placed; recovery may not add links
	jobs     []*job // initial jobs (one per tree) + recovery re-issues
	pending  int    // flit deliveries still outstanding (all jobs, all nodes)
	bufTotal int    // Σ link.curBuf, maintained on push and retire
	// stalls is Σ link.stallCycles: the (link, cycle) pairs in which
	// arbitration found a flit ready but no credit. adapt reads its
	// per-cycle delta.
	stalls int

	// grouped marks one group's sim of a grouped run. Such a sim records
	// each change of its buffered-flit total in bufDiff, its worker's
	// per-cycle difference array, from which the merged PeakBufferFlits
	// is summed across groups; bufLast is the total last recorded. The
	// array grows only while a worker's group runs longer than any before
	// it, and the BenchmarkEventLoop group witness measures the record
	// allocation-free. lint:cold
	grouped bool
	bufDiff []int
	bufLast int

	// sched is the wake-set policy's state (wake sets, timing wheel,
	// retirement queues), allocated once; nil under EngineCycle. ev is the
	// schedule the phases follow this cycle: sched on a sparse cycle of the
	// wake-set policy, nil on every cycle that visits every link and flow
	// instead (all of them under EngineCycle).
	sched *evState
	ev    *evState

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

// prepare validates cfg, filling its defaults, and spec, once per run,
// and allocates what every sim of the run shares.
func prepare(spec Spec, cfg Config) (*runSpec, error) {
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
	r := &runSpec{spec: spec, cfg: cfg, n: n, offsets: make([]int, 0, len(spec.Forest))}
	for i, t := range spec.Forest {
		if err := t.ValidateSpanning(g); err != nil {
			return nil, fmt.Errorf("netsim: tree %d: %w", i, err)
		}
		if spec.Split[i] < 0 {
			return nil, fmt.Errorf("netsim: negative split for tree %d", i)
		}
		r.offsets = append(r.offsets, r.m)
		r.m += spec.Split[i]
	}
	for v, in := range spec.Inputs {
		if len(in) != r.m {
			return nil, fmt.Errorf("netsim: node %d input length %d, want %d", v, len(in), r.m)
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
	}

	// One contiguous backing array for all n result rows.
	outBack := make([]int64, n*r.m)
	r.outputs = make([][]int64, n)
	for v := 0; v < n; v++ {
		r.outputs[v] = outBack[v*r.m : (v+1)*r.m : (v+1)*r.m]
	}
	r.treeDone = make([]int, len(spec.Forest))
	r.treeReduceDone = make([]int, len(spec.Forest))
	for i := range r.treeDone {
		r.treeDone[i] = -1
		if spec.Op == OpBroadcast {
			r.treeReduceDone[i] = -1 // no reduce phase
		}
	}
	return r, nil
}

// newSim validates spec and cfg and builds one sim of the whole forest:
// Run's one-group case, and the construction tests and benchmarks drive
// directly.
func newSim(spec Spec, cfg Config) (*sim, error) {
	r, err := prepare(spec, cfg)
	if err != nil {
		return nil, err
	}
	return r.build(r.allTrees(), nil), nil
}

// allTrees lists every tree of the forest.
func (r *runSpec) allTrees() []int {
	trees := make([]int, len(r.spec.Forest))
	for i := range trees {
		trees[i] = i
	}
	return trees
}

// reuse returns buf resliced to n zeroed elements when its capacity
// allows, else a new slice: how a sim takes over the slabs of its
// worker's previous one.
func reuse[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// build builds the sim of the given forest trees, ascending, over r. prev,
// when non-nil, is a finished sim of the same run whose slabs the new one
// takes over, as a worker does from one group to the next.
func (r *runSpec) build(trees []int, prev *sim) *sim {
	if prev == nil {
		prev = &sim{}
	}
	s := &sim{runSpec: *r, trees: trees, engineUsed: reuse(prev.engineUsed, r.n),
		bufDiff: prev.bufDiff, traced: r.cfg.Trace != nil, window: 1}
	for s.window < s.cfg.VCDepth {
		s.window <<= 1
	}
	s.jobs = make([]*job, 0, len(trees))
	s.result.TreeDone, s.result.TreeReduceDone = r.treeDone, r.treeReduceDone
	if s.cfg.Faults != nil {
		s.faultsOn = true
		s.faultActive = make([]bool, len(s.cfg.Faults.Faults))
		s.stalled = make([]bool, s.n)
		s.deadTree = make([]bool, len(s.spec.Forest))
	}
	s.layoutLinks(prev)
	if s.faultsOn {
		s.degLinks = s.degradableLinks()
	}
	s.nodeSlab = reuse(prev.nodeSlab, len(trees)*s.n)
	for _, ti := range trees {
		s.addStream(ti, s.offsets[ti], s.spec.Split[ti])
	}
	// The initial jobs' reduction windows: one slab, sized once every
	// job's children are known, carved in job then vertex order.
	windows := 0
	for _, j := range s.jobs {
		windows += j.combining()
	}
	s.accSlab = reuse(prev.accSlab, windows*s.window)
	accs := s.accSlab
	for _, j := range s.jobs {
		accs = j.takeWindows(accs, s.window)
	}
	s.frozen = true
	for _, j := range s.jobs {
		s.checkJobDone(j, 0) // zero-split or trivially-complete trees
	}
	s.initSampling()
	if s.cfg.Engine == EngineEvent {
		s.initEvent()
	}
	return s
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
// LinkLatency cycles), so injection never grows it. The slabs reuse
// prev's (see build).
func (s *sim) layoutLinks(prev *sim) {
	withReduce, withBcast, jobFlows := s.phases()
	pairs := make([]uint64, 0, len(s.trees)*jobFlows)
	for _, ti := range s.trees {
		for v, p := range s.spec.Forest[ti].Parent {
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
	s.linkSlab = reuse(prev.linkSlab, nl)
	s.links = reuse(prev.links, nl)
	s.rowStart = reuse(prev.rowStart, s.n+1)
	s.flowStart = reuse(prev.flowStart, nl+1)
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
	s.flowSlab = reuse(prev.flowSlab, len(pairs))
	s.flowPtrs = reuse(prev.flowPtrs, len(pairs))
	s.pipeSlab = reuse(prev.pipeSlab, nl*ring)
	for id, l := range s.links {
		lo, hi := s.flowStart[id], s.flowStart[id+1]
		l.flows = s.flowPtrs[lo:lo:hi]
		l.pipeline = s.pipeSlab[id*ring : id*ring : (id+1)*ring]
	}
}

// addFlow stores fl in slot i of flows and registers it with its
// directed link, resolved through the CSR row index. Before freeze flows
// is the link-major slab and i is ignored: the k-th initial flow of link
// l goes to slot flowStart[l]+k, the same slot its pointer takes in
// l.flows, so l.flows keeps creation order and each link's streams and
// pointers sit together in link-id order. After freeze (recovery
// re-issues) it is the job's own block, and the link — which must
// already exist, since surviving trees only use links their initial
// flows created — grows l.flows by append.
func (s *sim) addFlow(fl flow, flows []flow, i int) *flow {
	l := s.linkAt(fl.from, fl.to)
	if l == nil {
		panic(fmt.Sprintf("netsim: internal: flow on unknown link %d→%d", fl.from, fl.to))
	}
	if !s.frozen {
		i = int(s.flowStart[l.id]) + len(l.flows)
	}
	f := &flows[i]
	*f = fl
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
// The per-node state is one block of n records per job. An initial job
// takes its block from the node slab and puts its flows in the link-major
// slabs (addFlow), and build carves its reduction windows from the window
// slab once every initial job is built; a re-issue appends to frozen
// links whose slab ranges are full, so it allocates all three blocks of
// its own, sized exactly: a tree contributes n−1 edges per active phase
// and one window per node with children.
func (s *sim) addStream(ti, goff, mt int) *job {
	t := s.spec.Forest[ti]
	j := &job{idx: len(s.jobs), tree: ti, goff: goff, m: mt}
	if s.frozen {
		j.nodes = make([]nodeTree, s.n)
	} else {
		j.nodes = s.nodeSlab[j.idx*s.n : (j.idx+1)*s.n : (j.idx+1)*s.n]
	}
	for v := 0; v < s.n; v++ {
		j.nodes[v] = nodeTree{
			parent: t.Parent[v],
			seg:    s.spec.Inputs[v][goff : goff+mt],
			out:    s.outputs[v][goff : goff+mt],
		}
	}
	withReduce, withBcast, jobFlows := s.phases()
	flows := s.flowSlab
	if s.frozen {
		flows = make([]flow, jobFlows)
	}
	made := 0
	newFlow := func(fl flow) *flow {
		f := s.addFlow(fl, flows, made)
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
		} else if s.spec.Op == OpBroadcast {
			// The root sources its own input; it is trivially done.
			copy(nt.out, nt.seg)
			nt.rootComputed = mt
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
		s.pending += nt.target - nt.delivered()
		j.remaining += nt.target - nt.delivered()
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
	if s.frozen {
		j.takeWindows(make([]int64, j.combining()*s.window), s.window)
	}
	s.jobs = append(s.jobs, j)
	return j
}

// combining counts the job's nodes with children, one reduction window
// each.
func (j *job) combining() int {
	c := 0
	for v := range j.nodes {
		if len(j.nodes[v].redIn) > 0 {
			c++
		}
	}
	return c
}

// takeWindows gives each of the job's nodes with children, in vertex
// order, the next w slots of accs as its reduction window, and returns
// the slots left over.
func (j *job) takeWindows(accs []int64, w int) []int64 {
	for v := range j.nodes {
		if nt := &j.nodes[v]; len(nt.redIn) > 0 {
			nt.acc, accs = accs[:w:w], accs[w:]
		}
	}
	return accs
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

// flitValue produces the value of flit k on flow f at injection time: a
// reduce send combines the sender's window slot with its own input, a
// broadcast send reads the sender's own output row, which its engine
// (root) or its parent's stream wrote.
func (s *sim) flitValue(f *flow, k int) int64 {
	if f.phase == phaseReduce {
		return f.snd.combine(k)
	}
	return f.snd.out[k]
}

// noteStall records a credit stall: the stream has a flit ready but its
// VC window is full. The arbitration scan visits each stream at most once
// a cycle; a link counts one stall cycle however many of its streams
// stall in it.
func (s *sim) noteStall(l *link, f *flow, now int) {
	if l.stallMark != now {
		l.stallMark = now
		l.stallCycles++
		s.stalls++
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
// The wake policy only chooses what the phases visit: every link and flow
// in every cycle (EngineCycle), or, under EngineEvent, the links and
// flows in the wake sets with idle cycles skipped on sparse cycles and
// every link after a busy one (adapt). Both policies therefore produce
// the same results, traces and frames. This is the simulator's hot path:
// everything reachable from here must stay allocation-free outside the
// cold tracing/sampling/fault branches.
//
//lint:hotpath per-cycle advance loop; allocation here scales with processed cycles × visited links
func (s *sim) advance() (int, error) {
	now, lastProgress := 0, 0
	for s.pending > 0 {
		if ev := s.ev; ev != nil {
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
		if s.ev != nil {
			links = s.due(now)
		}
		progressed = s.deliver(links, now) || progressed

		// 1b. Loss detection and recovery: streams whose first dropped
		//     flit is overdue identify failed links; the trees crossing
		//     them abort and re-issue over the survivors. Purges and
		//     re-issues move data between streams wholesale, so a sparse
		//     cycle finishes visiting every link.
		if s.faultsOn {
			if suspects := s.detectLoss(now); len(suspects) > 0 {
				if err := s.recoverFrom(now, suspects); err != nil {
					return 0, err
				}
				progressed = true
				if s.ev != nil {
					s.visitAll()
				}
			}
		}

		// 2. Root reduction engines run at link rate.
		progressed = s.computeRoots(now) || progressed

		// 3. Credit release from receiver progress.
		links = s.links
		if s.ev != nil {
			links = s.drain(&s.ev.conNow)
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
				if burst := max(1, l.degRate); l.degBudget > burst {
					l.degBudget = burst
				}
			}
		}
		links = s.links
		if s.ev != nil {
			links = s.drain(&s.ev.cur)
		}
		stalls := s.stalls
		sent := s.arbitrate(links, now)
		progressed = sent > 0 || progressed

		// 5. Track peak buffering (globally and per link) and publish
		//    occupancy changes to the trace.
		links = s.links
		if s.ev != nil {
			links = s.drain(&s.ev.occ)
		}
		s.noteOccupancy(links, now)
		if s.bufTotal > s.result.PeakBufferFlits {
			s.result.PeakBufferFlits = s.bufTotal
		}
		if s.grouped && s.bufTotal != s.bufLast {
			s.noteBuffered(now)
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

		// 8. Wake policy: the links this cycle's arbitration found a flit
		//    ready on decide what the next one visits (EngineEvent only).
		if s.sched != nil {
			s.adapt(sent + s.stalls - stalls)
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
				nt.out[k] = fl.val
				if s.sampling {
					s.delivered++
				}
				s.pending--
				f.j.remaining--
				s.checkJobDone(f.j, now)
			} else {
				// Combine on arrival: flit k joins its window slot.
				nt.acc[k&(len(nt.acc)-1)] += fl.val
				if k == nt.redMin {
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
			// The root's output row is both the engine output its
			// broadcast sends read and the local delivery.
			v := nt.combine(k)
			nt.out[k] = v
			nt.rootComputed++
			if nt.rootComputed == mt {
				s.result.TreeReduceDone[j.tree] = now
			}
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
// links' flows from their receivers' progress.
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
// under the visit-all policy. It returns the number of links that sent a
// flit.
func (s *sim) arbitrate(links []*link, now int) int {
	ev := s.ev
	sent := 0
	for _, l := range links {
		nf := len(l.flows)
		for i := 0; i < nf; i++ {
			if l.degraded && l.degBudget < 1 {
				break // metered out this cycle
			}
			at := l.rr + i // l.rr < nf, so one wrap suffices
			if at >= nf {
				at -= nf
			}
			f := l.flows[at]
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
			at++
			if at == nf {
				at = 0
			}
			l.rr = at
			l.flits++
			sent++
			break
		}
		if ev != nil && s.sendable(l) {
			ev.nxt.add(l.id)
		}
	}
	return sent
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
	if err := s.checkDrained(); err != nil {
		return nil, err
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
	s.result.LinkStats = make([]LinkStat, len(s.links))
	for i, l := range s.links {
		s.result.LinkStats[i] = l.stat(now)
	}
	return &s.result, nil
}

// checkDrained retires every buffered flit once the run has ended and
// checks the post-run invariants: every stream fully drained, no flit
// stranded in a pipeline or buffer, all credits returned, and every flit
// sent accounted for. A violation indicates a simulator bug, not a
// workload property, so it is an error.
func (s *sim) checkDrained() error {
	s.release(s.links)
	for _, l := range s.links {
		if l.pipeLen() != 0 {
			return fmt.Errorf("netsim: internal: %d flits stranded in a link pipeline", l.pipeLen())
		}
		for _, f := range l.flows {
			if f.sent != f.m || f.arrived != f.m {
				return fmt.Errorf("netsim: internal: flow tree=%d phase=%d %d→%d ended at sent=%d arrived=%d of %d",
					f.tree, f.phase, f.from, f.to, f.sent, f.arrived, f.m)
			}
			if f.consumed != f.m {
				return fmt.Errorf("netsim: internal: flow tree=%d %d→%d left %d flits buffered",
					f.tree, f.from, f.to, f.arrived-f.consumed)
			}
		}
	}

	// Flit conservation: every link transmission ends exactly once, as an
	// accepted arrival or as one of the four drop sites (injection into a
	// failed link, pipeline purge at fault activation, out-of-sequence
	// discard, abort purge at recovery).
	if s.result.FlitsSent != s.result.DeliveredFlits+s.result.DroppedFlits {
		return fmt.Errorf("netsim: internal: flit conservation violated: sent=%d delivered=%d dropped=%d",
			s.result.FlitsSent, s.result.DeliveredFlits, s.result.DroppedFlits)
	}
	return nil
}

// stat summarises the link for Result.LinkStats, with its utilization
// over a run of the given cycles (none when cycles is zero).
func (l *link) stat(cycles int) LinkStat {
	ls := LinkStat{
		From: l.from, To: l.to,
		Flits:           l.flits,
		StallCycles:     l.stallCycles,
		Dropped:         l.dropped,
		PeakBufferFlits: l.peakBuf,
	}
	for i, f := range l.flows {
		if !slices.ContainsFunc(l.flows[:i], func(o *flow) bool { return o.tree == f.tree }) {
			ls.Trees++
		}
	}
	if cycles > 0 {
		ls.Utilization = float64(l.flits) / float64(cycles)
	}
	return ls
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
