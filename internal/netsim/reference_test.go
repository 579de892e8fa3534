package netsim

import (
	"fmt"
	"sort"
)

// The reference loop: the per-cycle loop as it stood before both wake
// policies moved onto the one advance loop, kept verbatim apart from
// renames (and its doc comment's hot-path claim), from the Config options
// since removed (trunked links, disabled recovery, a settable progress
// timeout) and from the value storage since moved out of the flows, as
// the oracle both policies are compared against. It scans children for
// readiness instead of reading the incremental minima, releases credit
// for every flow, detects loss by scanning every flow's send log instead
// of walking the loss list, and knows nothing of wake sets, so a missing
// wake rule, a stale census or a missed loss in advance shows up as a byte
// difference against it. It also keeps flit values its own way: each
// virtual channel buffers the values of its arrived, unretired flits
// (referenceVCs), and a send or root compute sums the children's buffered
// flits, where the simulator combines into per-node reduction windows and
// forwards broadcasts from the output rows, so a slot clash or a stale
// window in the simulator shows up as a wrong value. Only tests run it.

// referenceVCs is the reference loop's value storage, next to its send
// log: the values of each flow's flits [consumed, arrived), oldest first.
type referenceVCs map[*flow][]int64

// at returns the buffered value of flit k of flow f.
func (vc referenceVCs) at(f *flow, k int) int64 { return vc[f][k-f.consumed] }

// referenceFlitValue produces the value of flit k on flow f at injection
// time from the senders' buffered flits.
func (s *sim) referenceFlitValue(vc referenceVCs, f *flow, k int) int64 {
	nt := f.snd
	if f.phase == phaseReduce {
		v := nt.seg[k]
		for _, cf := range nt.redIn {
			v += vc.at(cf, k)
		}
		return v
	}
	if nt.bcastIn == nil {
		// The root forwards its engine output, its own result row.
		return s.outputs[f.from][f.j.goff+k]
	}
	return vc.at(nt.bcastIn, k)
}

// referenceReduceReady returns how many reduced flits node nt could emit so far:
// bounded by the slowest child stream (its own input is always available).
func (nt *nodeTree) referenceReduceReady(m int) int {
	ready := m
	for _, cf := range nt.redIn {
		if cf.arrived < ready {
			ready = cf.arrived
		}
	}
	return ready
}

// referenceSenderReady returns how many flits the sender of f has available to
// inject.
func (s *sim) referenceSenderReady(f *flow) int {
	nt := f.snd
	if f.phase == phaseReduce {
		return nt.referenceReduceReady(f.m)
	}
	// Broadcast: the root sources from its reduction engine, everyone else
	// from the stream received from their parent.
	if nt.bcastIn == nil {
		return nt.rootComputed
	}
	return nt.bcastIn.arrived
}

// referenceUpdateConsumed advances every flow's consumed counter (credit release)
// from the receiver's progress, and trims buffers.
func (s *sim) referenceUpdateConsumed(vc referenceVCs) {
	for _, l := range s.links {
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
				for _, of := range nt.bcastOut {
					if of.sent < c {
						c = of.sent
					}
				}
			}
			if c > f.consumed {
				l.curBuf -= c - f.consumed
				vc[f] = vc[f][c-f.consumed:]
				f.consumed = c
			}
		}
	}
}

// referenceRootCompute advances every root reduction engine by at most one flit per
// job per cycle (link rate, §5.1), unless EngineRate caps total output,
// recording the final value and delivering it locally.
func (s *sim) referenceRootCompute(vc referenceVCs, now int) {
	if s.spec.Op == OpBroadcast {
		return // roots already hold their source data
	}
	for _, j := range s.jobs {
		if j.dead || j.done {
			continue
		}
		root := s.spec.Forest[j.tree].Root
		if s.faultsOn && s.stalled[root] {
			continue
		}
		nt := &j.nodes[root]
		mt := j.m
		if nt.rootComputed >= mt {
			continue
		}
		if s.cfg.EngineRate > 0 && s.engineUsed[root] >= s.cfg.EngineRate {
			continue
		}
		k := nt.rootComputed
		ready := true
		for _, cf := range nt.redIn {
			if cf.arrived <= k {
				ready = false
				break
			}
		}
		if !ready {
			continue
		}
		v := nt.seg[k]
		for _, cf := range nt.redIn {
			v += vc.at(cf, k)
		}
		// The root's result row is both the engine output and the local
		// delivery.
		s.outputs[root][j.goff+k] = v
		nt.rootComputed++
		if nt.rootComputed == mt {
			s.result.TreeReduceDone[j.tree] = now
		}
		if s.sampling {
			s.delivered++
		}
		s.engineUsed[root]++
		s.pending--
		j.remaining--
		if s.traced {
			s.emit(TraceEvent{Cycle: now, Kind: TraceRootCompute, Tree: j.tree,
				From: root, To: root, Flit: k, Value: v, Job: j.idx})
		}
		s.checkJobDone(j, now)
	}
}

// referenceDetect is the detection scan advance ran before loss detection
// moved onto the loss list: every virtual channel whose oldest outstanding
// flit in its send log (injection cycles, appended on send and popped on
// accepted arrival) is older than LinkLatency plus a 4·LinkLatency timeout
// marks its undirected link suspect. It returns the suspects sorted.
func (s *sim) referenceDetect(now int, sentAt map[*flow][]int) [][2]int {
	deadline := s.cfg.LinkLatency + 4*s.cfg.LinkLatency
	var suspects [][2]int
	seen := make(map[[2]int]bool)
	for _, l := range s.links {
		for _, f := range l.flows {
			if log := sentAt[f]; len(log) == 0 || now-log[0] <= deadline {
				continue
			}
			u, v := l.from, l.to
			if u > v {
				u, v = v, u
			}
			key := [2]int{u, v}
			if !seen[key] {
				seen[key] = true
				suspects = append(suspects, key)
			}
			break
		}
	}
	sort.Slice(suspects, func(i, j int) bool {
		if suspects[i][0] != suspects[j][0] {
			return suspects[i][0] < suspects[j][0]
		}
		return suspects[i][1] < suspects[j][1]
	})
	return suspects
}

// referenceCycleLoop advances the simulation one cycle at a time until every flit
// is delivered, returning the cycle count.
func (s *sim) referenceCycleLoop() (int, error) {
	now := 0
	idle := 0
	// sentAt is each flow's send log for referenceDetect, kept on
	// fault-plan runs only; vc holds every flow's buffered values.
	sentAt := make(map[*flow][]int)
	vc := make(referenceVCs)
	for s.pending > 0 {
		now++
		progressed := false
		for i := range s.engineUsed {
			s.engineUsed[i] = 0
		}

		// 0. Fault plan transitions: fail/heal links, start/stop
		//    degradation windows and engine stalls.
		if s.faultsOn {
			s.applyFaults(now)
		}

		// 1. Deliver flits whose pipeline delay expires this cycle.
		for _, l := range s.links {
			for l.pipeHead < len(l.pipeline) && l.pipeline[l.pipeHead].arrive <= now {
				fl := l.pipeline[l.pipeHead]
				l.pipeHead++
				f := fl.f
				if f.lost {
					// The stream already dropped an earlier flit: this one
					// is out of sequence and must not land at the wrong
					// prefix index. Discard; recovery re-issues the range.
					s.result.DroppedFlits++
					l.dropped++
					s.emit(TraceEvent{Cycle: now, Kind: TraceDrop, Tree: f.tree, Phase: f.phase,
						From: f.from, To: f.to, Flit: -1, Value: fl.val, Job: f.j.idx})
					continue
				}
				vc[f] = append(vc[f], fl.val)
				l.curBuf++
				s.result.DeliveredFlits++
				k := f.arrived
				f.arrived++
				if log := sentAt[f]; len(log) > 0 {
					sentAt[f] = log[1:]
				}
				if s.traced {
					s.emit(TraceEvent{Cycle: now, Kind: TraceArrive, Tree: f.tree, Phase: f.phase,
						From: f.from, To: f.to, Flit: k, Value: fl.val, Job: f.j.idx})
				}
				if f.phase == phaseBcast {
					// Local delivery on arrival.
					s.outputs[f.to][f.j.goff+k] = fl.val
					if s.sampling {
						s.delivered++
					}
					s.pending--
					f.j.remaining--
					s.checkJobDone(f.j, now)
				}
				progressed = true
			}
			if l.pipeHead == len(l.pipeline) && l.pipeHead > 0 {
				l.pipeline = l.pipeline[:0]
				l.pipeHead = 0
			}
		}

		// 1b. Loss detection and recovery: virtual channels whose oldest
		//     outstanding flit is overdue identify failed links; the trees
		//     crossing them abort and re-issue over the survivors.
		if s.faultsOn {
			if suspects := s.referenceDetect(now, sentAt); len(suspects) > 0 {
				if err := s.recoverFrom(now, suspects); err != nil {
					return 0, err
				}
				progressed = true
			}
		}

		// 2. Root reduction engines run at link rate.
		before := s.pending
		s.referenceRootCompute(vc, now)
		if s.pending != before {
			progressed = true
		}

		// 3. Credit release from receiver progress.
		s.referenceUpdateConsumed(vc)

		// 4. Link arbitration: one flit per directed link per cycle,
		//    round-robin over virtual channels with data and credit.
		for _, l := range s.links {
			if l.degraded {
				// Token bucket: refill at the degraded rate, burst capped
				// so idle cycles cannot bank unbounded credit.
				l.degBudget += l.degRate
				if burst := max(1, l.degRate); l.degBudget > burst {
					l.degBudget = burst
				}
			}
			nf := len(l.flows)
			sentThisCycle := 0
			for i := 0; i < nf; i++ {
				if l.degraded && l.degBudget < 1 {
					break // metered out this cycle
				}
				f := l.flows[(l.rr+i)%nf]
				if f.sent >= f.m {
					continue // stream finished
				}
				if s.referenceSenderReady(f) <= f.sent {
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
				if f.phase == phaseReduce && s.cfg.EngineRate > 0 {
					// A non-leaf sender combines child flits as it
					// transmits — that production consumes engine slots.
					if len(f.snd.redIn) > 0 {
						if s.engineUsed[f.from] >= s.cfg.EngineRate {
							continue
						}
						s.engineUsed[f.from]++
					}
				}
				val := s.referenceFlitValue(vc, f, f.sent)
				f.sent++
				if s.faultsOn {
					sentAt[f] = append(sentAt[f], now)
				}
				s.result.FlitsSent++
				if s.sampling && f.phase == phaseReduce {
					s.reduceFlits++
				}
				if s.traced {
					s.emit(TraceEvent{Cycle: now, Kind: TraceSend, Tree: f.tree, Phase: f.phase,
						From: f.from, To: f.to, Flit: f.sent - 1, Value: val, Job: f.j.idx})
				}
				if l.failed {
					// The physical layer fails silently: the sender spends
					// its cycle, the flit evaporates, the stream is broken.
					f.lost = true
					s.result.DroppedFlits++
					l.dropped++
					s.emit(TraceEvent{Cycle: now, Kind: TraceDrop, Tree: f.tree, Phase: f.phase,
						From: f.from, To: f.to, Flit: f.sent - 1, Value: val, Job: f.j.idx})
				} else {
					l.pipePush(inflight{f: f, val: val, arrive: now + s.cfg.LinkLatency})
				}
				if l.degraded {
					l.degBudget--
				}
				l.rr = (l.rr + i + 1) % nf
				sentThisCycle++
				progressed = true
				break
			}
			l.flits += sentThisCycle
		}

		// Track peak buffering (globally and per link) for the
		// resource-requirement discussion, and publish occupancy changes
		// to the trace. Occupancy is maintained incrementally on push and
		// retire, so this pass reads one counter per link.
		buffered := 0
		for _, l := range s.links {
			lb := l.curBuf
			buffered += lb
			if lb > l.peakBuf {
				l.peakBuf = lb
			}
			if lb != l.lastBuf {
				l.lastBuf = lb
				s.emit(TraceEvent{Cycle: now, Kind: TraceBufferOccupancy,
					Tree: -1, Phase: -1, From: l.from, To: l.to, Flit: -1, Value: int64(lb), Job: -1})
			}
		}
		if buffered > s.result.PeakBufferFlits {
			s.result.PeakBufferFlits = buffered
		}

		// Telemetry sample boundary: hand the cumulative counters to the
		// hook. Cold unless sampling is enabled, and O(links) only at
		// boundary cycles.
		if s.sampling && now >= s.nextSample {
			s.sampleNow(now, false)
			s.nextSample = now + s.cfg.SampleEvery
		}

		if progressed {
			idle = 0
		} else {
			idle++
			if idle > DefaultProgressTimeout {
				return 0, s.progressError(now, idle)
			}
		}
	}
	return now, nil
}

// The reference link construction: the map-and-sort construction newSim used
// before the link-major slabs, kept verbatim apart from renames as the
// oracle the layout pass is compared against (TestLinkLayoutMatchesReference).
// It registers every flow through a construction map, carves each job's
// flows from a block of its own, and freezes the link order with one key
// sort once every job is built. Only tests run it.

// referenceSim is a simulator under reference construction: the
// construction map next to the simulator state it fills.
type referenceSim struct {
	*sim
	linkMap map[[2]int]*link
}

// referenceLinks builds spec's jobs, flows, links and CSR row index the
// reference way. spec and cfg must already be valid.
func referenceLinks(spec Spec, cfg Config) *sim {
	n := spec.Topology.N()
	s := &referenceSim{sim: &sim{runSpec: runSpec{spec: spec, cfg: cfg, n: n}}, linkMap: make(map[[2]int]*link)}
	for i := range spec.Forest {
		s.offsets = append(s.offsets, s.m)
		s.m += spec.Split[i]
	}
	outBack := make([]int64, n*s.m)
	s.outputs = make([][]int64, n)
	for v := 0; v < n; v++ {
		s.outputs[v] = outBack[v*s.m : (v+1)*s.m : (v+1)*s.m]
	}
	for ti := range spec.Forest {
		s.referenceAddStream(ti, s.offsets[ti], spec.Split[ti])
	}

	// Freeze a deterministic link order for the advance loop.
	keys := make([][2]int, 0, len(s.linkMap))
	for k := range s.linkMap {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	s.links = make([]*link, 0, len(keys))
	for _, k := range keys {
		s.links = append(s.links, s.linkMap[k])
	}
	s.linkMap = nil

	// Replace the construction map with the CSR row index the recovery
	// re-issues resolve through, and give every link a pipeline sized for
	// its maximum in-flight load (one injection per cycle, each airborne
	// LinkLatency cycles) so injection never grows the backing array.
	s.rowStart = make([]int32, n+1)
	for _, l := range s.links {
		s.rowStart[l.from+1]++
	}
	for v := 0; v < n; v++ {
		s.rowStart[v+1] += s.rowStart[v]
	}
	for id, l := range s.links {
		l.id = int32(id)
		l.pipeline = make([]inflight, 0, cfg.LinkLatency)
	}
	s.frozen = true
	return s.sim
}

// referenceAddFlow registers a flow with its directed link. After the link set is
// frozen (recovery re-issues), the link must already exist — surviving
// trees only use links their initial flows created — and is resolved
// through the CSR row index (linkAt) instead of the construction map.
func (s *referenceSim) referenceAddFlow(f *flow) *flow {
	var l *link
	if s.frozen {
		l = s.linkAt(f.from, f.to)
		if l == nil {
			panic(fmt.Sprintf("netsim: internal: re-issue on unknown link %d→%d", f.from, f.to))
		}
	} else {
		key := [2]int{f.from, f.to}
		var ok bool
		l, ok = s.linkMap[key]
		if !ok {
			l = &link{from: f.from, to: f.to}
			s.linkMap[key] = l
		}
	}
	l.flows = append(l.flows, f)
	f.ln = l
	return f
}

// referenceAddStream builds one job — the collective for the contiguous global
// range [goff, goff+mt) over forest tree ti — together with its per-node
// state and flows. It is used both for the initial Equation 2 split and
// for recovery re-issues, so flow creation order (ascending vertex,
// reduce before broadcast) is part of the determinism contract.
//
// All per-node state and all flows of the job live in two contiguous
// blocks allocated up front: a tree contributes n−1 edges per active
// phase, so the sizes are exact.
func (s *referenceSim) referenceAddStream(ti, goff, mt int) *job {
	t := s.spec.Forest[ti]
	j := &job{idx: len(s.jobs), tree: ti, goff: goff, m: mt, nodes: make([]nodeTree, s.n)}
	for v := 0; v < s.n; v++ {
		j.nodes[v] = nodeTree{
			parent: t.Parent[v],
			seg:    s.spec.Inputs[v][goff : goff+mt],
		}
	}
	withReduce := s.spec.Op == OpAllreduce || s.spec.Op == OpReduce
	withBcast := s.spec.Op == OpAllreduce || s.spec.Op == OpBroadcast
	phases := 0
	if withReduce {
		phases++
	}
	if withBcast {
		phases++
	}
	nflows := phases * (s.n - 1)
	flowBlock := make([]flow, 0, nflows)
	newFlow := func(fl flow) *flow {
		flowBlock = append(flowBlock, fl)
		return &flowBlock[len(flowBlock)-1]
	}
	for v := 0; v < s.n; v++ {
		nt := &j.nodes[v]
		p := t.Parent[v]
		if p >= 0 {
			pt := &j.nodes[p]
			if withReduce {
				nt.redOut = s.referenceAddFlow(newFlow(flow{j: j, tree: ti, phase: phaseReduce,
					from: v, to: p, m: mt, snd: nt, rcv: pt}))
				pt.redIn = append(pt.redIn, nt.redOut)
			}
			if withBcast {
				nt.bcastIn = s.referenceAddFlow(newFlow(flow{j: j, tree: ti, phase: phaseBcast,
					from: p, to: v, m: mt, snd: pt, rcv: nt}))
				pt.bcastOut = append(pt.bcastOut, nt.bcastIn)
			}
		} else if s.spec.Op == OpBroadcast {
			// The root sources its own input; it is trivially done.
			copy(s.outputs[v][goff:goff+mt], nt.seg)
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
	s.jobs = append(s.jobs, j)
	return j
}
