package netsim

// The reference loop: the per-cycle loop as it stood before both wake
// policies moved onto the one advance loop, kept verbatim apart from
// renames (and its doc comment's hot-path claim) as the oracle both
// policies are compared against. It scans children for readiness
// instead of reading the incremental minima, releases credit for every
// flow, and knows nothing of wake sets, so a missing wake rule or a stale
// census in advance shows up as a byte difference against it. Only tests
// run it.

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
func (s *sim) referenceUpdateConsumed() {
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
				f.consumed = c
				f.dropTo(c)
			}
		}
	}
}

// referenceRootCompute advances every root reduction engine by at most one flit per
// job per cycle (link rate), recording the final value and delivering it
// locally.
func (s *sim) referenceRootCompute(now int) {
	if s.spec.Op == OpBroadcast {
		return // roots already hold their source data
	}
	// The reduction engine runs at link rate: up to LinkBandwidth flits
	// per job per cycle (§5.1), unless EngineRate caps total output.
	perJob := s.cfg.LinkBandwidth
	if perJob == 0 {
		perJob = 1
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
		for slot := 0; slot < perJob; slot++ {
			if nt.rootComputed >= mt {
				break
			}
			if s.cfg.EngineRate > 0 && s.engineUsed[root] >= s.cfg.EngineRate {
				break
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
				break
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
}

// referenceCycleLoop advances the simulation one cycle at a time until every flit
// is delivered, returning the cycle count.
func (s *sim) referenceCycleLoop() (int, error) {
	now := 0
	idle := 0
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
				f.push(fl.val)
				l.curBuf++
				s.result.DeliveredFlits++
				k := f.arrived
				f.arrived++
				if s.faultsOn && f.sentAtLen() > 0 {
					f.popSentAt()
				}
				if s.traced {
					s.emit(TraceEvent{Cycle: now, Kind: TraceArrive, Tree: f.tree, Phase: f.phase,
						From: f.from, To: f.to, Flit: k, Value: fl.val, Job: f.j.idx})
				}
				if f.phase == phaseBcast {
					// Local delivery on arrival.
					nt := f.rcv
					s.outputs[f.to][f.j.goff+k] = fl.val
					nt.delivered++
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
		if s.faultsOn && !s.cfg.DisableRecovery {
			recovered, err := s.detectAndRecover(now)
			if err != nil {
				return 0, err
			}
			if recovered {
				progressed = true
			}
		}

		// 2. Root reduction engines run at link rate.
		before := s.pending
		s.referenceRootCompute(now)
		if s.pending != before {
			progressed = true
		}

		// 3. Credit release from receiver progress.
		s.referenceUpdateConsumed()

		// 4. Link arbitration: LinkBandwidth flits per directed link per
		//    cycle (default 1), round-robin over virtual channels with
		//    data and credit.
		linkBW := s.cfg.LinkBandwidth
		if linkBW == 0 {
			linkBW = 1
		}
		for _, l := range s.links {
			if l.degraded {
				// Token bucket: refill at the degraded rate, burst capped
				// so idle cycles cannot bank unbounded credit.
				l.degBudget += l.degRate
				if burst := maxf(1, l.degRate); l.degBudget > burst {
					l.degBudget = burst
				}
			}
			nf := len(l.flows)
			sentThisCycle := 0
			for i := 0; i < nf && sentThisCycle < linkBW; i++ {
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
				val := s.flitValue(f, f.sent)
				f.sent++
				if s.faultsOn {
					f.pushSentAt(now, s.cfg.VCDepth)
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
				// Restart the round-robin scan so fairness is preserved
				// across the remaining budget.
				i = -1
				nf = len(l.flows)
			}
			l.flits += sentThisCycle
			if sentThisCycle > 0 {
				l.busyCycles++
			}
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
			if idle > s.cfg.ProgressTimeout {
				return 0, s.progressError(now, idle)
			}
		}
	}
	return now, nil
}
