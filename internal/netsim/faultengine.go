package netsim

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"polarfly/internal/bandwidth"
	"polarfly/internal/faults"
	"polarfly/internal/trees"
)

// ErrAllTreesLost reports that recovery found no surviving tree: every
// tree of the forest crosses a detected-failed link, so the collective
// cannot finish. The single-tree baseline hits this on any link failure —
// the paper's motivation for multi-tree embeddings. A router-down hits it
// on every embedding whose streams still cross the dead node's links:
// spanning trees touch every node.
var ErrAllTreesLost = errors.New("netsim: all trees lost to link faults")

// ErrRecoveryLimit reports that a fault schedule forced more recovery
// rounds than Config.MaxRecoveries allows. Each round aborts at least one
// live tree, so a run has at most as many rounds as its forest has trees,
// and only a cap lowered below that is reached. The run state is
// abandoned, not corrupted: the error classifies the schedule, it does
// not mask a hang.
var ErrRecoveryLimit = errors.New("netsim: recovery round limit exceeded")

// ProgressError is the deadlock diagnostic returned when no flit moves
// for DefaultProgressTimeout consecutive cycles. Beyond the headline
// numbers it names the trees that still owe deliveries.
type ProgressError struct {
	// Cycle is when the simulator gave up.
	Cycle int
	// IdleCycles is the length of the no-progress streak.
	IdleCycles int
	// PendingFlits is the number of deliveries still outstanding.
	PendingFlits int
	// LastProgressCycle is the last cycle any flit moved.
	LastProgressCycle int
	// StalledTrees lists forest trees with undelivered targets, sorted.
	StalledTrees []int
}

func (e *ProgressError) Error() string {
	return fmt.Sprintf("netsim: no progress for %d cycles at cycle %d (%d flits pending; last progress at cycle %d; stalled trees %v)",
		e.IdleCycles, e.Cycle, e.PendingFlits, e.LastProgressCycle, e.StalledTrees)
}

// progressError assembles the diagnostic state for the timeout abort.
func (s *sim) progressError(now, idle int) *ProgressError {
	e := &ProgressError{
		Cycle:             now,
		IdleCycles:        idle,
		PendingFlits:      s.pending,
		LastProgressCycle: now - idle,
	}
	stalled := make(map[int]bool)
	for _, j := range s.jobs {
		if j.dead || j.done {
			continue
		}
		for _, nt := range j.nodes {
			if nt.delivered < nt.target {
				stalled[j.tree] = true
				break
			}
		}
	}
	for ti := range stalled {
		e.StalledTrees = append(e.StalledTrees, ti)
	}
	sort.Ints(e.StalledTrees)
	return e
}

// faultWindowActive reports whether the fault is inside an activation
// window at cycle now. Storms repeat their [At, Until) window every
// Period cycles, Repeat times; every other kind has the single window
// [At, Until) with Until 0 meaning forever.
func faultWindowActive(f faults.Fault, now int) bool {
	if f.Kind == faults.LinkStorm {
		if now < f.At {
			return false
		}
		return (now-f.At)/f.Period < f.Repeat && (now-f.At)%f.Period < f.Until-f.At
	}
	return now >= f.At && (f.Until == 0 || now < f.Until)
}

// lossyLinkActive reports whether any lossy fault covers the undirected
// link (u, v) at cycle now: a link-down/transient/storm targeting it, or
// a router-down on either endpoint. Plan transitions are rare, so the
// full-plan scan stays off the hot path.
func (s *sim) lossyLinkActive(u, v, now int) bool {
	for _, g := range s.cfg.Faults.Faults {
		switch g.Kind {
		case faults.LinkDown, faults.LinkTransient, faults.LinkStorm:
			if g.U == u && g.V == v && faultWindowActive(g, now) {
				return true
			}
		case faults.RouterDown:
			if (g.Node == u || g.Node == v) && faultWindowActive(g, now) {
				return true
			}
		case faults.LinkDegraded, faults.EngineStall:
			// Lossless kinds never fail a link.
		}
	}
	return false
}

// degradedRate returns the tightest active LinkDegraded cap on (u, v),
// with ok false when no degradation window is open.
func (s *sim) degradedRate(u, v, now int) (rate float64, ok bool) {
	for _, g := range s.cfg.Faults.Faults {
		if g.Kind != faults.LinkDegraded || g.U != u || g.V != v || !faultWindowActive(g, now) {
			continue
		}
		if !ok || g.Bandwidth < rate {
			rate = g.Bandwidth
		}
		ok = true
	}
	return rate, ok
}

// degradableLinks returns the directed links a LinkDegraded fault names,
// both directions and each once: the only links whose token buckets can
// ever open, and so the only ones the advance loop refills.
func (s *sim) degradableLinks() []*link {
	var out []*link
	for _, f := range s.cfg.Faults.Faults {
		if f.Kind != faults.LinkDegraded {
			continue
		}
		for _, key := range [2][2]int{{f.U, f.V}, {f.V, f.U}} {
			if l := s.linkAt(key[0], key[1]); l != nil && !slices.Contains(out, l) {
				out = append(out, l)
			}
		}
	}
	return out
}

// engineStalled reports whether node's reduction engine is frozen at
// cycle now: an open engine-stall window, or the node itself is down.
func (s *sim) engineStalled(node, now int) bool {
	for _, g := range s.cfg.Faults.Faults {
		if (g.Kind == faults.EngineStall || g.Kind == faults.RouterDown) &&
			g.Node == node && faultWindowActive(g, now) {
			return true
		}
	}
	return false
}

// setLinkFailed recomputes the undirected link's failed state from every
// fault covering it — not just the transitioning one, so overlapping
// windows (a storm burst inside a link-down, a router-down sharing an
// endpoint) cannot heal a link another fault still holds down. Returns
// the in-flight flits purged when the link newly fails.
func (s *sim) setLinkFailed(u, v, now int) int {
	failed := s.lossyLinkActive(u, v, now)
	dropped := 0
	for _, key := range [2][2]int{{u, v}, {v, u}} {
		if l := s.linkAt(key[0], key[1]); l != nil {
			rising := failed && !l.failed
			l.failed = failed
			if rising {
				dropped += s.purgePipeline(l, now)
			}
		}
	}
	return dropped
}

// applyFaults processes plan-window transitions at the top of each cycle:
// links fail (dropping their in-flight flits) or heal, routers die
// (failing every incident link atomically), degradation windows open or
// close, engine stalls start or stop. On any transition the affected
// link or node state is recomputed from the whole plan, so overlapping
// faults on one target compose correctly.
func (s *sim) applyFaults(now int) {
	for i := range s.cfg.Faults.Faults {
		f := s.cfg.Faults.Faults[i]
		active := faultWindowActive(f, now)
		if active == s.faultActive[i] {
			continue
		}
		s.faultActive[i] = active
		switch f.Kind {
		case faults.LinkDown, faults.LinkTransient, faults.LinkStorm:
			dropped := s.setLinkFailed(f.U, f.V, now)
			if active {
				s.lastFaultCycle = now
				s.emit(TraceEvent{Cycle: now, Kind: TraceFault, Tree: -1, Phase: int(f.Kind),
					From: f.U, To: f.V, Flit: -1, Value: int64(dropped), Job: -1})
			}
		case faults.RouterDown:
			// The correlated domain: every incident link fails in one
			// cycle. One TraceFault per used incident link (ascending
			// neighbor order, canonical u < v) so critpath and obsv can
			// bridge recoveries to a concrete link, plus the engine stop.
			s.stalled[f.Node] = s.engineStalled(f.Node, now)
			if active {
				s.lastFaultCycle = now
			}
			for _, w := range s.spec.Topology.Neighbors(f.Node) {
				a, b := f.Node, w
				if a > b {
					a, b = b, a
				}
				if s.linkAt(a, b) == nil && s.linkAt(b, a) == nil {
					continue // no flow ever crosses this incident link
				}
				dropped := s.setLinkFailed(a, b, now)
				if active {
					s.emit(TraceEvent{Cycle: now, Kind: TraceFault, Tree: -1, Phase: int(f.Kind),
						From: a, To: b, Flit: -1, Value: int64(dropped), Job: -1})
				}
			}
		case faults.LinkDegraded:
			rate, open := s.degradedRate(f.U, f.V, now)
			for _, key := range [2][2]int{{f.U, f.V}, {f.V, f.U}} {
				if l := s.linkAt(key[0], key[1]); l != nil {
					wasDegraded := l.degraded
					l.degraded = open
					if !open {
						l.degRate = 0
						l.degBudget = 0
						continue
					}
					l.degRate = rate
					if !wasDegraded {
						l.degBudget = 0
					} else if burst := maxf(1, rate); l.degBudget > burst {
						// A still-open tighter window keeps its banked
						// budget, clamped to the recomputed burst cap.
						l.degBudget = burst
					}
				}
			}
			if active {
				s.lastFaultCycle = now
				s.emit(TraceEvent{Cycle: now, Kind: TraceFault, Tree: -1, Phase: int(f.Kind),
					From: f.U, To: f.V, Flit: -1, Value: 0, Job: -1})
			}
		case faults.EngineStall:
			s.stalled[f.Node] = s.engineStalled(f.Node, now)
			if active {
				s.lastFaultCycle = now
				s.emit(TraceEvent{Cycle: now, Kind: TraceFault, Tree: -1, Phase: int(f.Kind),
					From: f.Node, To: f.Node, Flit: -1, Value: 0, Job: -1})
			}
		}
	}
}

// purgePipeline destroys every in-flight flit of a link that just failed,
// marking the owning streams broken and emitting a drop per flit. Returns
// the number of flits destroyed.
func (s *sim) purgePipeline(l *link, now int) int {
	if l.pipeLen() == 0 {
		return 0
	}
	// A healthy flow's pipeline entries are exactly flits
	// [arrived, arrived+count) in order; track the per-flow position so
	// each drop names its true flit index. A stream's first entry is its
	// oldest outstanding flit, sent LinkLatency cycles before it was due.
	pos := make(map[*flow]int)
	for _, fl := range l.pipeline[l.pipeHead:] {
		k := fl.f.arrived + pos[fl.f]
		pos[fl.f]++
		s.noteLoss(fl.f, fl.arrive-s.cfg.LinkLatency)
		s.result.DroppedFlits++
		l.dropped++
		s.emit(TraceEvent{Cycle: now, Kind: TraceDrop, Tree: fl.f.tree, Phase: fl.f.phase,
			From: fl.f.from, To: fl.f.to, Flit: k, Value: fl.val, Job: fl.f.j.idx})
	}
	n := l.pipeLen()
	l.pipeline = l.pipeline[:0]
	l.pipeHead = 0
	return n
}

// DetectDeadline is how many cycles a stream's first dropped flit may
// age before detection declares the stream's link failed: LinkLatency,
// the flight time every healthy flit takes exactly, plus a 4·LinkLatency
// margin. Only a dropped flit can go overdue, so the margin guards
// against no false positive; it fixes when each recovery fires.
func DetectDeadline(linkLatency int) int { return linkLatency + 4*linkLatency }

// noteLoss records a stream's first dropped flit, sent at cycle sendCycle,
// and queues the stream for detection. Later drops on an already broken
// stream change nothing: detection times a stream from its first loss,
// and every later flit is discarded anyway.
func (s *sim) noteLoss(f *flow, sendCycle int) {
	if f.lost {
		return
	}
	f.lost = true
	f.lostAt = sendCycle
	s.lossList = append(s.lossList, f)
}

// detectLoss returns the undirected links, canonicalised u < v and
// sorted, of every broken stream whose first dropped flit is older than
// DetectDeadline at cycle now. A healthy flit lands exactly LinkLatency
// cycles after it is sent, so a stream can only go overdue by losing a
// flit, and the loss list holds every stream that has; streams of jobs a
// recovery already aborted leave the list here.
func (s *sim) detectLoss(now int) [][2]int {
	deadline := DetectDeadline(s.cfg.LinkLatency)
	var suspects [][2]int
	kept := s.lossList[:0]
	for _, f := range s.lossList {
		if f.j.dead {
			continue
		}
		kept = append(kept, f)
		if now-f.lostAt <= deadline {
			continue
		}
		key := [2]int{f.from, f.to}
		if key[0] > key[1] {
			key[0], key[1] = key[1], key[0]
		}
		if !slices.Contains(suspects, key) {
			suspects = append(suspects, key)
		}
	}
	s.lossList = kept
	slices.SortFunc(suspects, func(a, b [2]int) int {
		if a[0] != b[0] {
			return a[0] - b[0]
		}
		return a[1] - b[1]
	})
	return suspects
}

// recoverFrom runs one recovery round over the sorted suspect links:
// abort every tree crossing them, purge their flows, and re-issue the
// aborted elements over the surviving trees with a backlog-aware
// waterfill split. Every suspect link carries an overdue stream of a live
// job, whose tree is still alive and crosses the link, so each round
// aborts at least one tree.
func (s *sim) recoverFrom(now int, suspects [][2]int) error {
	if len(s.result.Recoveries) >= s.cfg.MaxRecoveries {
		return fmt.Errorf("%w: round %d at cycle %d (cap %d)",
			ErrRecoveryLimit, len(s.result.Recoveries)+1, now, s.cfg.MaxRecoveries)
	}

	// Abort every tree crossing a suspect link. Trees that already
	// finished their streams over the link before it failed never time
	// out, but they must still be retired: a later re-issue onto them
	// would cross the dead link again.
	var newlyDead []int
	for ti, t := range s.spec.Forest {
		if s.deadTree[ti] || !treeUsesAny(t, suspects) {
			continue
		}
		s.deadTree[ti] = true
		newlyDead = append(newlyDead, ti)
		s.result.DeadTrees = append(s.result.DeadTrees, ti)
		s.result.TreeDone[ti] = -1
		s.result.TreeReduceDone[ti] = -1
	}

	// Abort the dead trees' jobs: record the prefix every node already
	// holds, queue the rest for re-issue, release the pending count. The
	// round's generation is one past the deepest job it aborts, so a
	// fault landing on a prior round's re-issues nests the depth.
	var ranges [][2]int // {global offset, length}
	reissued := 0
	generation := 1
	for _, j := range s.jobs {
		if j.dead || !s.deadTree[j.tree] {
			continue
		}
		j.dead = true
		if j.gen+1 > generation {
			generation = j.gen + 1
		}
		minD := j.m
		for _, nt := range j.nodes {
			if nt.delivered < minD {
				minD = nt.delivered
			}
			s.pending -= nt.target - nt.delivered
		}
		if minD < j.m {
			ranges = append(ranges, [2]int{j.goff + minD, j.m - minD})
			reissued += j.m - minD
		}
	}

	// Purge the dead jobs' flows (releasing their buffered flits from the
	// link occupancy counter) and any of their in-flight flits.
	for _, l := range s.links {
		kept := make([]*flow, 0, len(l.flows))
		for _, f := range l.flows {
			if !f.j.dead {
				kept = append(kept, f)
			} else {
				if s.ev != nil && f.bufLen() > 0 {
					s.ev.occ.add(l.id)
				}
				l.curBuf -= f.bufLen()
				s.bufTotal -= f.bufLen()
			}
		}
		if len(kept) != len(l.flows) {
			l.flows = kept
			l.rr = 0
		}
		if l.pipeLen() == 0 {
			continue
		}
		live := l.pipeline[l.pipeHead:]
		keptP := l.pipeline[:0]
		for _, fl := range live {
			if fl.f.j.dead {
				s.result.DroppedFlits++
				l.dropped++
				s.emit(TraceEvent{Cycle: now, Kind: TraceDrop, Tree: fl.f.tree, Phase: fl.f.phase,
					From: fl.f.from, To: fl.f.to, Flit: -1, Value: fl.val, Job: fl.f.j.idx})
				continue
			}
			keptP = append(keptP, fl)
		}
		l.pipeline = keptP
		l.pipeHead = 0
	}

	// Survivors and the re-issue split.
	var alive []int
	for ti := range s.spec.Forest {
		if !s.deadTree[ti] {
			alive = append(alive, ti)
		}
	}
	if len(alive) == 0 {
		return fmt.Errorf("%w: %d suspect links %v killed all %d trees at cycle %d",
			ErrAllTreesLost, len(suspects), suspects, len(s.spec.Forest), now)
	}
	firstNewJob := len(s.jobs)
	if reissued > 0 {
		forest := make([]*trees.Tree, len(alive))
		for i, ti := range alive {
			forest[i] = s.spec.Forest[ti]
		}
		model := bandwidth.ForForest(forest, 1)
		backlog := make([]int, len(alive))
		for i, ti := range alive {
			for _, j := range s.jobs {
				if j.dead || j.tree != ti {
					continue
				}
				minD := j.m
				for _, nt := range j.nodes {
					if nt.delivered < minD {
						minD = nt.delivered
					}
				}
				backlog[i] += j.m - minD
			}
		}
		split, err := bandwidth.BacklogAwareSplit(reissued, backlog, model.PerTree)
		if err != nil {
			return fmt.Errorf("netsim: internal: re-issue split: %w", err)
		}
		// Walk the aborted ranges, carving each survivor's share into
		// contiguous jobs.
		ri, consumed := 0, 0
		for i, ti := range alive {
			need := split[i]
			added := false
			for need > 0 {
				r := ranges[ri]
				avail := r[1] - consumed
				take := avail
				if take > need {
					take = need
				}
				s.addStream(ti, r[0]+consumed, take).gen = generation
				added = true
				consumed += take
				need -= take
				if consumed == ranges[ri][1] {
					ri++
					consumed = 0
				}
			}
			if added {
				// The tree has new work; its completion cycle moves.
				s.result.TreeDone[ti] = -1
			}
		}
	}

	// Remaining work: elements not yet complete at every node.
	remaining := 0
	for _, j := range s.jobs {
		if j.dead {
			continue
		}
		minD := j.m
		for _, nt := range j.nodes {
			if nt.delivered < minD {
				minD = nt.delivered
			}
		}
		remaining += j.m - minD
	}

	s.result.Recoveries = append(s.result.Recoveries, Recovery{
		Cycle:       now,
		FailedLinks: suspects,
		DeadTrees:   newlyDead,
		Reissued:    reissued,
		Remaining:   remaining,
		Generation:  generation,
	})
	s.reissuedTotal += reissued
	s.lastRecoverCycle = now
	s.emit(TraceEvent{Cycle: now, Kind: TraceRecover, Tree: -1, Phase: -1,
		From: suspects[0][0], To: suspects[0][1], Flit: reissued, Value: int64(remaining),
		Job: firstNewJob})
	return nil
}

// treeUsesAny reports whether the tree's parent links include any of the
// (canonicalised u < v) undirected links.
func treeUsesAny(t *trees.Tree, links [][2]int) bool {
	for v, p := range t.Parent {
		if p < 0 {
			continue
		}
		a, b := v, p
		if a > b {
			a, b = b, a
		}
		for _, l := range links {
			if l[0] == a && l[1] == b {
				return true
			}
		}
	}
	return false
}
