package netsim

// The wake-set policy (Config.Engine == EngineEvent) chooses, cycle by
// cycle, between two orders for the advance loop's phases. On a sparse
// cycle they run over the links and flows that may act this cycle instead
// of over all of them, and cycles in which nothing can change are
// skipped. This rests on one observation about the per-cycle semantics: a
// link that has no deliverable flit, no sendable flow and no retiring
// credit contributes nothing to a cycle — scanning it is pure overhead.
// The state below is, per upcoming cycle, a *superset* of the links that
// can act (spurious wakes are harmless; missed wakes are bugs), drained
// in ascending link-id order so every phase visits links in the
// visit-all order.
//
// On a busy fabric that bookkeeping costs more than it saves, so a cycle
// that follows a dense one visits every link instead, inserting nothing,
// and so does every cycle after it until a sparse one. A cycle's density
// is the share of links its arbitration found a flit ready on: the links
// that sent, plus those that stalled on credit, which the wake sets would
// re-arm every cycle anyway. After the sparse cycle, reseed rebuilds the
// schedule from the simulator state; it also seeds the first cycle, and a
// recovery round on a sparse cycle finishes that cycle visiting every
// link, so the schedule has one builder. DESIGN.md §7h derives why the
// wake rules and reseed cannot miss a congestion or fault edge; the
// differential harness in engine_diff_test.go checks both policies byte
// for byte against the reference loop in reference_test.go.
//
// Fault-plan runs never skip: fault windows open and close on absolute
// cycles, a broken stream's detection deadline expires on an absolute
// cycle, and degraded token buckets refill fractionally every cycle, so
// the policy processes each cycle in turn. Each sparse cycle still
// visits only woken links, and the fault engine adds no per-link work of
// its own: detection walks only the streams that have dropped a flit,
// and the refill only the links a LinkDegraded fault names. A plan that
// never fires therefore costs about what a fault-free run costs
// (BenchmarkEngineScale/q=31/faulted).

// The switch thresholds, as shares of the directed links that sent or
// stalled in one processed cycle: at least 1/denseShare makes the next
// cycle visit every link, fewer than 1/sparseShare on a visit-all cycle
// hands the next one back to the wake sets. Per processed cycle, the two
// orders cost the same at 15–30% of links sending (DESIGN.md §7h); the
// gap between the thresholds keeps a fabric near the crossover from
// switching every cycle.
const (
	denseShare  = 2
	sparseShare = 8
)

// evInf is the "no constraint" sentinel for the incremental minima and
// horizon terms.
const evInf = int(^uint(0) >> 1)

// deBruijn64 multiplies an isolated low bit into a unique 6-bit index —
// the classic branch-free trailing-zero count, local so the hot loop
// calls nothing outside the package.
const deBruijn64 = 0x03f79d71b4ca8b09

var deBruijn64tab = [64]byte{
	0, 1, 56, 2, 57, 49, 28, 3, 61, 58, 42, 50, 38, 29, 17, 4,
	62, 47, 59, 36, 45, 43, 51, 22, 53, 39, 33, 30, 24, 18, 12, 5,
	63, 55, 48, 27, 60, 41, 37, 16, 46, 35, 44, 21, 52, 32, 23, 11,
	54, 26, 40, 15, 34, 20, 31, 10, 25, 14, 19, 9, 13, 8, 7, 6,
}

func ntz64(x uint64) int { return int(deBruijn64tab[(x&-x)*deBruijn64>>58]) }

// linkSet is a three-level bitmap over link ids: a membership word layer
// plus two summary layers, so draining costs O(members + occupied words)
// rather than O(universe), insertions deduplicate for free, and iteration
// is naturally in ascending link-id order — the property that keeps the
// wake-set policy byte-identical to the visit-all link scan. All storage
// is fixed at construction; the hot loop never allocates.
type linkSet struct {
	l0, l1, l2 []uint64
	n          int // members
}

func newLinkSet(nlinks int) linkSet {
	w0 := (nlinks + 63) >> 6
	if w0 == 0 {
		w0 = 1
	}
	w1 := (w0 + 63) >> 6
	w2 := (w1 + 63) >> 6
	return linkSet{l0: make([]uint64, w0), l1: make([]uint64, w1), l2: make([]uint64, w2)}
}

func (b *linkSet) add(id int32) {
	w := int(id) >> 6
	bit := uint64(1) << (uint(id) & 63)
	if b.l0[w]&bit != 0 {
		return
	}
	b.l0[w] |= bit
	b.l1[w>>6] |= 1 << (uint(w) & 63)
	b.l2[w>>12] |= 1 << (uint(w>>6) & 63)
	b.n++
}

// drainTo empties the set into dst in ascending id order, as the links
// the ids index, and returns the member count. dst must have room for
// every member (the callers size it to the link universe).
func (b *linkSet) drainTo(dst, links []*link) int {
	if b.n == 0 {
		return 0
	}
	k := 0
	for w2 := 0; w2 < len(b.l2); w2++ {
		x2 := b.l2[w2]
		if x2 == 0 {
			continue
		}
		b.l2[w2] = 0
		for x2 != 0 {
			i1 := w2<<6 + ntz64(x2)
			x2 &= x2 - 1
			x1 := b.l1[i1]
			b.l1[i1] = 0
			for x1 != 0 {
				i0 := i1<<6 + ntz64(x1)
				x1 &= x1 - 1
				x0 := b.l0[i0]
				b.l0[i0] = 0
				for x0 != 0 {
					dst[k] = links[i0<<6+ntz64(x0)]
					k++
					x0 &= x0 - 1
				}
			}
		}
	}
	b.n = 0
	return k
}

// reset empties the set. It clears every word, O(universe/64), which is
// less than one visit-all cycle's link scan.
func (b *linkSet) reset() {
	if b.n > 0 {
		clear(b.l0)
		clear(b.l1)
		clear(b.l2)
		b.n = 0
	}
}

// evState is the wake-set policy's bookkeeping. Everything here is a
// conservative schedule — membership means "may act", never "will act" —
// so correctness only requires that every state change enqueues the wakes
// its consequences need. Every set is a linkSet over link ids, so all
// storage is fixed at construction: recovery re-issues reuse existing
// links and never grow it.
type evState struct {
	// wheel[due % len(wheel)] holds the links with pipeline arrivals due
	// at cycle `due`; len(wheel) == LinkLatency+1, and a slot is fully
	// drained at its due cycle before any reuse (a flit sent at t lands
	// at t+LinkLatency, which collides mod LinkLatency+1 only with cycles
	// already drained). wheelDue[slot] is the due cycle of the slot's
	// current occupants.
	wheel    []linkSet
	wheelDue []int

	// cur/nxt are the links to arbitrate this processed cycle / the next
	// one; conNow/conNext the links whose flows may release credit this
	// cycle / the next one. turn swaps each pair.
	cur, nxt        linkSet
	conNow, conNext linkSet

	// occ collects links whose buffer occupancy changed this cycle, for
	// the peak/trace occupancy pass.
	occ linkSet

	// scratch receives bitmap drains (one phase at a time, so one buffer
	// serves them all).
	scratch []*link

	// rootNext forces the next cycle to be processed because some root
	// engine still holds computable flits (budget or rate limited).
	rootNext bool

	// switches counts the run's changes of order: to visiting every link
	// (a busy cycle or a recovery round) and back (a reseed).
	switches int
}

func (s *sim) initEvent() {
	nl := len(s.links)
	w := s.cfg.LinkLatency + 1
	ev := &evState{
		wheel:    make([]linkSet, w),
		wheelDue: make([]int, w),
		cur:      newLinkSet(nl),
		nxt:      newLinkSet(nl),
		conNow:   newLinkSet(nl),
		conNext:  newLinkSet(nl),
		occ:      newLinkSet(nl),
		scratch:  make([]*link, nl),
	}
	for i := range ev.wheel {
		ev.wheel[i] = newLinkSet(nl)
	}
	s.sched = ev
	s.reseed()
}

// turn opens a processed cycle: the sets assembled for it become current,
// and the next ones start empty (the current sets were drained by the
// previous processed cycle).
func (ev *evState) turn() {
	ev.cur, ev.nxt = ev.nxt, ev.cur
	ev.conNow, ev.conNext = ev.conNext, ev.conNow
	ev.rootNext = false
}

// due drains the wheel slot of cycle now: the links with pipeline
// arrivals this cycle, ascending.
func (s *sim) due(now int) []*link {
	ev := s.ev
	slot := now % len(ev.wheel)
	if ws := &ev.wheel[slot]; ws.n > 0 && ev.wheelDue[slot] == now {
		return s.drain(ws)
	}
	return nil
}

// drain empties wake set b into the scratch buffer, ascending.
func (s *sim) drain(b *linkSet) []*link {
	return s.ev.scratch[:b.drainTo(s.ev.scratch, s.links)]
}

// wheelAdd schedules link l for the delivery pass of cycle `due`.
func (ev *evState) wheelAdd(due int, id int32) {
	slot := due % len(ev.wheel)
	ev.wheel[slot].add(id)
	ev.wheelDue[slot] = due
}

// nextEventCycle returns the next cycle that must be processed after
// `now`. Fault-plan runs advance one cycle at a time (window edges,
// detection deadlines and token refills are per-cycle phenomena);
// otherwise the horizon is the earliest of: pending next-cycle work
// (arbitration wakes, credit retirements, root-engine budget), the
// earliest scheduled pipeline arrival, the next telemetry boundary, and
// the progress-timeout deadline — the cycle at which the per-cycle
// semantics abort, so the diagnostic fires at the identical cycle.
func (s *sim) nextEventCycle(now, lastProgress int) int {
	if s.faultsOn {
		return now + 1
	}
	ev := s.ev
	if ev.rootNext || ev.nxt.n > 0 || ev.conNext.n > 0 {
		return now + 1
	}
	next := lastProgress + DefaultProgressTimeout + 1
	for i := range ev.wheel {
		if ev.wheel[i].n > 0 && ev.wheelDue[i] < next {
			next = ev.wheelDue[i]
		}
	}
	if s.sampling && s.nextSample < next {
		next = s.nextSample
	}
	if next <= now {
		next = now + 1
	}
	return next
}

// adapt picks the order of the next cycle from the number of links this
// one's arbitration found a flit ready on (sent or stalled): following
// the wake sets, a dense count empties them and the next cycles visit
// every link; visiting every link, a sparse count reseeds the schedule
// for the next one.
func (s *sim) adapt(ready int) {
	nl := len(s.links)
	if s.ev != nil {
		if ready > 0 && ready*denseShare >= nl {
			s.visitAll()
		}
	} else if ready*sparseShare < nl {
		s.reseed()
		s.sched.switches++
	}
}

// visitAll hands the rest of this cycle, and the cycles until adapt
// reseeds, to the visit-all order: the wake sets are emptied, and the
// phases, finding s.ev nil, visit every link and insert nothing.
func (s *sim) visitAll() {
	ev := s.sched
	for i := range ev.wheel {
		ev.wheel[i].reset()
	}
	ev.cur.reset()
	ev.nxt.reset()
	ev.conNow.reset()
	ev.conNext.reset()
	ev.occ.reset()
	ev.switches++
	s.ev = nil
}

// reseed builds the schedule of the cycle after this one from the
// simulator state alone, into empty wake sets, and makes the phases
// follow it. It wakes a superset of the links that can act then, however
// the cycles before were visited: every link with a sendable flow
// arbitrates; every in-flight flit lands on the wheel at its arrival
// cycle; every link with buffered flits releases credit, because only a
// buffered flit can retire; and the root engines are rescanned. It costs
// O(links + in-flight flits).
func (s *sim) reseed() {
	ev := s.sched
	for _, l := range s.links {
		if s.sendable(l) {
			ev.nxt.add(l.id)
		}
		for _, fl := range l.pipeline[l.pipeHead:] {
			ev.wheelAdd(fl.arrive, l.id)
		}
		if l.curBuf > 0 {
			ev.conNext.add(l.id)
		}
	}
	ev.rootNext = s.spec.Op != OpBroadcast
	s.ev = ev
}

// sendable reports whether any stream of l holds data its sender could
// inject, credit aside.
func (s *sim) sendable(l *link) bool {
	for _, f := range l.flows {
		if f.sent < f.m && s.senderReady(f) > f.sent {
			return true
		}
	}
	return false
}
