package netsim

// The wake-set policy (Config.Engine == EngineEvent) runs the advance
// loop's phases over the links and flows that may act this cycle instead
// of over all of them, and skips cycles in which nothing can change. It
// rests on one observation about the per-cycle semantics: a link that
// has no deliverable flit, no sendable flow and no retiring credit
// contributes nothing to a cycle — scanning it is pure overhead. The
// state below is, per upcoming cycle, a *superset* of the links that can
// act (spurious wakes are harmless; missed wakes are bugs), drained in
// ascending link-id order so every phase visits links in the visit-all
// order. DESIGN.md §7h derives why the wake rules cannot miss a
// congestion or fault edge; the differential harness in
// engine_diff_test.go checks both policies byte for byte against the
// reference loop in reference_test.go.
//
// Fault-plan runs never skip: fault windows open and close on absolute
// cycles, a broken stream's detection deadline expires on an absolute
// cycle, and degraded token buckets refill fractionally every cycle, so
// the policy processes each cycle in turn. Each processed cycle still
// visits only woken links, and the fault engine adds no per-link work of
// its own: detection walks only the streams that have dropped a flit,
// and the refill only the links a LinkDegraded fault names. A plan that
// never fires therefore costs about what a fault-free run costs
// (BenchmarkEngineScale/q=31/faulted).

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
	s.ev = ev
	// Seed cycle 1: every flow with data at rest (leaf reduce streams;
	// broadcast roots under OpBroadcast) wakes its link, and the root
	// engines are scanned on the first processed cycle.
	for _, l := range s.links {
		for _, f := range l.flows {
			if f.sent < f.m && s.senderReady(f) > f.sent {
				ev.nxt.add(l.id)
				break
			}
		}
	}
	ev.rootNext = s.spec.Op != OpBroadcast
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
	next := lastProgress + s.cfg.ProgressTimeout + 1
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

// rewake re-arms the schedule after a recovery round: purges and
// re-issues move data between streams wholesale, so every populated link
// goes back into this cycle's arbitration set (re-issued streams
// arbitrate in their creation cycle) and the root engines are rescanned.
// Cold: only reachable on fault-plan runs.
func (s *sim) rewake() {
	for _, l := range s.links {
		if len(l.flows) > 0 {
			s.ev.cur.add(l.id)
		}
	}
	s.ev.rootNext = true
}
