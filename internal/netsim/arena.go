package netsim

import "unsafe"

// ArenaFootprint itemises the simulator's dominant steady-state
// allocations — the arenas sized at construction time that bound a run's
// memory: per-(job, node) tree state, the link-major slabs (link records,
// flows, flow pointer lists, pipeline rings) with their indexes, the
// reduction windows, the shared output matrix, and (under EngineEvent)
// the wake sets. The numbers are computed from slab lengths and
// unsafe.Sizeof, so both Engine policies report identical footprints for
// identical specs apart from EventBytes, and the q=127 smoke can gate on
// a deterministic ceiling instead of process RSS. The visit-all policy
// (EngineCycle) allocates nothing beyond the shared arenas. A run that Run
// splits into independent tree groups reports the footprint one sim of
// the whole forest would have, EventBytes aside (it sums the groups'
// wake-set states); the run itself holds at most one group's slabs per
// worker at a time, next to the shared output matrix.
type ArenaFootprint struct {
	// Links and Flows count directed links and registered flow streams
	// (recovery re-issues included).
	Links int
	Flows int
	// NodeTreeBytes is the per-(job, node) tree state, including the
	// redIn/bcastOut child-pointer slices.
	NodeTreeBytes int64
	// FlowBytes is the flow slab and the flow pointer slab the per-link
	// lists live in, plus what recovery adds: each re-issued job's flow
	// block and every pointer list a purge or re-issue moved off the slab.
	FlowBytes int64
	// VCBufferBytes is the value storage behind the credit-capped receive
	// buffers: the reduction windows (8 bytes per slot, the smallest power
	// of two ≥ VCDepth slots per node with children and job), the slab of
	// the initial jobs plus each re-issued job's block. Broadcast values
	// land in the output matrix (OutputBytes) and take nothing here.
	VCBufferBytes int64
	// LinkBytes is the link slab, the link index and the rowStart and
	// flowStart indexes.
	LinkBytes int64
	// PipelineBytes is the in-flight ring slab (LinkLatency slots per
	// link).
	PipelineBytes int64
	// OutputBytes is the shared n×m result matrix.
	OutputBytes int64
	// EventBytes is the wake-set policy's state: the timing wheel, the
	// arbitration, retirement and occupancy sets, and the drain buffer;
	// zero under EngineCycle.
	EventBytes int64
	// TotalBytes sums every component above.
	TotalBytes int64
}

// bytes is the linkSet's backing storage: three bitmap levels.
func (b *linkSet) bytes() int64 {
	return int64(len(b.l0)+len(b.l1)+len(b.l2)) * 8
}

// footprint sizes the wake-set policy's state.
func (ev *evState) footprint() int64 {
	total := int64(unsafe.Sizeof(evState{}))
	for i := range ev.wheel {
		total += int64(unsafe.Sizeof(linkSet{})) + ev.wheel[i].bytes()
	}
	total += int64(len(ev.wheelDue)) * 8
	total += ev.cur.bytes() + ev.nxt.bytes() + ev.conNow.bytes() + ev.conNext.bytes() + ev.occ.bytes()
	total += int64(len(ev.scratch)) * int64(unsafe.Sizeof(uintptr(0)))
	return total
}

// arenaFootprint tallies the slabs and the blocks recovery added. Cold:
// called once from finalize.
func (s *sim) arenaFootprint() ArenaFootprint {
	var a ArenaFootprint
	ptr := int64(unsafe.Sizeof(uintptr(0)))
	flowSz := int64(unsafe.Sizeof(flow{}))
	ntSz := int64(unsafe.Sizeof(nodeTree{}))

	a.Links = len(s.links)
	a.LinkBytes = int64(len(s.linkSlab))*int64(unsafe.Sizeof(link{})) + int64(len(s.links))*ptr +
		int64(len(s.rowStart)+len(s.flowStart))*4
	a.FlowBytes = int64(len(s.flowSlab))*flowSz + int64(len(s.flowPtrs))*ptr
	a.VCBufferBytes = int64(len(s.accSlab)) * 8
	a.PipelineBytes = int64(len(s.pipeSlab)) * int64(unsafe.Sizeof(inflight{}))
	for _, l := range s.links {
		a.Flows += len(l.flows)
		if cap(l.flows) > 0 && &l.flows[:1][0] != &s.flowPtrs[s.flowStart[l.id]] {
			a.FlowBytes += int64(cap(l.flows)) * ptr
		}
	}
	_, _, jobFlows := s.phases()
	reissues := int64(len(s.jobs) - len(s.trees))
	a.FlowBytes += reissues * int64(jobFlows) * flowSz
	for i, j := range s.jobs {
		a.NodeTreeBytes += int64(len(j.nodes)) * ntSz
		for v := range j.nodes {
			nt := &j.nodes[v]
			a.NodeTreeBytes += int64(cap(nt.redIn)+cap(nt.bcastOut)) * ptr
			if i >= len(s.trees) {
				a.VCBufferBytes += int64(cap(nt.acc)) * 8
			}
		}
	}
	a.OutputBytes = int64(s.n) * int64(s.m) * 8
	if s.sched != nil {
		a.EventBytes = s.sched.footprint()
	}
	a.sumTotal()
	return a
}

// sumTotal sets TotalBytes to the sum of the components.
func (a *ArenaFootprint) sumTotal() {
	a.TotalBytes = a.NodeTreeBytes + a.FlowBytes + a.VCBufferBytes +
		a.LinkBytes + a.PipelineBytes + a.OutputBytes + a.EventBytes
}
