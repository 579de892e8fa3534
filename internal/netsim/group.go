package netsim

import (
	"fmt"

	"polarfly/internal/graph"
	"polarfly/internal/parrun"
)

// Independent groups. Trees interact only where their streams meet: on a
// directed link (arbitration, the pipeline) and, through the config, in
// global event order (a trace or a sampler), in fault windows and
// recovery, and in a router's shared reduction engine (EngineRate > 0).
// Without those four couplings, two sets of trees that share no topology
// edge run exactly as they would alone, so Run simulates each such group
// as a sim of its own over the shared runSpec and merges the Results
// (DESIGN.md §7k). The paper's Hamiltonian forest has congestion 1, so
// every path is a group; the single tree and the low-depth forests form
// one group and take Run's one-sim path.

// partition is a forest's split into independent groups, with what a
// grouped run's sims need to place their links in the merged LinkStats.
type partition struct {
	// groups lists each group's forest trees, ascending; groups are
	// ordered by their lowest tree.
	groups [][]int
	// arcStart[v] is the number of directed topology arcs leaving the
	// vertices below v, so arcStart[u] + NeighborIndex(u, v) numbers arc
	// u→v in (from, to) order. arcLink maps that number to the arc's index
	// in the merged Result.LinkStats, -1 when no flow uses it; links
	// counts the arcs that carry flows.
	arcStart []int32
	arcLink  []int32
	links    int
}

// coupled reports whether the config couples every tree of the run: a
// trace or a sampler observes one global event order, a fault plan
// detects and recovers across trees, and a capped engine is shared by
// every tree reducing at a router.
func (c *Config) coupled() bool {
	return c.Trace != nil || c.Sample != nil || c.Faults != nil || c.EngineRate > 0
}

// partition joins every two trees that share a topology edge, directly or
// through other trees, into one group; a coupled config or a one-tree
// forest is one group. A union-find over the trees, with each arc a flow
// uses remembering a tree that uses it, finds the groups in one pass over
// the tree edges.
func (r *runSpec) partition() partition {
	nt := len(r.spec.Forest)
	if nt == 1 || r.cfg.coupled() {
		return partition{groups: [][]int{r.allTrees()}}
	}
	g := r.spec.Topology
	withReduce, withBcast := r.spec.Op != OpBroadcast, r.spec.Op != OpReduce
	p := partition{arcStart: make([]int32, r.n+1)}
	for v := 0; v < r.n; v++ {
		p.arcStart[v+1] = p.arcStart[v] + int32(g.Degree(v))
	}
	p.arcLink = make([]int32, p.arcStart[r.n])
	for i := range p.arcLink {
		p.arcLink[i] = -1
	}
	// root[t] leads to t's group's lowest tree, which is its own root.
	root := make([]int32, nt)
	for t := range root {
		root[t] = int32(t)
	}
	find := func(t int32) int32 {
		for root[t] != t {
			root[t] = root[root[t]]
			t = root[t]
		}
		return t
	}
	for ti, t := range r.spec.Forest {
		for v, par := range t.Parent {
			if par < 0 {
				continue
			}
			up, down := p.arc(g, v, par), p.arc(g, par, v)
			for _, a := range [2]int{up, down} {
				if o := p.arcLink[a]; o >= 0 {
					x, y := find(o), find(int32(ti))
					root[max(x, y)] = min(x, y)
				}
			}
			if withReduce {
				p.arcLink[up] = int32(ti)
			}
			if withBcast {
				p.arcLink[down] = int32(ti)
			}
		}
	}
	group := make([]int, nt) // per group root: its index in p.groups
	for t := 0; t < nt; t++ {
		rt := find(int32(t))
		if int(rt) == t {
			group[t] = len(p.groups)
			p.groups = append(p.groups, nil)
		}
		p.groups[group[rt]] = append(p.groups[group[rt]], t)
	}
	if len(p.groups) == 1 {
		return partition{groups: p.groups}
	}
	for a, o := range p.arcLink {
		if o >= 0 {
			p.arcLink[a] = int32(p.links)
			p.links++
		}
	}
	return p
}

// arc numbers the directed topology arc u→v.
func (p *partition) arc(g *graph.Graph, u, v int) int {
	return int(p.arcStart[u]) + g.NeighborIndex(u, v)
}

// groupResult is one group's share of a grouped run's Result: what the
// merge sums, maximises or adds up.
type groupResult struct {
	cycles, flitsSent, delivered, dropped int
	arena                                 ArenaFootprint
}

// runGroups runs every group of p as a sim of its own on a parrun pool of
// GOMAXPROCS workers, each building its next group's sim over the slabs
// of its last, and merges the groups into the Result one sim of the
// whole forest returns:
//   - Cycles is the latest group's; FlitsSent, DeliveredFlits and
//     DroppedFlits are sums;
//   - Outputs, TreeDone and TreeReduceDone are the shared storage each
//     group wrote its own trees' columns and entries of;
//   - LinkStats are written by each group at their merged (From, To)
//     index, and Utilization divides by the merged Cycles;
//   - PeakBufferFlits is the largest over cycles of the groups' summed
//     buffered-flit totals (peakBuffered);
//   - Arena is the footprint of one sim of the whole forest: the groups'
//     slabs summed, with one rowStart index, flowStart sentinel and
//     output matrix. EventBytes sums the groups' wake-set states.
//
// A group's error fails the run; the lowest-indexed group's error wins.
func (r *runSpec) runGroups(p partition) (*Result, error) {
	stats := make([]LinkStat, p.links)
	workers := parrun.Workers(0)
	sims := make([]*sim, workers)
	parts, err := parrun.MapWorker(workers, len(p.groups), func(w, i int) (groupResult, error) {
		s := r.build(p.groups[i], sims[w])
		sims[w] = s
		return s.runGroup(&p, stats)
	})
	if err != nil {
		return nil, err
	}
	res := &Result{Outputs: r.outputs, TreeDone: r.treeDone, TreeReduceDone: r.treeReduceDone, LinkStats: stats}
	a := &res.Arena
	for _, g := range parts {
		res.Cycles = max(res.Cycles, g.cycles)
		res.FlitsSent += g.flitsSent
		res.DeliveredFlits += g.delivered
		res.DroppedFlits += g.dropped
		a.Links += g.arena.Links
		a.Flows += g.arena.Flows
		a.NodeTreeBytes += g.arena.NodeTreeBytes
		a.FlowBytes += g.arena.FlowBytes
		a.VCBufferBytes += g.arena.VCBufferBytes
		a.LinkBytes += g.arena.LinkBytes
		a.PipelineBytes += g.arena.PipelineBytes
		a.EventBytes += g.arena.EventBytes
	}
	// Every group's sim counts a rowStart index of n+1 entries, a
	// flowStart sentinel and the shared output matrix; one sim counts each
	// once.
	a.LinkBytes -= int64(len(parts)-1) * int64(r.n+2) * 4
	a.OutputBytes = parts[0].arena.OutputBytes
	a.sumTotal()
	if res.Cycles > 0 {
		for i := range stats {
			stats[i].Utilization = float64(stats[i].Flits) / float64(res.Cycles)
		}
	}
	res.PeakBufferFlits = peakBuffered(sims, res.Cycles)
	return res, nil
}

// runGroup runs one group's sim to its end and writes the group's share of
// the merged Result: its links' LinkStats at their merged index in stats,
// Utilization aside, and the rest in the returned groupResult.
func (s *sim) runGroup(p *partition, stats []LinkStat) (groupResult, error) {
	s.grouped = true
	now, err := s.advance()
	if err != nil {
		return groupResult{}, err
	}
	// peakBuffered counts a finished group as holding nothing. So it does:
	// its last arrivals retire in the cycle they land (at a leaf, or
	// into the root engine), and every earlier flit by the cycle after
	// the send that forwarded it.
	if s.bufTotal != 0 {
		return groupResult{}, fmt.Errorf("netsim: internal: group of trees %v ended at cycle %d with %d flits buffered",
			s.trees, now, s.bufTotal)
	}
	if err := s.checkDrained(); err != nil {
		return groupResult{}, err
	}
	g := s.spec.Topology
	for _, l := range s.links {
		stats[p.arcLink[p.arc(g, l.from, l.to)]] = l.stat(0)
	}
	return groupResult{cycles: now, flitsSent: s.result.FlitsSent, delivered: s.result.DeliveredFlits,
		dropped: s.result.DroppedFlits, arena: s.arenaFootprint()}, nil
}

// noteBuffered adds the change of the group's buffered-flit total since
// the last record to cycle now of its worker's difference array. Every
// group starts and ends with nothing buffered (runGroup), so the prefix
// sums of a worker's array are the summed totals of the groups it ran,
// cycle by cycle. The array grows within its length guard, only while the
// worker's group runs longer than any before it.
func (s *sim) noteBuffered(now int) {
	for len(s.bufDiff) <= now {
		s.bufDiff = append(s.bufDiff, 0)
	}
	s.bufDiff[now] += s.bufTotal - s.bufLast
	s.bufLast = s.bufTotal
}

// peakBuffered returns the largest number of flits buffered across all
// groups at the end of any cycle up to cycles, the last cycle of the
// longest group: the running sum of the workers' difference arrays, which
// is what one sim of the whole forest tracks as PeakBufferFlits. Between
// processed cycles nothing changes, so the groups' cycles need not
// coincide.
func peakBuffered(sims []*sim, cycles int) int {
	total := make([]int, cycles+1)
	for _, s := range sims {
		if s == nil {
			continue
		}
		for c, d := range s.bufDiff {
			total[c] += d
		}
	}
	peak, cur := 0, 0
	for _, d := range total {
		cur += d
		peak = max(peak, cur)
	}
	return peak
}
