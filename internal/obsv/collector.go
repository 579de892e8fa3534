package obsv

import (
	"sort"

	"polarfly/internal/faults"
	"polarfly/internal/netsim"
)

// Collector aggregates a netsim trace stream into per-link and per-tree
// telemetry. Attach it to a run with Attach (or set Config.Trace to
// Observe directly); it never mutates simulator state, so a run with a
// collector attached produces bit-identical results to one without.
type Collector struct {
	// LinkLatency extends Chrome-trace spans to the flit's arrival and
	// coalesces them: activity on one stream separated by at most
	// LinkLatency idle cycles renders as one span (the span's flit count
	// still reports the true density). Without the merge, round-robin
	// arbitration under congestion — one flit every other cycle — would
	// emit one sliver per flit. The stall-run histogram is not affected:
	// it always uses strictly consecutive cycles. Set by Attach from the
	// Config, 1 if never set.
	LinkLatency int
	// DisableSpans turns off transmit/stall span accumulation. Spans
	// feed only the Chrome trace exporter, but they are O(bursts) —
	// under multi-tree round-robin interleaving effectively O(flits) —
	// which at §7.3 scale (q=31, m≈2·10⁵) is tens of gigabytes.
	// Metrics-only consumers set this; the Metrics report is
	// byte-identical either way (it reads none of the span state). The
	// stall-run histogram still accumulates.
	DisableSpans bool

	cycles   int // highest cycle observed; override with SetCycles
	setCycle bool

	arena    netsim.ArenaFootprint // simulator memory footprint; see SetArena
	setArena bool

	links map[[2]int]*linkTelemetry
	trees map[int]*treeTelemetry

	bursts        map[streamKey]*burst // open transmit bursts (Chrome spans)
	stallOpen     map[streamKey]*burst // open stall spans
	stallRuns     map[streamKey]*burst // open strictly-consecutive stall runs
	spans         []Span
	runLengths    []int // closed stall-run lengths in cycles
	events        int
	totalFlits    int
	unknownEvents int // events whose Kind matched no switch arm

	// Fault telemetry, in event order (empty on fault-free runs).
	faultMarks   []FaultMark
	recoverMarks []RecoverMark
	dropped      int
}

// FaultMark is one fault activation observed in the trace stream.
type FaultMark struct {
	// Cycle is the activation cycle; Kind the faults.Kind as an int.
	Cycle int `json:"cycle"`
	Kind  int `json:"kind"`
	// U and V are the link endpoints (both the router for engine stalls).
	U int `json:"u"`
	V int `json:"v"`
	// DroppedAtActivation is how many in-flight flits the fault destroyed.
	DroppedAtActivation int `json:"dropped_at_activation"`
}

// RecoverMark is one recovery round observed in the trace stream.
type RecoverMark struct {
	Cycle int `json:"cycle"`
	// U and V identify the first suspect link of the round.
	U int `json:"u"`
	V int `json:"v"`
	// Reissued is the number of elements redistributed to survivors;
	// Remaining the elements still incomplete after the re-issue.
	Reissued  int `json:"reissued"`
	Remaining int `json:"remaining"`
	// LatencyCycles is the detection latency: cycles since the most
	// recent lossy fault activation at or before this recovery,
	// preferring a fault on the round's suspect link (-1 if the stream
	// carried no lossy fault event, which would be a simulator bug).
	LatencyCycles int `json:"latency_cycles"`
}

type streamKey struct{ from, to, tree, phase int }

type burst struct {
	start, last int
	flits       int
}

type linkTelemetry struct {
	from, to    int
	flits       int
	busyCycles  int
	lastBusy    int // marker: last cycle counted busy
	stallCycles int
	lastStall   int
	peakBuffer  int
	dropped     int // flits destroyed by faults on this link
	// flits by (tree, phase) — the heatmap's raw cells.
	byTreePhase map[[2]int]int
}

type treeTelemetry struct {
	reduceFlits, bcastFlits, computeFlits int

	// rootDoneCycle is the cycle of the tree's last root-compute event —
	// the moment the final reduce-phase flit arrived at the tree root.
	// lastBcastCycle is the last broadcast-phase delivery. Together they
	// split the tree's span into a reduce and a broadcast phase.
	rootDoneCycle  int
	lastBcastCycle int
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		LinkLatency: 1,
		links:       make(map[[2]int]*linkTelemetry),
		trees:       make(map[int]*treeTelemetry),
		bursts:      make(map[streamKey]*burst),
		stallOpen:   make(map[streamKey]*burst),
		stallRuns:   make(map[streamKey]*burst),
	}
}

// Attach hooks the collector into a simulation config, chaining any trace
// hook already installed, and adopts the config's link latency for span
// rendering. Call before netsim.Run.
func (c *Collector) Attach(cfg *netsim.Config) {
	if cfg.LinkLatency >= 1 {
		c.LinkLatency = cfg.LinkLatency
	}
	prev := cfg.Trace
	cfg.Trace = func(ev netsim.TraceEvent) {
		c.Observe(ev)
		if prev != nil {
			prev(ev)
		}
	}
}

func (c *Collector) link(from, to int) *linkTelemetry {
	key := [2]int{from, to}
	lt, ok := c.links[key]
	if !ok {
		lt = &linkTelemetry{from: from, to: to, byTreePhase: make(map[[2]int]int)}
		c.links[key] = lt
	}
	return lt
}

func (c *Collector) tree(ti int) *treeTelemetry {
	tt, ok := c.trees[ti]
	if !ok {
		tt = &treeTelemetry{}
		c.trees[ti] = tt
	}
	return tt
}

// Observe consumes one trace event. It is the netsim.Config.Trace
// callback; events must arrive in the simulator's deterministic order.
func (c *Collector) Observe(ev netsim.TraceEvent) {
	c.events++
	if ev.Cycle > c.cycles && !c.setCycle {
		c.cycles = ev.Cycle
	}
	switch ev.Kind {
	case netsim.TraceSend:
		lt := c.link(ev.From, ev.To)
		lt.flits++
		if lt.lastBusy != ev.Cycle {
			lt.lastBusy = ev.Cycle
			lt.busyCycles++
		}
		lt.byTreePhase[[2]int{ev.Tree, ev.Phase}]++
		tt := c.tree(ev.Tree)
		if ev.Phase == 0 {
			tt.reduceFlits++
		} else {
			tt.bcastFlits++
		}
		c.totalFlits++
		if !c.DisableSpans {
			c.extendBurst(c.bursts, streamKey{ev.From, ev.To, ev.Tree, ev.Phase}, ev.Cycle, true)
		}
	case netsim.TraceStall:
		lt := c.link(ev.From, ev.To)
		if lt.lastStall != ev.Cycle {
			lt.lastStall = ev.Cycle
			lt.stallCycles++
		}
		key := streamKey{ev.From, ev.To, ev.Tree, ev.Phase}
		if !c.DisableSpans {
			c.extendBurst(c.stallOpen, key, ev.Cycle, false)
		}
		c.extendRun(key, ev.Cycle)
	case netsim.TraceBufferOccupancy:
		lt := c.link(ev.From, ev.To)
		if int(ev.Value) > lt.peakBuffer {
			lt.peakBuffer = int(ev.Value)
		}
	case netsim.TraceRootCompute:
		tt := c.tree(ev.Tree)
		tt.computeFlits++
		if ev.Cycle > tt.rootDoneCycle {
			tt.rootDoneCycle = ev.Cycle
		}
	case netsim.TraceArrive:
		// Deliveries mirror sends one link latency later; counting both
		// would double every link aggregate, so arrivals are not added to
		// the link counters. Broadcast arrivals do mark the phase split:
		// the last one closes the tree's broadcast phase.
		if ev.Phase == 1 {
			tt := c.tree(ev.Tree)
			if ev.Cycle > tt.lastBcastCycle {
				tt.lastBcastCycle = ev.Cycle
			}
		}
	case netsim.TraceFault:
		c.faultMarks = append(c.faultMarks, FaultMark{
			Cycle: ev.Cycle, Kind: ev.Phase, U: ev.From, V: ev.To,
			DroppedAtActivation: int(ev.Value),
		})
	case netsim.TraceDrop:
		c.dropped++
		lt := c.link(ev.From, ev.To)
		lt.dropped++
	case netsim.TraceRecover:
		mark := RecoverMark{
			Cycle: ev.Cycle, U: ev.From, V: ev.To,
			Reissued: ev.Flit, Remaining: int(ev.Value),
			LatencyCycles: -1,
		}
		// Pair with the latest lossy fault at or before the recovery,
		// preferring one on the round's own suspect link: degraded/stall
		// window openings and other links' storm pulses never trigger
		// timeouts, so pairing with them would misreport the latency.
		for i := len(c.faultMarks) - 1; i >= 0; i-- {
			fm := c.faultMarks[i]
			if fm.Cycle > ev.Cycle || !faults.Kind(fm.Kind).Lossy() {
				continue
			}
			if mark.LatencyCycles < 0 {
				mark.LatencyCycles = ev.Cycle - fm.Cycle
			}
			if (fm.U == ev.From && fm.V == ev.To) || (fm.U == ev.To && fm.V == ev.From) {
				mark.LatencyCycles = ev.Cycle - fm.Cycle
				break
			}
		}
		c.recoverMarks = append(c.recoverMarks, mark)
	default:
		// A kind this collector does not know about — most likely a new
		// netsim event added without a matching arm here. Count it so the
		// omission is visible in the report instead of silently dropped.
		c.unknownEvents++
	}
}

// extendBurst grows the open span burst for key, or closes it into spans
// and opens a new one once the idle gap exceeds LinkLatency.
func (c *Collector) extendBurst(open map[streamKey]*burst, key streamKey, cycle int, xmit bool) {
	gap := max(c.LinkLatency, 1)
	b, ok := open[key]
	if ok && cycle <= b.last+gap {
		b.last = cycle
		b.flits++
		return
	}
	if ok {
		c.closeBurst(key, b, xmit)
	}
	open[key] = &burst{start: cycle, last: cycle, flits: 1}
}

// extendRun tracks strictly-consecutive stall cycles for the histogram.
func (c *Collector) extendRun(key streamKey, cycle int) {
	b, ok := c.stallRuns[key]
	if ok && cycle == b.last+1 {
		b.last = cycle
		return
	}
	if ok {
		c.runLengths = append(c.runLengths, b.last-b.start+1)
	}
	c.stallRuns[key] = &burst{start: cycle, last: cycle, flits: 1}
}

func (c *Collector) closeBurst(key streamKey, b *burst, xmit bool) {
	kind := SpanStall
	if xmit {
		kind = SpanTransmit
	}
	c.spans = append(c.spans, Span{
		From: key.from, To: key.to, Tree: key.tree, Phase: key.phase,
		Start: b.start, End: b.last, Flits: b.flits, Kind: kind,
	})
}

// SetCycles pins the run length used for utilization (e.g. to the
// simulator's Result.Cycles); otherwise the highest event cycle is used.
func (c *Collector) SetCycles(cycles int) {
	c.cycles = cycles
	c.setCycle = true
}

// SetArena records the simulator's construction-time memory footprint
// (Result.Arena) so Metrics can export it; the trace stream itself
// carries no sizing information. Exported only when set, keeping metric
// exports byte-identical for callers that never call it.
func (c *Collector) SetArena(a netsim.ArenaFootprint) {
	c.arena = a
	c.setArena = true
}

// SpanKind distinguishes Chrome-trace span flavours.
type SpanKind int

const (
	// SpanTransmit is a contiguous burst of flit injections on one
	// (directed link, tree, phase) stream.
	SpanTransmit SpanKind = iota
	// SpanStall is a run of consecutive credit-stalled cycles on one
	// stream.
	SpanStall
)

// Span is one contiguous activity interval on a stream, in cycles
// [Start, End] inclusive.
type Span struct {
	From, To    int
	Tree, Phase int
	Start, End  int
	Flits       int
	Kind        SpanKind
}

// flush closes all open bursts so spans and stall runs are complete.
// Observing further events after a flush is not supported.
func (c *Collector) flush() {
	closeAll := func(m map[streamKey]*burst, xmit bool) {
		keys := make([]streamKey, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return lessStream(keys[i], keys[j]) })
		for _, k := range keys {
			c.closeBurst(k, m[k], xmit)
			delete(m, k)
		}
	}
	closeAll(c.bursts, true)
	closeAll(c.stallOpen, false)
	rkeys := make([]streamKey, 0, len(c.stallRuns))
	for k := range c.stallRuns {
		rkeys = append(rkeys, k)
	}
	sort.Slice(rkeys, func(i, j int) bool { return lessStream(rkeys[i], rkeys[j]) })
	for _, k := range rkeys {
		b := c.stallRuns[k]
		c.runLengths = append(c.runLengths, b.last-b.start+1)
		delete(c.stallRuns, k)
	}
	sort.Slice(c.spans, func(i, j int) bool {
		a, b := c.spans[i], c.spans[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		if a.Tree != b.Tree {
			return a.Tree < b.Tree
		}
		if a.Phase != b.Phase {
			return a.Phase < b.Phase
		}
		return a.Kind < b.Kind
	})
}

func lessStream(a, b streamKey) bool {
	if a.from != b.from {
		return a.from < b.from
	}
	if a.to != b.to {
		return a.to < b.to
	}
	if a.tree != b.tree {
		return a.tree < b.tree
	}
	return a.phase < b.phase
}

// LinkReport is the exported per-directed-link aggregate.
type LinkReport struct {
	From            int     `json:"from"`
	To              int     `json:"to"`
	Flits           int     `json:"flits"`
	Utilization     float64 `json:"utilization"`
	BusyCycles      int     `json:"busy_cycles"`
	StallCycles     int     `json:"stall_cycles"`
	PeakBufferFlits int     `json:"peak_buffer_flits"`
	// DroppedFlits counts flits destroyed on this link by faults.
	DroppedFlits int `json:"dropped_flits,omitempty"`
	// Trees lists the distinct trees with traffic on this directed link.
	Trees []int `json:"trees"`
	// ByTreePhase details flit counts per (tree, phase) stream.
	ByTreePhase []StreamFlits `json:"streams"`
}

// StreamFlits is one (tree, phase) cell of the congestion heatmap.
type StreamFlits struct {
	Tree  int `json:"tree"`
	Phase int `json:"phase"`
	Flits int `json:"flits"`
}

// TreeReport is the exported per-tree aggregate. The phase split places
// the boundary at the tree root's last reduce arrival: ReduceCycles is
// the cycle the root computed its final flit, BcastCycles the tail from
// there to the last broadcast delivery. The phases pipeline — early
// flits broadcast while late flits still reduce — so the split
// attributes each tree's span to the phase its slowest flit was in, not
// to exclusive occupancy.
type TreeReport struct {
	Tree         int `json:"tree"`
	ReduceFlits  int `json:"reduce_flits"`
	BcastFlits   int `json:"bcast_flits"`
	ComputeFlits int `json:"compute_flits"`
	// ReduceCycles is the cycle of the last root-compute event (0 when the
	// run had no reduce phase).
	ReduceCycles int `json:"reduce_cycles"`
	// BcastCycles is the span from the root's last compute to the last
	// broadcast delivery (0 when the run had no broadcast phase).
	BcastCycles int `json:"bcast_cycles"`
}

// HeatmapCell aggregates one undirected physical link of the congestion
// heatmap: which trees crossed it (in either direction) and how hot it
// ran. Theorem 7.6 bounds len(Trees) by 2 for the low-depth forest;
// Theorem 7.19's edge-disjoint forest pins it at 1.
type HeatmapCell struct {
	U     int   `json:"u"`
	V     int   `json:"v"`
	Trees []int `json:"trees"`
	Flits int   `json:"flits"`
}

// Report is the full telemetry summary of one run.
type Report struct {
	Cycles     int `json:"cycles"`
	TotalFlits int `json:"total_flits"`
	Events     int `json:"events"`
	// UnknownEvents counts trace events whose Kind the collector did not
	// recognise — nonzero means a netsim event kind was added without a
	// collector arm and its telemetry is missing from this report.
	UnknownEvents int           `json:"unknown_events,omitempty"`
	Links         []LinkReport  `json:"links"`
	Trees         []TreeReport  `json:"trees"`
	Heatmap       []HeatmapCell `json:"heatmap"`
	// MaxEdgeCongestion is the most trees observed crossing one
	// undirected link — the measured Theorem 7.6 quantity.
	MaxEdgeCongestion int `json:"max_edge_congestion"`
	// SharedDirectedLinks counts directed links that carried flits of two
	// or more trees in the same direction (any phase). Zero for the
	// edge-disjoint Hamiltonian forest (Thm. 7.19).
	SharedDirectedLinks int `json:"shared_directed_links"`
	// SharedSamePhaseLinks counts (directed link, phase) streams shared
	// by two or more trees. Zero whenever Lemma 7.8 holds.
	SharedSamePhaseLinks int `json:"shared_same_phase_links"`
	// MaxLinkUtilization is the hottest directed link's utilization.
	MaxLinkUtilization float64 `json:"max_link_utilization"`
	// ReducePhaseCycles is the run-level reduce/broadcast boundary: the
	// latest root-compute cycle across all trees. BcastPhaseCycles is the
	// remainder of the run. Model error can be attributed to a phase by
	// comparing these against the model's symmetric m/ΣB_i halves.
	ReducePhaseCycles int `json:"reduce_phase_cycles"`
	BcastPhaseCycles  int `json:"bcast_phase_cycles"`
	// StallRuns is a histogram of consecutive-stall run lengths (cycles).
	StallRuns HistogramSnapshot `json:"stall_runs"`
	// Fault telemetry (zero/empty on fault-free runs): every fault
	// activation and recovery round in event order, and the total flits
	// destroyed.
	Faults       []FaultMark   `json:"faults,omitempty"`
	Recoveries   []RecoverMark `json:"recoveries,omitempty"`
	DroppedFlits int           `json:"dropped_flits,omitempty"`
	// PostRecoveryBW is the measured aggregate bandwidth after the last
	// recovery (elements still incomplete at the recovery, divided by the
	// cycles the run took from there) — the degraded-bandwidth gauge the
	// core.Degrade prediction is checked against. Zero without recovery.
	PostRecoveryBW float64 `json:"post_recovery_bw,omitempty"`
}

// Report finalises the collector (closing open bursts) and returns the
// aggregated telemetry. Deterministic: all slices are sorted.
func (c *Collector) Report() *Report {
	c.flush()
	r := &Report{
		Cycles:        c.cycles,
		TotalFlits:    c.totalFlits,
		Events:        c.events,
		UnknownEvents: c.unknownEvents,
	}

	keys := make([][2]int, 0, len(c.links))
	for k := range c.links {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})

	undirected := make(map[[2]int]*HeatmapCell)
	for _, k := range keys {
		lt := c.links[k]
		lr := LinkReport{
			From: lt.from, To: lt.to,
			Flits:           lt.flits,
			BusyCycles:      lt.busyCycles,
			StallCycles:     lt.stallCycles,
			PeakBufferFlits: lt.peakBuffer,
			DroppedFlits:    lt.dropped,
		}
		if c.cycles > 0 {
			lr.Utilization = float64(lt.busyCycles) / float64(c.cycles)
		}
		if lr.Utilization > r.MaxLinkUtilization {
			r.MaxLinkUtilization = lr.Utilization
		}
		treeSet := make(map[int]bool)
		phaseTrees := make(map[int]map[int]bool)
		for tp, flits := range lt.byTreePhase {
			treeSet[tp[0]] = true
			if phaseTrees[tp[1]] == nil {
				phaseTrees[tp[1]] = make(map[int]bool)
			}
			phaseTrees[tp[1]][tp[0]] = true
			lr.ByTreePhase = append(lr.ByTreePhase, StreamFlits{Tree: tp[0], Phase: tp[1], Flits: flits})
		}
		sort.Slice(lr.ByTreePhase, func(i, j int) bool {
			a, b := lr.ByTreePhase[i], lr.ByTreePhase[j]
			if a.Tree != b.Tree {
				return a.Tree < b.Tree
			}
			return a.Phase < b.Phase
		})
		for t := range treeSet {
			lr.Trees = append(lr.Trees, t)
		}
		sort.Ints(lr.Trees)
		if len(lr.Trees) >= 2 {
			r.SharedDirectedLinks++
		}
		for _, trees := range phaseTrees {
			if len(trees) >= 2 {
				r.SharedSamePhaseLinks++
			}
		}
		r.Links = append(r.Links, lr)

		uk := [2]int{lt.from, lt.to}
		if uk[0] > uk[1] {
			uk[0], uk[1] = uk[1], uk[0]
		}
		cell, ok := undirected[uk]
		if !ok {
			cell = &HeatmapCell{U: uk[0], V: uk[1]}
			undirected[uk] = cell
		}
		cell.Flits += lt.flits
		for t := range treeSet {
			found := false
			for _, have := range cell.Trees {
				if have == t {
					found = true
					break
				}
			}
			if !found {
				cell.Trees = append(cell.Trees, t)
			}
		}
	}

	ukeys := make([][2]int, 0, len(undirected))
	for k := range undirected {
		ukeys = append(ukeys, k)
	}
	sort.Slice(ukeys, func(i, j int) bool {
		if ukeys[i][0] != ukeys[j][0] {
			return ukeys[i][0] < ukeys[j][0]
		}
		return ukeys[i][1] < ukeys[j][1]
	})
	for _, k := range ukeys {
		cell := undirected[k]
		sort.Ints(cell.Trees)
		if len(cell.Trees) > r.MaxEdgeCongestion {
			r.MaxEdgeCongestion = len(cell.Trees)
		}
		r.Heatmap = append(r.Heatmap, *cell)
	}

	tkeys := make([]int, 0, len(c.trees))
	for t := range c.trees {
		tkeys = append(tkeys, t)
	}
	sort.Ints(tkeys)
	for _, t := range tkeys {
		tt := c.trees[t]
		tr := TreeReport{
			Tree: t, ReduceFlits: tt.reduceFlits, BcastFlits: tt.bcastFlits, ComputeFlits: tt.computeFlits,
			ReduceCycles: tt.rootDoneCycle,
		}
		if tt.lastBcastCycle > tt.rootDoneCycle {
			tr.BcastCycles = tt.lastBcastCycle - tt.rootDoneCycle
		}
		if tr.ReduceCycles > r.ReducePhaseCycles {
			r.ReducePhaseCycles = tr.ReduceCycles
		}
		r.Trees = append(r.Trees, tr)
	}
	if r.Cycles > r.ReducePhaseCycles {
		r.BcastPhaseCycles = r.Cycles - r.ReducePhaseCycles
	}

	bounds := DefaultStallBuckets()
	hist := &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
	for _, run := range c.runLengths {
		hist.Observe(float64(run))
	}
	r.StallRuns = hist.snapshot()

	r.Faults = append(r.Faults, c.faultMarks...)
	r.Recoveries = append(r.Recoveries, c.recoverMarks...)
	r.DroppedFlits = c.dropped
	if n := len(c.recoverMarks); n > 0 {
		last := c.recoverMarks[n-1]
		if r.Cycles > last.Cycle {
			r.PostRecoveryBW = float64(last.Remaining) / float64(r.Cycles-last.Cycle)
		}
	}
	return r
}

// Metrics populates a fresh Registry from the collector's aggregates, so
// the telemetry can be exported through the standard snapshot formats.
// Link-scoped metric names embed the directed link as "u->v". The report
// it derives from is also returned.
func (c *Collector) Metrics(reg *Registry) *Report {
	rep := c.Report()
	reg.Counter("sim.cycles").Add(int64(rep.Cycles))
	reg.Counter("sim.flits_total").Add(int64(rep.TotalFlits))
	reg.Counter("sim.trace_events").Add(int64(rep.Events))
	if rep.UnknownEvents > 0 {
		// Registered only when nonzero so clean runs keep byte-identical
		// metric exports.
		reg.Counter("obsv_unknown_events").Add(int64(rep.UnknownEvents))
	}
	reg.Gauge("sim.max_link_utilization").Set(rep.MaxLinkUtilization)
	reg.Gauge("sim.max_edge_congestion").Set(float64(rep.MaxEdgeCongestion))
	reg.Gauge("sim.shared_directed_links").Set(float64(rep.SharedDirectedLinks))
	reg.Gauge("sim.reduce_phase_cycles").Set(float64(rep.ReducePhaseCycles))
	reg.Gauge("sim.bcast_phase_cycles").Set(float64(rep.BcastPhaseCycles))
	if c.setArena {
		reg.Gauge("sim.arena_bytes").Set(float64(c.arena.TotalBytes))
		reg.Gauge("sim.arena.node_tree_bytes").Set(float64(c.arena.NodeTreeBytes))
		reg.Gauge("sim.arena.flow_bytes").Set(float64(c.arena.FlowBytes))
		reg.Gauge("sim.arena.vc_buffer_bytes").Set(float64(c.arena.VCBufferBytes))
		reg.Gauge("sim.arena.link_bytes").Set(float64(c.arena.LinkBytes + c.arena.PipelineBytes))
		reg.Gauge("sim.arena.output_bytes").Set(float64(c.arena.OutputBytes))
		reg.Gauge("sim.arena.event_bytes").Set(float64(c.arena.EventBytes))
	}
	if len(rep.Faults) > 0 || rep.DroppedFlits > 0 {
		reg.Counter("sim.faults").Add(int64(len(rep.Faults)))
		reg.Counter("sim.recoveries").Add(int64(len(rep.Recoveries)))
		reg.Counter("sim.dropped_flits").Add(int64(rep.DroppedFlits))
		reg.Gauge("sim.post_recovery_bw").Set(rep.PostRecoveryBW)
		if n := len(rep.Recoveries); n > 0 {
			reg.Gauge("sim.recovery_latency_cycles").Set(float64(rep.Recoveries[n-1].LatencyCycles))
		}
	}
	for _, lr := range rep.Links {
		name := "link." + linkName(lr.From, lr.To)
		reg.Counter(name + ".flits").Add(int64(lr.Flits))
		reg.Counter(name + ".stall_cycles").Add(int64(lr.StallCycles))
		reg.Gauge(name + ".utilization").Set(lr.Utilization)
	}
	h := reg.Histogram("sim.stall_run_cycles", DefaultStallBuckets())
	for _, run := range c.runLengths {
		h.Observe(float64(run))
	}
	return rep
}
