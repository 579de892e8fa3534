package tsdb

import (
	"fmt"
	"sort"
)

// Bounds carries the Algorithm 1 / §7 model figures the analyzer checks
// measured telemetry against. All rates are per-node delivered elements
// per cycle, the unit of bandwidth.Result.Aggregate.
type Bounds struct {
	// Nodes is N = q²+q+1, needed to turn fabric-wide delivery counts
	// into per-node rates.
	Nodes int `json:"nodes"`
	// Aggregate is the Algorithm 1 waterfill prediction ΣB_i.
	Aggregate float64 `json:"aggregate"`
	// Optimal is the Corollary 7.1 ceiling (q+1)·B/2.
	Optimal float64 `json:"optimal"`
	// Floor is the construction's guaranteed bandwidth — Theorem 7.6
	// q·B/2 for the low-depth forest, Theorem 7.19 t·B for Hamiltonian.
	// Zero disables the floor check.
	Floor float64 `json:"floor"`
	// FaultFree enables the finish-time floor check; a faulted run
	// legitimately lands below the fault-free floor.
	FaultFree bool `json:"fault_free"`
}

// AnalyzerConfig tunes the hotspot analyzer.
type AnalyzerConfig struct {
	// TopK is how many hottest links each window reports. Defaults to 3.
	TopK int
	// Tolerance widens model comparisons: ceilings scale by (1+Tolerance),
	// the floor by (1-Tolerance). Defaults to 0.05.
	Tolerance float64
	// Bounds enables the bandwidth-bound checks when Nodes > 0.
	Bounds Bounds
	// Predicted is the Algorithm 1 per-directed-link steady-state load
	// (flits/cycle), keyed by {from, to}; when set, hotspot entries are
	// compared against it. Links absent from the map predict zero load.
	Predicted map[[2]int]float64
}

// Hotspot is one hot link within a window.
type Hotspot struct {
	From int     `json:"from"`
	To   int     `json:"to"`
	Util float64 `json:"util"`
	// Predicted is the Algorithm 1 steady-state load for this link and
	// Exceeds whether measured utilization beats it beyond tolerance —
	// informational: transient post-stall bursts legitimately exceed the
	// steady-state figure within a single window.
	Predicted float64 `json:"predicted"`
	Exceeds   bool    `json:"exceeds,omitempty"`
}

// HotspotWindow is the top-k congested links of one base window.
type HotspotWindow struct {
	Start int       `json:"start"`
	End   int       `json:"end"`
	Top   []Hotspot `json:"top"`
}

// FaultEvent is a fault onset detected purely from telemetry: the
// LastFaultCycle gauge moved between two window boundaries.
type FaultEvent struct {
	// Cycle is the exact activation cycle recovered from the gauge.
	Cycle int `json:"cycle"`
	// ObservedEnd is the boundary at which the gauge move was seen —
	// detection lag is ObservedEnd-Cycle, at most one sampling window.
	ObservedEnd int `json:"observed_end"`
}

// RecoveryEvent is a recovery detected from the LastRecoverCycle gauge.
type RecoveryEvent struct {
	Cycle       int `json:"cycle"`
	ObservedEnd int `json:"observed_end"`
	// Latency is Cycle minus the latest detected fault at or before it —
	// the recovery's cycle minus the fault's on the timeline gate's
	// one-fault runs, which is how its ground truth computes it; -1 if no
	// fault was seen.
	Latency int `json:"latency"`
}

// Violation is a measured value outside its tolerance-adjusted bound.
type Violation struct {
	Start int     `json:"start"`
	End   int     `json:"end"`
	Kind  string  `json:"kind"` // "aggregate-ceiling", "optimal-ceiling", "floor"
	Value float64 `json:"value"`
	Bound float64 `json:"bound"`
}

func (v Violation) String() string {
	return fmt.Sprintf("window (%d,%d]: %s: rate %.4f vs bound %.4f", v.Start, v.End, v.Kind, v.Value, v.Bound)
}

// maxViolations caps the retained violation list; the count keeps going.
const maxViolations = 64

// LinkSummary is one link's whole-run congestion summary.
type LinkSummary struct {
	From int `json:"from"`
	To   int `json:"to"`
	// PeakUtil is the link's hottest single-window utilization.
	PeakUtil float64 `json:"peak_util"`
	// PeakStart/PeakEnd delimit the window where the peak occurred.
	PeakStart int `json:"peak_start"`
	PeakEnd   int `json:"peak_end"`
	// Flagged counts windows where this link made the top-k.
	Flagged int `json:"flagged"`
}

// Analyzer consumes closed base windows from a Sampler and maintains
// fixed-memory congestion and fault analyses: per-window top-k hotspots
// (recent ring), whole-run per-link peaks, telemetry-derived fault
// onset/recovery events, and bandwidth-bound checks against the
// Algorithm 1 prediction and the §7 floors/ceilings.
type Analyzer struct {
	cfg     AnalyzerConfig
	sampler *Sampler

	windows   int // base windows observed
	delivered int // cumulative delivered elements

	// utils is nil until the first window allocates the fixed-size state;
	// the nil check in observe is the one-time init gate. lint:cold
	utils    []float64 // scratch: per-link utilization of the current window
	peakUtil []float64
	peakAt   [][2]int // window (start, end] of each link's peak
	flagged  []int
	pred     []float64 // per-link predicted load, frame order

	recent    []HotspotWindow // ring of the last cfg-Windows hotspot windows
	recentTop []Hotspot       // slot-major backing for the rings' Top slices
	recentSeq int

	lastFaultGauge   int
	lastRecoverGauge int
	faults           []FaultEvent
	recoveries       []RecoveryEvent

	violations     []Violation
	violationCount int
	finishDone     bool
}

// NewAnalyzer attaches an analyzer to the sampler; it observes every base
// window the sampler closes from then on. Attach before the first frame.
func NewAnalyzer(s *Sampler, cfg AnalyzerConfig) *Analyzer {
	if cfg.TopK == 0 {
		cfg.TopK = 3
	}
	if cfg.Tolerance <= 0 {
		cfg.Tolerance = 0.05
	}
	a := &Analyzer{cfg: cfg, sampler: s,
		lastFaultGauge: -1, lastRecoverGauge: -1}
	s.onWindow = a.observe
	return a
}

// observe is the Sampler's base-window hook.
//
//lint:hotpath per-window analysis driven from the sampler's ingest path
func (a *Analyzer) observe(run RunWindow, links []LinkWindow) {
	if a.utils == nil {
		a.init(len(links))
	}
	a.windows++
	a.delivered += run.Delivered
	dur := float64(run.End - run.Start)

	for i := range links {
		u := float64(links[i].Busy) / dur
		a.utils[i] = u
		if u > a.peakUtil[i] {
			a.peakUtil[i] = u
			a.peakAt[i] = [2]int{run.Start, run.End}
		}
	}
	// Each ring slot owns a fixed TopK segment of recentTop; reslicing it
	// keeps the per-window top-k allocation-free after init.
	slot := a.recentSeq % cap(a.recent)
	hw := HotspotWindow{Start: run.Start, End: run.End,
		Top: a.recentTop[slot*a.cfg.TopK : slot*a.cfg.TopK : (slot+1)*a.cfg.TopK]}
	for k := 0; k < a.cfg.TopK; k++ {
		best, bestIdx := 0.0, -1
		for i, u := range a.utils {
			if u > best && !a.inTop(hw.Top, i) {
				best, bestIdx = u, i
			}
		}
		if bestIdx < 0 || best <= 0 {
			break
		}
		key := a.sampler.keys[bestIdx]
		h := Hotspot{From: key[0], To: key[1], Util: best}
		if a.pred != nil {
			h.Predicted = a.pred[bestIdx]
			h.Exceeds = best > h.Predicted*(1+a.cfg.Tolerance)
		}
		//lint:ignore hotalloc the three-index reslice caps Top at TopK and the loop runs at most TopK times
		hw.Top = append(hw.Top, h)
		a.flagged[bestIdx]++
	}
	a.recent = a.recent[:minInt(len(a.recent)+1, cap(a.recent))]
	a.recent[slot] = hw
	a.recentSeq++

	a.observeGauges(run)
	a.checkCeilings(run)
}

func (a *Analyzer) init(nlinks int) {
	a.utils = make([]float64, nlinks)
	a.peakUtil = make([]float64, nlinks)
	a.peakAt = make([][2]int, nlinks)
	a.flagged = make([]int, nlinks)
	a.recent = make([]HotspotWindow, 0, a.sampler.cfg.Windows)
	a.recentTop = make([]Hotspot, a.sampler.cfg.Windows*a.cfg.TopK)
	a.violations = make([]Violation, 0, maxViolations)
	if a.cfg.Predicted != nil {
		a.pred = make([]float64, nlinks)
		for i, key := range a.sampler.keys {
			a.pred[i] = a.cfg.Predicted[key]
		}
	}
}

// inTop reports whether link index i is already among the window's picks.
func (a *Analyzer) inTop(top []Hotspot, i int) bool {
	key := a.sampler.keys[i]
	for _, h := range top {
		if h.From == key[0] && h.To == key[1] {
			return true
		}
	}
	return false
}

// observeGauges turns gauge movement into exact fault/recovery events.
// The gauges carry the precise event cycle, so detection recovers the
// ground-truth timing even though it only looks at window boundaries.
func (a *Analyzer) observeGauges(run RunWindow) {
	if run.LastFaultCycle != a.lastFaultGauge {
		a.lastFaultGauge = run.LastFaultCycle
		//lint:ignore hotalloc fault events are bounded by the fault plan, not the cycle count
		a.faults = append(a.faults, FaultEvent{
			Cycle: run.LastFaultCycle, ObservedEnd: run.End})
	}
	if run.LastRecoverCycle != a.lastRecoverGauge {
		a.lastRecoverGauge = run.LastRecoverCycle
		ev := RecoveryEvent{Cycle: run.LastRecoverCycle,
			ObservedEnd: run.End, Latency: -1}
		// Latest detected fault at or before the recovery.
		for i := len(a.faults) - 1; i >= 0; i-- {
			if a.faults[i].Cycle <= ev.Cycle {
				ev.Latency = ev.Cycle - a.faults[i].Cycle
				break
			}
		}
		//lint:ignore hotalloc recovery events are bounded by the fault plan, not the cycle count
		a.recoveries = append(a.recoveries, ev)
	}
}

// checkCeilings verifies the cumulative per-node delivered rate against
// the Algorithm 1 aggregate and the Corollary 7.1 optimal. Cumulative —
// not per-window — because a post-stall burst can legitimately exceed
// the steady-state rate inside a single window, while the cumulative
// rate is bounded for the whole prefix.
func (a *Analyzer) checkCeilings(run RunWindow) {
	b := a.cfg.Bounds
	if b.Nodes <= 0 || run.End <= 0 {
		return
	}
	rate := float64(a.delivered) / float64(b.Nodes) / float64(run.End)
	tol := 1 + a.cfg.Tolerance
	if b.Aggregate > 0 && rate > b.Aggregate*tol {
		a.violate(Violation{Start: run.Start, End: run.End,
			Kind: "aggregate-ceiling", Value: rate, Bound: b.Aggregate * tol})
	}
	if b.Optimal > 0 && rate > b.Optimal*tol {
		a.violate(Violation{Start: run.Start, End: run.End,
			Kind: "optimal-ceiling", Value: rate, Bound: b.Optimal * tol})
	}
}

func (a *Analyzer) violate(v Violation) {
	a.violationCount++
	if len(a.violations) < maxViolations {
		a.violations = append(a.violations, v)
	}
}

// finishChecks runs the end-of-run floor check: on a fault-free run the
// whole-run per-node rate must reach the construction's guaranteed
// bandwidth (Theorem 7.6 / Theorem 7.19) within tolerance.
func (a *Analyzer) finishChecks() {
	b := a.cfg.Bounds
	if !b.FaultFree || b.Floor <= 0 || b.Nodes <= 0 || !a.sampler.Finished() {
		return
	}
	cycles := a.sampler.Cycles()
	if cycles <= 0 {
		return
	}
	rate := float64(a.delivered) / float64(b.Nodes) / float64(cycles)
	bound := b.Floor * (1 - a.cfg.Tolerance)
	if rate < bound {
		a.violate(Violation{Start: 0, End: cycles,
			Kind: "floor", Value: rate, Bound: bound})
	}
}

// Report summarises the analysis. Call after the run (the floor check
// needs the final frame); safe to call repeatedly. Reports are
// reproducible run artifacts. lint:detsink
type Report struct {
	// Windows is how many base windows were analyzed, Cycles the last
	// sampled cycle.
	Windows int `json:"windows"`
	Cycles  int `json:"cycles"`
	// FinalRate is the whole-run per-node delivered rate (the measured
	// Allreduce bandwidth, comparable to bandwidth.Result.Aggregate).
	FinalRate float64 `json:"final_rate"`
	// TopLinks are the run's hottest links by peak window utilization.
	TopLinks []LinkSummary `json:"top_links"`
	// Hotspots is the retained ring of recent per-window top-k flags,
	// oldest first.
	Hotspots []HotspotWindow `json:"hotspots"`
	// Faults and Recoveries are the telemetry-derived event timelines.
	Faults     []FaultEvent    `json:"faults"`
	Recoveries []RecoveryEvent `json:"recoveries"`
	// Violations are bound breaches (empty on a healthy run);
	// ViolationCount includes any beyond the retention cap.
	Violations     []Violation `json:"violations"`
	ViolationCount int         `json:"violation_count"`
}

// Report builds the analysis summary.
func (a *Analyzer) Report() *Report {
	a.finishedOnce()
	r := &Report{
		Windows:        a.windows,
		Cycles:         a.sampler.Cycles(),
		Faults:         append([]FaultEvent(nil), a.faults...),
		Recoveries:     append([]RecoveryEvent(nil), a.recoveries...),
		Violations:     append([]Violation(nil), a.violations...),
		ViolationCount: a.violationCount,
	}
	if b := a.cfg.Bounds; b.Nodes > 0 && r.Cycles > 0 {
		r.FinalRate = float64(a.delivered) / float64(b.Nodes) / float64(r.Cycles)
	}
	r.TopLinks = a.topLinks()
	r.Hotspots = a.recentHotspots()
	return r
}

// finishedOnce runs the finish checks exactly once after the final frame.
func (a *Analyzer) finishedOnce() {
	if a.sampler.Finished() && !a.finishDone {
		a.finishDone = true
		a.finishChecks()
	}
}

// topLinks ranks links by peak utilization, descending, ties by frame
// order (deterministic).
func (a *Analyzer) topLinks() []LinkSummary {
	n := len(a.peakUtil)
	if n == 0 {
		return nil
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool {
		return a.peakUtil[idx[x]] > a.peakUtil[idx[y]]
	})
	k := minInt(a.cfg.TopK, n)
	out := make([]LinkSummary, 0, k)
	for _, i := range idx[:k] {
		key := a.sampler.keys[i]
		out = append(out, LinkSummary{
			From: key[0], To: key[1],
			PeakUtil:  a.peakUtil[i],
			PeakStart: a.peakAt[i][0], PeakEnd: a.peakAt[i][1],
			Flagged: a.flagged[i],
		})
	}
	return out
}

// recentHotspots returns the retained hotspot windows oldest-first.
func (a *Analyzer) recentHotspots() []HotspotWindow {
	n := len(a.recent)
	if n == 0 {
		return nil
	}
	out := make([]HotspotWindow, 0, n)
	start := a.recentSeq - n
	for i := 0; i < n; i++ {
		hw := a.recent[(start+i)%cap(a.recent)]
		// The ring reuses each slot's Top backing; a report must not alias
		// storage the next window will overwrite.
		hw.Top = append([]Hotspot(nil), hw.Top...)
		out = append(out, hw)
	}
	return out
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
