// Package tsdb is the repository's bounded-memory streaming telemetry
// engine: a fixed-size, multi-resolution time-series store fed by the
// netsim sampling hook (Config.Sample), plus a hotspot analyzer that
// compares each window against the Algorithm 1 waterfill prediction and
// the Theorem 7.6 / Theorem 7.19 bandwidth bounds and detects fault
// onset and recovery latency purely from telemetry.
//
// The Sampler differences successive cumulative SampleFrames into exact
// run-level windows and stores them in RRD-style ring buffers: level 0
// holds the most recent Windows base windows (SampleEvery cycles each),
// level 1 the most recent Windows windows of Factor base windows, and so
// on. Per link it keeps only the previous cumulative flit count and the
// closing base window's flit delta, which it hands to the analyzer as
// the window closes; no per-link window is stored. Memory is fixed at
// construction — a few words per link plus Levels × Windows run-level
// rows — and independent of how many cycles the simulation runs, which
// is what makes telemetry viable at q=127 (about 2M directed links).
//
// Because windows are exact counter deltas, the window sums over a fully
// retained level reconcile exactly against the end-of-run Result
// counters, and the per-link deltas of the base windows against
// Result.LinkStats — the conservation property the tests pin.
package tsdb

import (
	"fmt"
	"unsafe"

	"polarfly/internal/netsim"
)

// Config sizes the sampler's fixed-memory rings.
type Config struct {
	// SampleEvery is the base window length in cycles; it must match the
	// netsim.Config.SampleEvery of the run feeding the sampler.
	SampleEvery int `json:"sample_every"`
	// Windows is the ring capacity per resolution level: how many of the
	// most recent windows each level retains. Defaults to 64.
	Windows int `json:"windows"`
	// Levels is the number of resolution levels. Defaults to 3
	// (base, Factor×, Factor²× — the RRD-style 1×/8×/64× hierarchy).
	Levels int `json:"levels"`
	// Factor is the downsampling ratio between adjacent levels.
	// Defaults to 8.
	Factor int `json:"factor"`
}

// withDefaults validates the config and fills documented defaults.
func (c Config) withDefaults() (Config, error) {
	if c.SampleEvery < 1 {
		return c, fmt.Errorf("tsdb: SampleEvery must be ≥ 1, got %d", c.SampleEvery)
	}
	if c.Windows == 0 {
		c.Windows = 64
	}
	if c.Windows < 1 {
		return c, fmt.Errorf("tsdb: Windows must be ≥ 1, got %d", c.Windows)
	}
	if c.Levels == 0 {
		c.Levels = 3
	}
	if c.Levels < 1 {
		return c, fmt.Errorf("tsdb: Levels must be ≥ 1, got %d", c.Levels)
	}
	if c.Factor == 0 {
		c.Factor = 8
	}
	if c.Factor < 2 {
		return c, fmt.Errorf("tsdb: Factor must be ≥ 2, got %d", c.Factor)
	}
	return c, nil
}

// RunWindow is one closed window of the run-level series: fabric-wide
// counter deltas plus end-of-window gauges.
type RunWindow struct {
	// Start and End delimit the window: it covers cycles (Start, End].
	Start int `json:"start"`
	End   int `json:"end"`
	// Partial marks a window shorter than its level's nominal duration —
	// the flushed tail at the end of a run.
	Partial bool `json:"partial,omitempty"`
	// Flits, ReduceFlits, and BcastFlits are injection deltas.
	Flits       int `json:"flits"`
	ReduceFlits int `json:"reduce_flits"`
	BcastFlits  int `json:"bcast_flits"`
	// Delivered, Dropped, Reissued, and Recoveries are deltas of the
	// corresponding run counters.
	Delivered  int `json:"delivered"`
	Dropped    int `json:"dropped,omitempty"`
	Reissued   int `json:"reissued,omitempty"`
	Recoveries int `json:"recoveries,omitempty"`
	// BufferedFlits is the total buffered flits at window close.
	BufferedFlits int `json:"buffered_flits"`
	// MaxLinkUtil is the window's hottest link utilization (injected
	// flits over window duration) and MaxLinkFrom/To that link;
	// ties resolve to the first link in (From, To) order.
	MaxLinkUtil float64 `json:"max_link_util"`
	MaxLinkFrom int     `json:"max_link_from"`
	MaxLinkTo   int     `json:"max_link_to"`
	// LastFaultCycle and LastRecoverCycle are the end-of-window gauges
	// from netsim.RunCounters (-1 before the first event).
	LastFaultCycle   int `json:"last_fault_cycle"`
	LastRecoverCycle int `json:"last_recover_cycle"`
}

// level is one resolution ring plus the accumulator collecting child
// windows for the next coarser level.
type level struct {
	dur int         // nominal window duration in cycles
	seq int         // windows closed at this level so far
	run []RunWindow // ring, capacity Windows

	// Accumulation toward this level from the finer one (unused at
	// level 0, whose windows close directly from frames).
	openCount   int
	openPartial bool
	openRun     RunWindow
}

// Sampler is the fixed-memory multi-resolution store. Feed it by setting
// netsim.Config.Sample = sampler.Sample (with matching SampleEvery); all
// storage is allocated on the first frame and reused for the rest of the
// run.
type Sampler struct {
	cfg  Config
	keys [][2]int // directed link identities, in frame order

	// prevFlits is nil until the first frame allocates all storage; the
	// nil check in Sample is the one-time init gate. lint:cold
	prevFlits []int // cumulative per-link flits at the previous boundary
	prevRun   netsim.RunCounters
	prevCycle int

	levels   []level
	delta    []uint32 // the closing base window's per-link flit deltas
	finished bool

	// onWindow observes every closed base window with its per-link flit
	// deltas (set by NewAnalyzer); the deltas are overwritten by the next
	// window.
	onWindow func(run RunWindow, flits []uint32)
}

// New constructs a sampler; storage is allocated lazily on the first
// frame, when the link count is known.
func New(cfg Config) (*Sampler, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Sampler{cfg: c}, nil
}

// Sample is the netsim.Config.Sample hook: it differences the cumulative
// frame against the previous boundary into one base window and cascades
// full groups of Factor windows into the coarser levels. Frames after
// the final one are ignored.
//
//lint:hotpath telemetry ingest runs once per sampling window inside the simulation
func (s *Sampler) Sample(fr *netsim.SampleFrame) {
	if s.finished {
		return
	}
	if s.prevFlits == nil {
		s.init(fr)
	}
	if dur := fr.Cycle - s.prevCycle; dur > 0 {
		s.closeBase(fr, dur)
	}
	if fr.Final {
		s.finished = true
		s.flush()
	}
}

// init allocates all storage for the run's link set.
func (s *Sampler) init(fr *netsim.SampleFrame) {
	n := len(fr.Links)
	s.keys = make([][2]int, n)
	for i, lc := range fr.Links {
		s.keys[i] = [2]int{lc.From, lc.To}
	}
	s.prevFlits = make([]int, n)
	s.prevRun = netsim.RunCounters{LastFaultCycle: -1, LastRecoverCycle: -1}
	s.delta = make([]uint32, n)
	s.levels = make([]level, s.cfg.Levels)
	dur := s.cfg.SampleEvery
	for l := range s.levels {
		lv := &s.levels[l]
		lv.dur = dur
		lv.run = make([]RunWindow, s.cfg.Windows)
		dur *= s.cfg.Factor
	}
}

// closeBase turns the frame into one base window, hands it to the
// analyzer hook and pushes it.
func (s *Sampler) closeBase(fr *netsim.SampleFrame, dur int) {
	bestFlits, bestIdx := uint32(0), -1
	for i := range fr.Links {
		flits := fr.Links[i].Flits
		d := uint32(flits - s.prevFlits[i])
		s.prevFlits[i] = flits
		s.delta[i] = d
		if d > bestFlits {
			bestFlits, bestIdx = d, i
		}
	}
	run := RunWindow{
		Start:            s.prevCycle,
		End:              fr.Cycle,
		Partial:          fr.Final && dur < s.cfg.SampleEvery,
		Flits:            fr.Run.FlitsSent - s.prevRun.FlitsSent,
		ReduceFlits:      fr.Run.ReduceFlits - s.prevRun.ReduceFlits,
		BcastFlits:       fr.Run.BcastFlits - s.prevRun.BcastFlits,
		Delivered:        fr.Run.Delivered - s.prevRun.Delivered,
		Dropped:          fr.Run.Dropped - s.prevRun.Dropped,
		Reissued:         fr.Run.Reissued - s.prevRun.Reissued,
		Recoveries:       fr.Run.Recoveries - s.prevRun.Recoveries,
		BufferedFlits:    fr.Run.BufferedFlits,
		MaxLinkFrom:      -1,
		MaxLinkTo:        -1,
		LastFaultCycle:   fr.Run.LastFaultCycle,
		LastRecoverCycle: fr.Run.LastRecoverCycle,
	}
	if bestIdx >= 0 {
		run.MaxLinkUtil = float64(bestFlits) / float64(dur)
		run.MaxLinkFrom = s.keys[bestIdx][0]
		run.MaxLinkTo = s.keys[bestIdx][1]
	}
	s.prevRun = fr.Run
	s.prevCycle = fr.Cycle
	if s.onWindow != nil {
		//lint:ignore hotalloc the hook target is (*Analyzer).observe, itself a checked hotpath root
		s.onWindow(run, s.delta)
	}
	s.push(0, run)
}

// push commits one closed window into level l's ring and accumulates
// toward level l+1, cascading when a full group of Factor children
// closes.
func (s *Sampler) push(l int, run RunWindow) {
	lv := &s.levels[l]
	lv.run[lv.seq%s.cfg.Windows] = run
	lv.seq++
	if l+1 >= len(s.levels) {
		return
	}
	next := &s.levels[l+1]
	if next.openCount == 0 {
		next.openRun = run
		next.openPartial = run.Partial
	} else {
		o := &next.openRun
		o.End = run.End
		o.Flits += run.Flits
		o.ReduceFlits += run.ReduceFlits
		o.BcastFlits += run.BcastFlits
		o.Delivered += run.Delivered
		o.Dropped += run.Dropped
		o.Reissued += run.Reissued
		o.Recoveries += run.Recoveries
		o.BufferedFlits = run.BufferedFlits
		o.LastFaultCycle = run.LastFaultCycle
		o.LastRecoverCycle = run.LastRecoverCycle
		if run.MaxLinkUtil > o.MaxLinkUtil {
			o.MaxLinkUtil = run.MaxLinkUtil
			o.MaxLinkFrom = run.MaxLinkFrom
			o.MaxLinkTo = run.MaxLinkTo
		}
		next.openPartial = next.openPartial || run.Partial
	}
	next.openCount++
	if next.openCount == s.cfg.Factor {
		closed := next.openRun
		closed.Partial = next.openPartial
		next.openCount = 0
		s.push(l+1, closed)
	}
}

// flush closes every level's partial accumulator at end of run, bottom
// up, so each level's total history is complete (and marked partial).
func (s *Sampler) flush() {
	for l := 1; l < len(s.levels); l++ {
		lv := &s.levels[l]
		if lv.openCount == 0 {
			continue
		}
		closed := lv.openRun
		closed.Partial = true
		lv.openCount = 0
		s.push(l, closed)
	}
}

// Links returns the directed link identities in frame order, the order
// of the per-link flit deltas the analyzer hook receives. The slice is
// owned by the sampler.
func (s *Sampler) Links() [][2]int { return s.keys }

// Levels is the number of resolution levels.
func (s *Sampler) Levels() int { return len(s.levels) }

// LevelDuration is level l's nominal window length in cycles.
func (s *Sampler) LevelDuration(l int) int { return s.levels[l].dur }

// TotalWindows is how many windows level l has closed over the whole
// run; Retained is how many of the most recent ones the ring still
// holds.
func (s *Sampler) TotalWindows(l int) int { return s.levels[l].seq }

// Retained reports how many windows of level l are available to Window.
func (s *Sampler) Retained(l int) int {
	if s.levels == nil {
		return 0
	}
	if s.levels[l].seq < s.cfg.Windows {
		return s.levels[l].seq
	}
	return s.cfg.Windows
}

// Window returns level l's i-th retained window, oldest first
// (i in [0, Retained(l))).
func (s *Sampler) Window(l, i int) RunWindow {
	lv := &s.levels[l]
	return lv.run[(lv.seq-s.Retained(l)+i)%s.cfg.Windows]
}

// Reset clears all series so the sampler can consume another run of the
// SAME spec (same link set, in the same order), reusing the storage
// allocated for the first run. Sweep runners and benchmarks use it to
// keep the steady state allocation-free across repeated runs.
func (s *Sampler) Reset() {
	s.finished = false
	s.prevCycle = 0
	if s.prevFlits == nil {
		return
	}
	clear(s.prevFlits)
	s.prevRun = netsim.RunCounters{LastFaultCycle: -1, LastRecoverCycle: -1}
	for l := range s.levels {
		lv := &s.levels[l]
		lv.seq = 0
		lv.openCount = 0
		lv.openPartial = false
	}
}

// Finished reports whether the final frame was consumed.
func (s *Sampler) Finished() bool { return s.finished }

// Cycles is the last sampled cycle (the run length once finished).
func (s *Sampler) Cycles() int { return s.prevCycle }

// FootprintBytes is the sampler's steady-state memory footprint, computed
// from the actual capacities of every slice it allocated. It depends only
// on the link count and the ring configuration — never on how many cycles
// were simulated — and is deterministic, which is what lets CI assert a
// byte ceiling on the q=31 telemetry smoke.
func (s *Sampler) FootprintBytes() int {
	n := int(unsafe.Sizeof(*s))
	n += cap(s.keys) * int(unsafe.Sizeof([2]int{}))
	n += cap(s.prevFlits) * int(unsafe.Sizeof(int(0)))
	n += cap(s.delta) * int(unsafe.Sizeof(uint32(0)))
	for i := range s.levels {
		lv := &s.levels[i]
		n += int(unsafe.Sizeof(level{}))
		n += cap(lv.run) * int(unsafe.Sizeof(RunWindow{}))
	}
	return n
}
