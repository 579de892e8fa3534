package tsdb

import (
	"fmt"
	"io"
	"strings"
)

// SnapshotSchema versions the timeline JSON emitted by benchreport; bump
// it on any breaking change to Snapshot.
const SnapshotSchema = "polarfly-timeline/v1"

// SnapshotMeta identifies the run a snapshot describes and carries the
// model figures its points are normalised against.
type SnapshotMeta struct {
	Q    int    `json:"q"`
	Kind string `json:"kind"`
	M    int    `json:"m"`
	// Nodes is N = q²+q+1; per-node rates divide by it.
	Nodes int `json:"nodes"`
	// Aggregate, Optimal, and Floor are the model bounds (see Bounds).
	Aggregate float64 `json:"aggregate"`
	Optimal   float64 `json:"optimal"`
	Floor     float64 `json:"floor"`
}

// Point is one timeline window, taken from the finest sampler level that
// still retains its full history (so the timeline always covers the whole
// run at the best available resolution).
type Point struct {
	Start   int  `json:"start"`
	End     int  `json:"end"`
	Partial bool `json:"partial,omitempty"`
	// Phase labels the window by its dominant traffic: "reduce",
	// "bcast", "mixed" (within 10%), or "drain" (no injections).
	Phase string `json:"phase"`
	// Rate is the window's per-node delivered rate and CumRate the
	// cumulative rate up to End — CumRate converges to the measured
	// Allreduce bandwidth.
	Rate    float64 `json:"rate"`
	CumRate float64 `json:"cum_rate"`
	// MaxLinkUtil is the window's hottest link.
	MaxLinkUtil float64 `json:"max_link_util"`
	MaxLinkFrom int     `json:"max_link_from"`
	MaxLinkTo   int     `json:"max_link_to"`
	// BufferedFlits is the in-flight backlog at window close.
	BufferedFlits int `json:"buffered_flits"`
	// Dropped, Reissued, and Recoveries surface fault activity.
	Dropped    int `json:"dropped,omitempty"`
	Reissued   int `json:"reissued,omitempty"`
	Recoveries int `json:"recoveries,omitempty"`
}

// GroundTruth is the cross-check of the telemetry-derived fault events
// against what the run itself records: the injected fault's activation
// cycle, the cycle of every round in the simulator's Result.Recoveries,
// and whether the analyzer reproduced them.
type GroundTruth struct {
	FaultCycles   []int `json:"fault_cycles"`
	RecoverCycles []int `json:"recover_cycles"`
	// Latencies are the per-recovery latencies: each recovery's cycle
	// minus the fault's.
	Latencies []int `json:"latencies"`
	// Match is true when the analyzer's events equal the ground truth
	// exactly.
	Match bool `json:"match"`
}

// Snapshot is the versioned timeline document benchreport emits.
// Snapshots are diffed across runs, so every field must be
// deterministic. lint:detsink
type Snapshot struct {
	Schema string       `json:"schema"`
	Meta   SnapshotMeta `json:"meta"`
	// Sampling configuration and scale facts.
	SampleEvery int `json:"sample_every"`
	Windows     int `json:"windows"`
	Levels      int `json:"levels"`
	Factor      int `json:"factor"`
	Cycles      int `json:"cycles"`
	// Resolution is the cycle span of each point (the chosen level's
	// window duration).
	Resolution int `json:"resolution"`
	// FootprintBytes is the sampler's fixed memory footprint.
	FootprintBytes int     `json:"footprint_bytes"`
	Points         []Point `json:"points"`
	// Analysis results (see Analyzer).
	TopLinks       []LinkSummary   `json:"top_links,omitempty"`
	Faults         []FaultEvent    `json:"faults,omitempty"`
	Recoveries     []RecoveryEvent `json:"recoveries,omitempty"`
	Violations     []Violation     `json:"violations,omitempty"`
	ViolationCount int             `json:"violation_count"`
	GroundTruth    *GroundTruth    `json:"ground_truth,omitempty"`
}

// BuildSnapshot assembles the timeline from a finished sampler and its
// analyzer (analyzer may be nil for a plain timeline). It picks the
// finest resolution level whose ring still holds the run's entire
// history, so the points always span the whole run.
func BuildSnapshot(s *Sampler, a *Analyzer, meta SnapshotMeta) *Snapshot {
	sn := &Snapshot{
		Schema:      SnapshotSchema,
		Meta:        meta,
		SampleEvery: s.cfg.SampleEvery,
		Windows:     s.cfg.Windows,
		Levels:      s.cfg.Levels,
		Factor:      s.cfg.Factor,
		Cycles:      s.Cycles(),
	}
	if s.levels == nil { // no frames ever arrived
		return sn
	}
	sn.FootprintBytes = s.FootprintBytes()
	lvl := s.Levels() - 1
	for l := 0; l < s.Levels(); l++ {
		if s.TotalWindows(l) <= s.Retained(l) {
			lvl = l
			break
		}
	}
	sn.Resolution = s.LevelDuration(lvl)
	nodes := meta.Nodes
	cumDelivered := 0
	sn.Points = make([]Point, 0, s.Retained(lvl))
	for i := 0; i < s.Retained(lvl); i++ {
		run, _ := s.Window(lvl, i)
		p := Point{
			Start: run.Start, End: run.End, Partial: run.Partial,
			Phase:         phaseLabel(run),
			MaxLinkUtil:   run.MaxLinkUtil,
			MaxLinkFrom:   run.MaxLinkFrom,
			MaxLinkTo:     run.MaxLinkTo,
			BufferedFlits: run.BufferedFlits,
			Dropped:       run.Dropped,
			Reissued:      run.Reissued,
			Recoveries:    run.Recoveries,
		}
		cumDelivered += run.Delivered
		if nodes > 0 {
			if dur := run.End - run.Start; dur > 0 {
				p.Rate = float64(run.Delivered) / float64(nodes) / float64(dur)
			}
			if run.End > 0 {
				p.CumRate = float64(cumDelivered) / float64(nodes) / float64(run.End)
			}
		}
		sn.Points = append(sn.Points, p)
	}
	if a != nil {
		rep := a.Report()
		sn.TopLinks = rep.TopLinks
		sn.Faults = rep.Faults
		sn.Recoveries = rep.Recoveries
		sn.Violations = rep.Violations
		sn.ViolationCount = rep.ViolationCount
	}
	return sn
}

// phaseLabel classifies a window by its injection mix.
func phaseLabel(run RunWindow) string {
	total := run.ReduceFlits + run.BcastFlits
	if total == 0 {
		return "drain"
	}
	frac := float64(run.ReduceFlits) / float64(total)
	switch {
	case frac >= 0.9:
		return "reduce"
	case frac <= 0.1:
		return "bcast"
	}
	return "mixed"
}

// WriteMarkdown renders the snapshot as a human-readable phase timeline:
// a run header, the per-window table with a utilization bar, and the
// fault/violation sections when present.
func (sn *Snapshot) WriteMarkdown(w io.Writer) error {
	bw := &errWriter{w: w}
	bw.printf("## Telemetry timeline — q=%d %s m=%d\n\n", sn.Meta.Q, sn.Meta.Kind, sn.Meta.M)
	bw.printf("%d cycles sampled every %d; %d points at %d-cycle resolution; sampler footprint %d bytes.\n",
		sn.Cycles, sn.SampleEvery, len(sn.Points), sn.Resolution, sn.FootprintBytes)
	bw.printf("Model: aggregate %.3f, optimal %.3f, floor %.3f (per-node elements/cycle).\n\n",
		sn.Meta.Aggregate, sn.Meta.Optimal, sn.Meta.Floor)
	bw.printf("| window | phase | rate | cum | max link util | hottest | buffered |\n")
	bw.printf("|---|---|---|---|---|---|---|\n")
	for _, p := range sn.Points {
		mark := ""
		if p.Partial {
			mark = "*"
		}
		ev := ""
		if p.Recoveries > 0 {
			ev = fmt.Sprintf(" ⚡%d", p.Recoveries)
		}
		bw.printf("| (%d,%d]%s | %s%s | %.3f | %.3f | %s %.2f | %d→%d | %d |\n",
			p.Start, p.End, mark, p.Phase, ev, p.Rate, p.CumRate,
			utilBar(p.MaxLinkUtil), p.MaxLinkUtil, p.MaxLinkFrom, p.MaxLinkTo, p.BufferedFlits)
	}
	if len(sn.Points) > 0 {
		bw.printf("\n`*` marks a partial window; ⚡n marks n recoveries in the window.\n")
	}
	if len(sn.TopLinks) > 0 {
		bw.printf("\n### Hottest links\n\n| link | peak util | at | flagged |\n|---|---|---|---|\n")
		for _, l := range sn.TopLinks {
			bw.printf("| %d→%d | %.3f | (%d,%d] | %d× |\n",
				l.From, l.To, l.PeakUtil, l.PeakStart, l.PeakEnd, l.Flagged)
		}
	}
	if len(sn.Faults) > 0 || len(sn.Recoveries) > 0 {
		bw.printf("\n### Fault events (telemetry-derived)\n\n")
		for _, f := range sn.Faults {
			bw.printf("- fault at cycle %d (observed by boundary %d)\n", f.Cycle, f.ObservedEnd)
		}
		for _, r := range sn.Recoveries {
			bw.printf("- recovery at cycle %d, latency %d (observed by boundary %d)\n",
				r.Cycle, r.Latency, r.ObservedEnd)
		}
		if gt := sn.GroundTruth; gt != nil {
			verdict := "MISMATCH"
			if gt.Match {
				verdict = "exact match"
			}
			bw.printf("\nCross-check against trace ground truth: **%s** (%d faults, %d recoveries).\n",
				verdict, len(gt.FaultCycles), len(gt.RecoverCycles))
		}
	}
	if sn.ViolationCount > 0 {
		bw.printf("\n### Bound violations\n\n")
		for _, v := range sn.Violations {
			bw.printf("- %s\n", v.String())
		}
		if sn.ViolationCount > len(sn.Violations) {
			bw.printf("- … %d more beyond the retention cap\n", sn.ViolationCount-len(sn.Violations))
		}
	} else {
		bw.printf("\nNo bound violations: windows respect the tolerance-adjusted Thm 7.6/7.19 bounds.\n")
	}
	return bw.err
}

// utilBar is a 10-slot unicode bar for a utilization in [0, 1+].
func utilBar(u float64) string {
	n := int(u*10 + 0.5)
	if n > 10 {
		n = 10
	}
	if n < 0 {
		n = 0
	}
	return strings.Repeat("█", n) + strings.Repeat("░", 10-n)
}

// errWriter latches the first write error so the render path stays flat.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...interface{}) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
