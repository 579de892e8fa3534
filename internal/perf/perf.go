// Package perf is the repository's performance-observability layer: it
// parses `go test -bench -benchmem` output into typed results, reduces
// repeated runs to deterministic summary statistics, diffs two benchmark
// snapshots with a noise threshold so CI can gate on regressions, and
// produces the measured-vs-model scorecard that tracks how closely the
// cycle simulator reproduces the Algorithm 1 bandwidth predictions and
// the Theorem 7.6 / Theorem 7.19 bounds across design points.
//
// Everything is stdlib-only and deterministic: given the same inputs the
// package produces byte-identical snapshots, so BENCH_*.json files diff
// cleanly between commits.
package perf

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"polarfly/internal/bandwidth"
	"polarfly/internal/core"
	"polarfly/internal/faults"
	"polarfly/internal/netsim"
	"polarfly/internal/tsdb"
)

// SnapshotSchema identifies the BENCH_*.json format version.
const SnapshotSchema = "polarfly-bench/v1"

// Snapshot kinds.
const (
	// KindBench is a snapshot of `go test -bench` results.
	KindBench = "bench"
	// KindScorecard is a measured-vs-model scorecard snapshot.
	KindScorecard = "scorecard"
	// KindDegraded is a fault-injection degraded-run scorecard snapshot.
	KindDegraded = "degraded-scorecard"
	// KindCritPath is a causal critical-path blame scorecard snapshot.
	KindCritPath = "critpath"
)

// Snapshot is the persisted form of one benchmark or scorecard run — the
// schema of the BENCH_<label>.json files at the repository root. A bench
// snapshot fills Benchmarks (and optionally Failed/Packages); a scorecard
// snapshot fills Scorecard and ScorecardConfig.
type Snapshot struct {
	Schema string `json:"schema"`
	Label  string `json:"label"`
	Kind   string `json:"kind"`
	// GoVersion is the toolchain that produced the numbers (set by the
	// CLI; informational).
	GoVersion string `json:"go_version,omitempty"`
	// Packages lists the packages whose benchmarks ran.
	Packages []string `json:"packages,omitempty"`
	// Failed lists benchmarks (or packages) that failed during the run; a
	// snapshot with failures must not be used as a regression baseline.
	Failed []string `json:"failed,omitempty"`
	// Benchmarks holds the per-benchmark summary statistics.
	Benchmarks []BenchSummary `json:"benchmarks,omitempty"`
	// Scorecard holds the measured-vs-model records.
	Scorecard []ScorePoint `json:"scorecard,omitempty"`
	// ScorecardConfig records the sweep parameters behind Scorecard.
	ScorecardConfig *ScorecardConfig `json:"scorecard_config,omitempty"`
	// Degraded holds the fault-injection validation records.
	Degraded []DegradedPoint `json:"degraded,omitempty"`
	// DegradedConfig records the sweep parameters behind Degraded.
	DegradedConfig *DegradedConfig `json:"degraded_config,omitempty"`
	// Timeline holds the streaming-telemetry snapshots, one per embedding.
	Timeline []*tsdb.Snapshot `json:"timeline,omitempty"`
	// TimelineConfig records the sweep parameters behind Timeline.
	TimelineConfig *TimelineConfig `json:"timeline_config,omitempty"`
	// CritPath holds the causal critical-path blame records.
	CritPath []CritPathPoint `json:"critpath,omitempty"`
	// CritPathConfig records the sweep parameters behind CritPath.
	CritPathConfig *CritPathConfig `json:"critpath_config,omitempty"`
}

// WriteJSON writes the snapshot as indented JSON. Field order is fixed by
// the struct, so output is deterministic.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// DecodeSnapshot reads and validates one snapshot.
func DecodeSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("perf: decoding snapshot: %w", err)
	}
	if s.Schema != SnapshotSchema {
		return nil, fmt.Errorf("perf: snapshot schema %q, want %q", s.Schema, SnapshotSchema)
	}
	return &s, nil
}

// sweepQ is what every design point of one q shares in a gate sweep:
// the instance, its core.ComparisonKinds embeddings, the seeded input
// matrix and, when the sweep checks outputs, their element-wise sum. A
// sweep builds each of its q once, serially, before its pool starts; the
// points only read it, so concurrent points need no locks, and nothing
// outlives the sweep that built it.
type sweepQ struct {
	inst   *core.Instance
	embeds []*core.Embedding
	inputs [][]int64
	// want is nil unless the sweep checks outputs.
	want []int64
}

// newSweep builds the shared setup of each q for vector length m; checked
// also computes the expected sums.
func newSweep(qs []int, m int, seed int64, checked bool) ([]*sweepQ, error) {
	out := make([]*sweepQ, len(qs))
	for i, q := range qs {
		inst, err := core.NewInstance(q)
		if err != nil {
			return nil, err
		}
		embeds, err := inst.EmbedAll(core.ComparisonKinds(q))
		if err != nil {
			return nil, err
		}
		sq := &sweepQ{inst: inst, embeds: embeds, inputs: inst.Inputs(m, seed)}
		if checked {
			sq.want = netsim.ExpectedOutput(sq.inputs)
		}
		out[i] = sq
	}
	return out, nil
}

// designPoint is one (q, embedding) point of a gate sweep: its q's shared
// setup, the embedding and the point's own run config.
type designPoint struct {
	*sweepQ
	e   *core.Embedding
	cfg netsim.Config
	// lost marks a scheduled fault that kills every tree.
	lost bool
}

// point returns the design point of embedding e on the given fabric.
func (sq *sweepQ) point(e *core.Embedding, latency, vc int, engine netsim.Engine) *designPoint {
	return &designPoint{sweepQ: sq, e: e, cfg: netsim.Config{LinkLatency: latency, VCDepth: vc, Engine: engine}}
}

// failLink schedules the run's one fault: link u-v goes down at cycle at.
func (p *designPoint) failLink(u, v, at int) {
	p.cfg.Faults = &faults.Plan{Faults: []faults.Fault{{Kind: faults.LinkDown, U: u, V: v, At: at}}}
}

// failWorst schedules the worst-case single link failure at cycle at and
// returns the link (u < v) and the core.Degrade survivor embedding, nil
// when the failure kills every tree.
func (p *designPoint) failWorst(at int) ([2]int, *core.Embedding, error) {
	link, deg, err := core.WorstCaseLink(p.e)
	if err != nil {
		return link, nil, err
	}
	p.failLink(link[0], link[1], at)
	p.lost = deg == nil
	return link, deg, nil
}

// run simulates the point. When the scheduled fault kills every tree the
// run must abort with netsim.ErrAllTreesLost, not hang or mis-answer; it
// then returns a nil result and no error.
func (p *designPoint) run() (*core.AllreduceResult, error) {
	res, err := p.inst.Allreduce(p.e, p.inputs, p.cfg)
	switch {
	case p.lost && !errors.Is(err, netsim.ErrAllTreesLost):
		return nil, fmt.Errorf("perf: q=%d %v: want ErrAllTreesLost, got %v", p.inst.Q, p.e.Kind, err)
	case p.lost:
		return nil, nil
	case err != nil:
		return nil, fmt.Errorf("perf: q=%d %v: %w", p.inst.Q, p.e.Kind, err)
	}
	return res, nil
}

// bound is the embedding's proven aggregate-bandwidth floor and the
// theorem that gives it.
func bound(q int, e *core.Embedding) (float64, string) {
	switch e.Kind {
	case core.SingleTree:
		return 1.0, BoundSingleLink
	case core.LowDepth:
		return bandwidth.LowDepthBound(q, 1.0), BoundThm76
	case core.Hamiltonian:
		return bandwidth.HamiltonianBound(len(e.Forest), 1.0), BoundThm719
	case core.DepthTwo:
		// Not part of the sweeps; no proven floor.
	}
	return 0, "none"
}
