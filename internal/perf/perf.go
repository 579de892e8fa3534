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
	"sync"

	"polarfly/internal/bandwidth"
	"polarfly/internal/core"
	"polarfly/internal/faults"
	"polarfly/internal/netsim"
	"polarfly/internal/tsdb"
	"polarfly/internal/workload"
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

// designPoint is one (q, embedding) point of a gate sweep: the instance,
// the embedding, the seeded inputs and the run config. It is built from
// the deterministic config alone, so concurrent points share no mutable
// state: the inputs come from the sweep's sweepInputs, which the
// simulator only reads.
type designPoint struct {
	inst   *core.Instance
	e      *core.Embedding
	inputs [][]int64
	cfg    netsim.Config
	// lost marks a scheduled fault that kills every tree.
	lost bool
}

func newDesignPoint(in *sweepInputs, q int, kind core.EmbeddingKind, m, latency, vc int, seed int64, engine netsim.Engine) (*designPoint, error) {
	inst, err := core.NewInstance(q)
	if err != nil {
		return nil, err
	}
	e, err := inst.Embed(kind)
	if err != nil {
		return nil, err
	}
	return &designPoint{inst: inst, e: e, inputs: in.vectors(inst.N(), m, seed),
		cfg: netsim.Config{LinkLatency: latency, VCDepth: vc, Engine: engine}}, nil
}

// sweepInputs is one gate sweep's input matrices: the design points of
// the sweep that share (N, m, seed) — every embedding of one q — share
// one seeded N×m matrix, built by the first to ask, and its expected sum,
// computed by the first to check outputs, instead of each building its
// own. netsim and core only read Spec.Inputs, so the sharing is safe on a
// parrun pool; the mutex makes the first builds race-free. Each sweep
// makes its own, so no matrix outlives the call that built it.
type sweepInputs struct {
	mu   sync.Mutex
	mats map[inputKey]*sweepMatrix
}

type inputKey struct {
	n, m int
	seed int64
}

// sweepMatrix is one shared input matrix and, once asked for, the
// element-wise sum every node's output must equal.
type sweepMatrix struct {
	inputs [][]int64
	want   []int64
}

// matrix returns the sweep's entry for workload.Vectors(n, m, 1000, seed),
// building the matrix on first use. The caller holds in.mu.
func (in *sweepInputs) matrix(n, m int, seed int64) *sweepMatrix {
	k := inputKey{n: n, m: m, seed: seed}
	mat, ok := in.mats[k]
	if !ok {
		if in.mats == nil {
			in.mats = make(map[inputKey]*sweepMatrix)
		}
		mat = &sweepMatrix{inputs: workload.Vectors(n, m, 1000, seed)}
		in.mats[k] = mat
	}
	return mat
}

// vectors returns the sweep's workload.Vectors(n, m, 1000, seed) matrix.
func (in *sweepInputs) vectors(n, m int, seed int64) [][]int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.matrix(n, m, seed).inputs
}

// expected returns netsim.ExpectedOutput of the vectors(n, m, seed)
// matrix, computed once per sweep.
func (in *sweepInputs) expected(n, m int, seed int64) []int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	mat := in.matrix(n, m, seed)
	if mat.want == nil {
		mat.want = netsim.ExpectedOutput(mat.inputs)
	}
	return mat.want
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
