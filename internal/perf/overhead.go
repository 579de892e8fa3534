package perf

import (
	"fmt"
	"io"
)

// DefaultMaxOverhead is the telemetry budget: sampling may cost at most
// this fraction of the unsampled hot loop's median ns/op.
const DefaultMaxOverhead = 0.05

// OverheadPair is the unsampled and sampled timing of one benchmark.
type OverheadPair struct {
	// Name is the benchmark that timed both runs (e.g.
	// "HotLoopSampled/q=11/lowdepth").
	Name  string `json:"name"`
	Procs int    `json:"procs"`
	// BaseNs and SampledNs are the medians of the benchmark's
	// base-ns/op and sampled-ns/op metrics.
	BaseNs    float64 `json:"base_ns"`
	SampledNs float64 `json:"sampled_ns"`
	// Overhead is SampledNs/BaseNs − 1 (negative when sampling measured
	// faster — pure machine noise).
	Overhead float64 `json:"overhead"`
}

// The metrics a sampling-overhead benchmark reports: the mean time of
// its unsampled and of its sampled run of one spec, which alternate
// inside every iteration.
const (
	baseNsUnit    = "base-ns/op"
	sampledNsUnit = "sampled-ns/op"
)

// TelemetryOverhead reads every benchmark that reports both base-ns/op
// and sampled-ns/op and pairs the medians of the two. The runs behind
// each pair alternated inside one benchmark, so drift between
// benchmarking sessions — which on a noisy box easily exceeds the 5%
// budget — cancels out of the ratio.
func TelemetryOverhead(s *Snapshot) []OverheadPair {
	var pairs []OverheadPair
	for _, b := range s.Benchmarks {
		base, ok := b.Metric(baseNsUnit)
		if !ok || base.Median <= 0 {
			continue
		}
		sampled, ok := b.Metric(sampledNsUnit)
		if !ok {
			continue
		}
		pairs = append(pairs, OverheadPair{
			Name: b.Name, Procs: b.Procs,
			BaseNs: base.Median, SampledNs: sampled.Median,
			Overhead: sampled.Median/base.Median - 1,
		})
	}
	// Benchmarks is sorted by (name, procs), so pairs inherit a
	// deterministic order.
	return pairs
}

// OverheadFailures lists every pair above the budget. maxOverhead ≤ 0
// uses DefaultMaxOverhead.
func OverheadFailures(pairs []OverheadPair, maxOverhead float64) []string {
	if maxOverhead <= 0 {
		maxOverhead = DefaultMaxOverhead
	}
	var fails []string
	for _, p := range pairs {
		if p.Overhead > maxOverhead {
			fails = append(fails, fmt.Sprintf(
				"%s (procs=%d): sampling overhead %.1f%% exceeds the %.1f%% budget (%.0f → %.0f ns/op)",
				p.Name, p.Procs, p.Overhead*100, maxOverhead*100, p.BaseNs, p.SampledNs))
		}
	}
	return fails
}

// WriteOverheadMarkdown renders the pairing table.
func WriteOverheadMarkdown(w io.Writer, pairs []OverheadPair, maxOverhead float64) error {
	if maxOverhead <= 0 {
		maxOverhead = DefaultMaxOverhead
	}
	ew := &mdWriter{w: w}
	ew.printf("# Telemetry overhead (budget %.1f%%)\n\n", maxOverhead*100)
	if len(pairs) == 0 {
		ew.printf("No base↔sampled benchmark pairs found.\n")
		return ew.err
	}
	ew.printf("| benchmark | base ns/op | sampled ns/op | overhead | verdict |\n|---|---|---|---|---|\n")
	for _, p := range pairs {
		verdict := "ok"
		if p.Overhead > maxOverhead {
			verdict = "**OVER BUDGET**"
		}
		ew.printf("| %s | %.0f | %.0f | %+.1f%% | %s |\n",
			p.Name, p.BaseNs, p.SampledNs, p.Overhead*100, verdict)
	}
	return ew.err
}

// mdWriter latches the first write error (same idiom as tsdb's renderer).
type mdWriter struct {
	w   io.Writer
	err error
}

func (e *mdWriter) printf(format string, args ...interface{}) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
