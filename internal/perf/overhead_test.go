package perf

import (
	"bytes"
	"strings"
	"testing"
)

func benchNs(name string, procs int, ns float64) BenchSummary {
	return BenchSummary{Name: name, Procs: procs, Runs: 5,
		Metrics: []MetricSummary{{Unit: "ns/op", N: 5, Min: ns, Median: ns, Mean: ns, Max: ns}}}
}

// benchPair is one sampling-overhead benchmark line: ns/op for the whole
// iteration plus the base and sampled runs' own metrics.
func benchPair(name string, procs int, base, sampled float64) BenchSummary {
	b := benchNs(name, procs, base+sampled)
	for _, m := range []struct {
		unit string
		ns   float64
	}{{"base-ns/op", base}, {"sampled-ns/op", sampled}} {
		b.Metrics = append(b.Metrics, MetricSummary{Unit: m.unit, N: 5, Min: m.ns, Median: m.ns, Mean: m.ns, Max: m.ns})
	}
	return b
}

func TestTelemetryOverhead(t *testing.T) {
	s := &Snapshot{Benchmarks: []BenchSummary{
		benchNs("HotLoop/q=11/lowdepth", 8, 1000), // plain ns/op → not a pair
		benchPair("HotLoopSampled/q=11/lowdepth", 8, 1000, 1030),
		benchPair("HotLoopSampled/q=11/single", 8, 500, 560),
		benchPair("HotLoopSampled/q=11/zero", 8, 0, 700), // no base time → skipped
		benchNs("Unrelated", 8, 100),
	}}
	pairs := TelemetryOverhead(s)
	if len(pairs) != 2 {
		t.Fatalf("got %d pairs: %+v", len(pairs), pairs)
	}
	if pairs[0].Name != "HotLoopSampled/q=11/lowdepth" || pairs[0].Procs != 8 ||
		pairs[0].BaseNs != 1000 || pairs[0].SampledNs != 1030 {
		t.Errorf("pair 0: %+v", pairs[0])
	}
	if got := pairs[0].Overhead; got < 0.029 || got > 0.031 {
		t.Errorf("lowdepth overhead %.4f, want ≈0.03", got)
	}
	if pairs[1].Name != "HotLoopSampled/q=11/single" {
		t.Errorf("pair 1: %+v", pairs[1])
	}
	if got := pairs[1].Overhead; got < 0.119 || got > 0.121 {
		t.Errorf("single overhead %.4f, want ≈0.12", got)
	}

	fails := OverheadFailures(pairs, 0) // 0 → DefaultMaxOverhead
	if len(fails) != 1 || !strings.Contains(fails[0], "HotLoopSampled/q=11/single") {
		t.Fatalf("failures: %v", fails)
	}
	if fails := OverheadFailures(pairs, 0.15); len(fails) != 0 {
		t.Fatalf("budget 15%% should pass: %v", fails)
	}

	var buf bytes.Buffer
	if err := WriteOverheadMarkdown(&buf, pairs, 0); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"# Telemetry overhead (budget 5.0%)", "OVER BUDGET", "| HotLoopSampled/q=11/lowdepth |"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q in:\n%s", want, out)
		}
	}
}

func TestTelemetryOverheadNoPairs(t *testing.T) {
	s := &Snapshot{Benchmarks: []BenchSummary{benchNs("HotLoop/q=11/single", 8, 500)}}
	if pairs := TelemetryOverhead(s); len(pairs) != 0 {
		t.Fatalf("unexpected pairs: %+v", pairs)
	}
	var buf bytes.Buffer
	if err := WriteOverheadMarkdown(&buf, nil, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "No base↔sampled benchmark pairs") {
		t.Errorf("empty markdown: %s", buf.String())
	}
}
