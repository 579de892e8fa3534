package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"polarfly/internal/core"
	"polarfly/internal/netsim"
)

// TestRunMetricsSmoke drives the command end to end on a tiny instance and
// checks that the -metrics-out file is valid JSON with per-link telemetry.
func TestRunMetricsSmoke(t *testing.T) {
	metricsPath := filepath.Join(t.TempDir(), "m.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-q", "3", "-m", "8", "-metrics-out", metricsPath}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"PolarFly q=3", "single-tree", "hamiltonian", "metrics written to"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
		}
	}

	var file metricsFile
	data, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("metrics file is not valid JSON: %v", err)
	}
	if file.Q != 3 || file.M != 8 {
		t.Errorf("metrics header q=%d m=%d, want 3/8", file.Q, file.M)
	}
	if len(file.Embeddings) == 0 {
		t.Fatal("no embedding sections in metrics file")
	}
	for name, em := range file.Embeddings {
		if em.Summary == nil {
			t.Fatalf("%s: missing summary", name)
		}
		if len(em.Summary.Links) == 0 {
			t.Errorf("%s: no per-link telemetry", name)
		}
		for _, l := range em.Summary.Links {
			if l.Utilization <= 0 || l.Utilization > 1 {
				t.Errorf("%s: link %d->%d utilization %v out of (0,1]",
					name, l.From, l.To, l.Utilization)
			}
		}
	}
}

// TestRunTraceSmoke checks the -trace-out path produces a loadable Chrome
// trace on a tiny instance.
func TestRunTraceSmoke(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "t.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-q", "3", "-m", "8", "-trace-out", tracePath}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if len(file.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
}

// TestMetricsOnlyDisablesSpans: the collector builds Chrome spans only
// when -trace-out will write them; -metrics-out alone turns them off,
// since the metrics report reads none of the span state.
func TestMetricsOnlyDisablesSpans(t *testing.T) {
	e := &core.Embedding{Kind: core.LowDepth}
	for _, tc := range []struct {
		traceOut, metricsOut string
		spans                bool
	}{
		{"", "m.json", false},
		{"t.json", "", true},
		{"t.json", "m.json", true},
	} {
		o := &observers{traceOut: tc.traceOut, metricsOut: tc.metricsOut}
		var cfg netsim.Config
		r := o.attach(e, false, &cfg)
		if r.col == nil || cfg.Trace == nil {
			t.Fatalf("-trace-out %q -metrics-out %q: no collector attached", tc.traceOut, tc.metricsOut)
		}
		if spans := !r.col.DisableSpans; spans != tc.spans {
			t.Errorf("-trace-out %q -metrics-out %q: spans on = %v, want %v",
				tc.traceOut, tc.metricsOut, spans, tc.spans)
		}
	}
}

// TestRunBadFlag makes sure flag errors surface as exit code 2, not panics.
func TestRunBadFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit code %d for unknown flag, want 2", code)
	}
}

// TestMaxSimBytesEveryPath checks that -max-sim-bytes gates every path
// that simulates, not just the comparison table: a 1-byte ceiling fails
// the fault and sweep paths too, and a generous one passes them.
func TestMaxSimBytesEveryPath(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"comparison", nil},
		{"fault", []string{"-fault-seed", "7"}},
		{"sweep", []string{"-sweep"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := func(ceiling string) []string {
				return append([]string{"-q", "3", "-m", "256", "-max-sim-bytes", ceiling}, tc.args...)
			}
			var stdout, stderr bytes.Buffer
			if code := run(args("1"), &stdout, &stderr); code != 1 {
				t.Fatalf("1-byte ceiling: exit code %d, want 1\nstderr: %s", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), "exceeds -max-sim-bytes 1") {
				t.Errorf("1-byte ceiling: stderr does not name the ceiling: %s", stderr.String())
			}
			stdout.Reset()
			stderr.Reset()
			if code := run(args("1000000000"), &stdout, &stderr); code != 0 {
				t.Fatalf("1 GB ceiling: exit code %d, want 0\nstderr: %s", code, stderr.String())
			}
		})
	}
}
