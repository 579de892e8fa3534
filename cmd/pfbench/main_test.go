package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"testing"
)

// benchFile is BENCHMARK.json at the repository root.
type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBench(t *testing.T) benchFile {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json to the workloads and
// metric tables the program emits, and to the limits on names, units,
// counts and bounds.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := loadBench(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program (at most 16)", len(b.EndToEnd), len(endToEnd))
	}
	if len(b.PerLayer) != len(perLayer) || len(b.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program (at most 128)", len(b.PerLayer), len(perLayer))
	}
	seen := make(map[string]bool)
	check := func(name, unit, better string, m metric) {
		if name != m.name || unit != m.unit {
			t.Errorf("BENCHMARK.json has %s [%s], the program %s [%s]", name, unit, m.name, m.unit)
		}
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) || seen[name] {
			t.Errorf("bad or repeated metric %q [%s]", name, unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better is %q", name, better)
		}
		seen[name] = true
	}
	maxBound := 0.0
	for i, m := range b.EndToEnd {
		check(m.Name, m.Unit, m.Better, endToEnd[i])
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	for i, m := range b.PerLayer {
		check(m.Name, m.Unit, m.Better, perLayer[i])
	}
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && m.Bound < maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s end-to-end metric")
	}
}

// smokeRun makes one single-iteration run of w at smoke size.
func smokeRun(t *testing.T, w workloadSpec, traced bool) *result {
	t.Helper()
	res, err := measure(w, 7, 0, traced, true, io.Discard, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v, %d of %d operations failed", w.name, res.Correct, res.Failed, res.Attempted)
	}
	return res
}

// TestSmokeEmitsEveryMetric checks that every run reports exactly the
// metrics BENCHMARK.json names for its mode, each finite and with its unit.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	b := loadBench(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res := smokeRun(t, w, traced)
			want := map[string]string{}
			for _, m := range b.EndToEnd {
				want[m.Name] = m.Unit
			}
			if traced {
				want = map[string]string{}
				for _, m := range b.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				v, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: no %s", w.name, traced, name)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s traced=%v: %s = %v", w.name, traced, name, v.Value)
				case v.Unit != unit:
					t.Errorf("%s traced=%v: %s in %q, want %q", w.name, traced, name, v.Unit, unit)
				}
			}
			if !traced {
				for _, name := range []string{"wall_s", "setup_s", "peak_rss_mb"} {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w.name, name, res.Metrics[name].Value)
					}
				}
			}
		}
	}
}

// TestCorruptedExpectedOutputFails shows the output check is live: a wrong
// expected sum makes every simulation a failed operation.
func TestCorruptedExpectedOutputFails(t *testing.T) {
	b := newSim(7, true).(*simBench)
	var tl tally
	if err := b.setup(nil, &tl); err != nil {
		t.Fatal(err)
	}
	if tl.failed != 0 {
		t.Fatalf("set-up failed: %v", tl.errs)
	}
	b.want[0]++
	b.op(nil, &tl)
	if tl.failed != len(b.embeds) {
		t.Fatalf("%d of %d operations failed, want every simulation (%d)", tl.failed, tl.attempted, len(b.embeds))
	}
}

// TestSmokeRunsRepeatCounters runs each workload traced twice: every
// count of simulated or constructed work must repeat exactly.
func TestSmokeRunsRepeatCounters(t *testing.T) {
	for _, w := range workloads {
		a, b := smokeRun(t, w, true), smokeRun(t, w, true)
		for _, m := range perLayer {
			if m.exact && a.Metrics[m.name] != b.Metrics[m.name] {
				t.Errorf("%s: %s is %v then %v", w.name, m.name, a.Metrics[m.name].Value, b.Metrics[m.name].Value)
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{4}, 4, 4},
	} {
		q1, q3 := quartiles(c.data)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.data, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	sum := func(vs ...float64) metricSummary { return summarize(metric{name: "x"}, vs) }
	base := sum(10, 10.1, 10.2, 9.9, 9.8)
	for _, c := range []struct {
		b      metricSummary
		better string
		want   string
	}{
		{sum(10, 10.1, 10.2, 9.9, 9.8), "lower", "ok"},
		{sum(12, 12.1, 12.2, 11.9, 11.8), "lower", "worse"},
		{sum(12, 12.1, 12.2, 11.9, 11.8), "higher", "ok"},
		{sum(8, 8.1, 8.2, 7.9, 7.8), "higher", "worse"},
		{sum(5, 10, 15, 20, 25), "lower", "unresolved"},
	} {
		if got := verdict(base, c.b, c.better, 0.1); got != c.want {
			t.Errorf("verdict(%v, better %s) = %s, want %s", c.b.Values, c.better, got, c.want)
		}
	}
}
