package perf

import (
	"strings"
	"testing"
)

// snap builds a minimal snapshot whose benchmarks each carry a single
// observation per unit (so median == value).
func snap(label string, benches ...BenchSummary) *Snapshot {
	return &Snapshot{Schema: SnapshotSchema, Label: label, Kind: KindBench, Benchmarks: benches}
}

func bench(name string, units map[string]float64) BenchSummary {
	var results []BenchResult
	r := BenchResult{Name: name, Procs: 1, Iterations: 1}
	for unit, v := range units {
		r.Metrics = append(r.Metrics, Measurement{Value: v, Unit: unit})
	}
	results = append(results, r)
	return Summarize(results)[0]
}

// TestCompare is the satellite table: every delta kind plus the
// exit-gating semantics, one scenario per row.
func TestCompare(t *testing.T) {
	const threshold = 0.05
	cases := []struct {
		name     string
		old, new *Snapshot
		wantKind DeltaKind
		wantUnit string
		wantOK   bool
	}{
		{
			name:     "regression beyond threshold gates",
			old:      snap("a", bench("BenchmarkX", map[string]float64{"ns/op": 100})),
			new:      snap("b", bench("BenchmarkX", map[string]float64{"ns/op": 120})),
			wantKind: DeltaRegression, wantUnit: "ns/op", wantOK: false,
		},
		{
			name:     "improvement beyond threshold",
			old:      snap("a", bench("BenchmarkX", map[string]float64{"ns/op": 100})),
			new:      snap("b", bench("BenchmarkX", map[string]float64{"ns/op": 80})),
			wantKind: DeltaImprovement, wantUnit: "ns/op", wantOK: true,
		},
		{
			name:     "within noise",
			old:      snap("a", bench("BenchmarkX", map[string]float64{"ns/op": 100})),
			new:      snap("b", bench("BenchmarkX", map[string]float64{"ns/op": 103})),
			wantKind: DeltaWithinNoise, wantUnit: "ns/op", wantOK: true,
		},
		{
			name:     "new benchmark never gates",
			old:      snap("a"),
			new:      snap("b", bench("BenchmarkNew", map[string]float64{"ns/op": 50})),
			wantKind: DeltaAdded, wantOK: true,
		},
		{
			name:     "removed benchmark never gates",
			old:      snap("a", bench("BenchmarkGone", map[string]float64{"ns/op": 50})),
			new:      snap("b"),
			wantKind: DeltaRemoved, wantOK: true,
		},
		{
			name:     "MB/s drop is a regression but does not gate",
			old:      snap("a", bench("BenchmarkX", map[string]float64{"MB/s": 10})),
			new:      snap("b", bench("BenchmarkX", map[string]float64{"MB/s": 5})),
			wantKind: DeltaRegression, wantUnit: "MB/s", wantOK: true,
		},
		{
			name:     "custom unit movement is informational",
			old:      snap("a", bench("BenchmarkX", map[string]float64{"elem/cycle": 3.4})),
			new:      snap("b", bench("BenchmarkX", map[string]float64{"elem/cycle": 5.1})),
			wantKind: DeltaChanged, wantUnit: "elem/cycle", wantOK: true,
		},
		{
			name:     "allocs/op regression gates",
			old:      snap("a", bench("BenchmarkX", map[string]float64{"allocs/op": 10})),
			new:      snap("b", bench("BenchmarkX", map[string]float64{"allocs/op": 20})),
			wantKind: DeltaRegression, wantUnit: "allocs/op", wantOK: false,
		},
		{
			// The faulted q=31 point moved from 0 to 31,744 allocs/op
			// between two recordings; a zero baseline has no ratio, but
			// any rise from it is a regression.
			name:     "allocs/op rise from zero gates",
			old:      snap("a", bench("BenchmarkX", map[string]float64{"allocs/op": 0})),
			new:      snap("b", bench("BenchmarkX", map[string]float64{"allocs/op": 31744})),
			wantKind: DeltaRegression, wantUnit: "allocs/op", wantOK: false,
		},
		{
			name:     "zero stays zero",
			old:      snap("a", bench("BenchmarkX", map[string]float64{"allocs/op": 0})),
			new:      snap("b", bench("BenchmarkX", map[string]float64{"allocs/op": 0})),
			wantKind: DeltaWithinNoise, wantUnit: "allocs/op", wantOK: true,
		},
		{
			name:     "MB/s rise from zero is an improvement",
			old:      snap("a", bench("BenchmarkX", map[string]float64{"MB/s": 0})),
			new:      snap("b", bench("BenchmarkX", map[string]float64{"MB/s": 5})),
			wantKind: DeltaImprovement, wantUnit: "MB/s", wantOK: true,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cmp := Compare(c.old, c.new, threshold)
			if len(cmp.Deltas) != 1 {
				t.Fatalf("%d deltas, want 1: %+v", len(cmp.Deltas), cmp.Deltas)
			}
			d := cmp.Deltas[0]
			if d.Kind != c.wantKind {
				t.Errorf("kind = %v, want %v", d.Kind, c.wantKind)
			}
			if d.KindName != d.Kind.String() {
				t.Errorf("KindName %q does not mirror Kind %v", d.KindName, d.Kind)
			}
			if c.wantUnit != "" && d.Unit != c.wantUnit {
				t.Errorf("unit = %q, want %q", d.Unit, c.wantUnit)
			}
			if cmp.OK() != c.wantOK {
				t.Errorf("OK() = %v (regressions=%d), want %v", cmp.OK(), cmp.Regressions, c.wantOK)
			}
		})
	}
}

// TestCompareMixedSnapshot exercises counting and ordering with several
// benchmarks moving in different directions at once.
func TestCompareMixedSnapshot(t *testing.T) {
	old := snap("base",
		bench("BenchmarkA", map[string]float64{"ns/op": 100, "allocs/op": 10}),
		bench("BenchmarkB", map[string]float64{"ns/op": 200}),
		bench("BenchmarkGone", map[string]float64{"ns/op": 50}),
	)
	new := snap("head",
		bench("BenchmarkA", map[string]float64{"ns/op": 150, "allocs/op": 10}),
		bench("BenchmarkB", map[string]float64{"ns/op": 100}),
		bench("BenchmarkNew", map[string]float64{"ns/op": 60}),
	)
	cmp := Compare(old, new, 0.05)
	if cmp.Regressions != 1 || cmp.Improvements != 1 || cmp.Added != 1 || cmp.Removed != 1 {
		t.Errorf("counts reg=%d imp=%d add=%d rem=%d, want 1/1/1/1",
			cmp.Regressions, cmp.Improvements, cmp.Added, cmp.Removed)
	}
	if cmp.OK() {
		t.Error("OK() with a gating regression present")
	}
	if cmp.Matched != 2 {
		t.Errorf("Matched = %d, want 2 (A and B are on both sides)", cmp.Matched)
	}
	// Deltas must be sorted by name: A (×2 units), B, Gone, New.
	wantNames := []string{"BenchmarkA", "BenchmarkA", "BenchmarkB", "BenchmarkGone", "BenchmarkNew"}
	if len(cmp.Deltas) != len(wantNames) {
		t.Fatalf("%d deltas, want %d: %+v", len(cmp.Deltas), len(wantNames), cmp.Deltas)
	}
	for i, w := range wantNames {
		if cmp.Deltas[i].Name != w {
			t.Errorf("deltas[%d].Name = %q, want %q", i, cmp.Deltas[i].Name, w)
		}
	}
}

// TestCompareIdentical is the CI fast path: same snapshot twice must be
// all within-noise and OK.
func TestCompareIdentical(t *testing.T) {
	s := snap("same",
		bench("BenchmarkA", map[string]float64{"ns/op": 100, "B/op": 64, "allocs/op": 3}),
		bench("BenchmarkB", map[string]float64{"ns/op": 200, "MB/s": 12}),
	)
	cmp := Compare(s, s, 0.05)
	if !cmp.OK() {
		t.Errorf("identical snapshots not OK: %d regressions", cmp.Regressions)
	}
	for _, d := range cmp.Deltas {
		if d.Kind != DeltaWithinNoise {
			t.Errorf("%s %s: kind %v, want within-noise", d.Name, d.Unit, d.Kind)
		}
		if d.Rel != 0 {
			t.Errorf("%s %s: rel %v, want 0", d.Name, d.Unit, d.Rel)
		}
	}
}

// TestCompareMatchesNameAndProcs: the same benchmark recorded under
// another GOMAXPROCS is a different benchmark, so two snapshots that
// differ only in procs share nothing and Matched is zero.
func TestCompareMatchesNameAndProcs(t *testing.T) {
	one := bench("BenchmarkX", map[string]float64{"ns/op": 100})
	two := one
	two.Procs = 2
	cmp := Compare(snap("a", one), snap("b", two), 0.05)
	if cmp.Matched != 0 || cmp.Added != 1 || cmp.Removed != 1 {
		t.Errorf("matched=%d added=%d removed=%d, want 0/1/1", cmp.Matched, cmp.Added, cmp.Removed)
	}
	if cmp := Compare(snap("a", one), snap("b", one), 0.05); cmp.Matched != 1 {
		t.Errorf("identical snapshots matched %d benchmarks, want 1", cmp.Matched)
	}
}

func TestDeltaKindString(t *testing.T) {
	kinds := map[DeltaKind]string{
		DeltaWithinNoise: "within-noise",
		DeltaImprovement: "improvement",
		DeltaRegression:  "regression",
		DeltaAdded:       "added",
		DeltaRemoved:     "removed",
		DeltaChanged:     "changed",
		DeltaKind(99):    "DeltaKind(99)",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

// TestCompareMarkdownRiseFromZero: the markdown puts a rise from a zero
// baseline among the gating regressions and says where it rose from,
// instead of printing a +0.0% change.
func TestCompareMarkdownRiseFromZero(t *testing.T) {
	cmp := Compare(
		snap("a", bench("BenchmarkX", map[string]float64{"allocs/op": 0, "ns/op": 100})),
		snap("b", bench("BenchmarkX", map[string]float64{"allocs/op": 31744, "ns/op": 101})), 0.05)
	var out strings.Builder
	if err := WriteCompareMarkdown(&out, cmp); err != nil {
		t.Fatal(err)
	}
	md := out.String()
	if !strings.Contains(md, "1 regression(s)") ||
		!strings.Contains(md, "| BenchmarkX | allocs/op | 0 | 31744 | from 0 | **regression** |") {
		t.Errorf("markdown does not flag the rise from zero:\n%s", md)
	}
	if strings.Index(md, "allocs/op") > strings.Index(md, "ns/op") {
		t.Errorf("the gating regression is not listed first:\n%s", md)
	}
}
