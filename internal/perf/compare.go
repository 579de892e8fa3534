package perf

import (
	"fmt"
	"math"
	"sort"
)

// DeltaKind classifies one benchmark metric's movement between two
// snapshots.
type DeltaKind int

const (
	// DeltaWithinNoise: the relative change is inside the threshold.
	DeltaWithinNoise DeltaKind = iota
	// DeltaImprovement: the metric moved in the good direction by more
	// than the threshold.
	DeltaImprovement
	// DeltaRegression: the metric moved in the bad direction by more than
	// the threshold.
	DeltaRegression
	// DeltaAdded: the benchmark exists only in the new snapshot.
	DeltaAdded
	// DeltaRemoved: the benchmark exists only in the old snapshot.
	DeltaRemoved
	// DeltaChanged: a unit with no known improvement direction (a custom
	// testing.B.ReportMetric unit) moved beyond the threshold.
	// Informational only — it never gates.
	DeltaChanged
)

func (k DeltaKind) String() string {
	switch k {
	case DeltaWithinNoise:
		return "within-noise"
	case DeltaImprovement:
		return "improvement"
	case DeltaRegression:
		return "regression"
	case DeltaAdded:
		return "added"
	case DeltaRemoved:
		return "removed"
	case DeltaChanged:
		return "changed"
	}
	return fmt.Sprintf("DeltaKind(%d)", int(k))
}

// gateUnits are the units whose regressions fail a comparison. They are
// the lower-is-better testing.B standards; custom units (elem/cycle,
// coord/rand, …) and MB/s are reported but never gate, because their
// direction cannot be inferred reliably and a missing custom metric must
// not break CI.
var gateUnits = map[string]bool{"ns/op": true, "B/op": true, "allocs/op": true}

// lowerIsBetter returns the improvement direction for a unit, and
// whether the direction is known.
func lowerIsBetter(unit string) (bool, bool) {
	switch unit {
	case "ns/op", "B/op", "allocs/op":
		return true, true
	case "MB/s":
		return false, true
	}
	return false, false
}

// Delta is one (benchmark, unit) comparison.
type Delta struct {
	Name  string    `json:"name"`
	Procs int       `json:"procs"`
	Unit  string    `json:"unit,omitempty"`
	Kind  DeltaKind `json:"kind"`
	// KindName mirrors Kind for human-readable JSON.
	KindName string  `json:"kind_name"`
	Old      float64 `json:"old,omitempty"`
	New      float64 `json:"new,omitempty"`
	// Rel is (New−Old)/Old; sign follows the raw values, not the
	// direction of goodness. It is 0 when Old is 0: a rise from a zero
	// baseline has no finite ratio, and classify counts it as beyond any
	// threshold.
	Rel float64 `json:"rel,omitempty"`
	// Gating marks units whose regressions fail the comparison.
	Gating bool `json:"gating,omitempty"`
}

// Comparison is the full diff of two snapshots.
type Comparison struct {
	OldLabel  string  `json:"old_label"`
	NewLabel  string  `json:"new_label"`
	Threshold float64 `json:"threshold"`
	Deltas    []Delta `json:"deltas"`
	// Regressions counts gating-unit regressions; a CI gate fails when it
	// is non-zero.
	Regressions  int `json:"regressions"`
	Improvements int `json:"improvements"`
	Added        int `json:"added"`
	Removed      int `json:"removed"`
	// Matched counts the (name, procs) pairs present on both sides — the
	// benchmarks actually compared. Zero means the gate compared nothing.
	Matched int `json:"matched"`
}

// OK reports whether the comparison found no gating regressions. It
// does not look at Matched: callers that gate on the comparison must
// also require Matched > 0.
func (c *Comparison) OK() bool { return c.Regressions == 0 }

// Compare diffs two bench snapshots on their median statistics. A
// benchmark metric regresses when it moves in the bad direction by more
// than threshold (relative), which any rise from a zero baseline does;
// only the standard lower-is-better units gate. Benchmarks present on
// one side only are reported as added or removed (never gating);
// Matched counts the benchmarks on both sides. Deltas are sorted by
// (name, procs, unit).
func Compare(old, new *Snapshot, threshold float64) *Comparison {
	c := &Comparison{OldLabel: old.Label, NewLabel: new.Label, Threshold: threshold}
	type key struct {
		name  string
		procs int
	}
	oldBy := make(map[key]BenchSummary, len(old.Benchmarks))
	for _, b := range old.Benchmarks {
		oldBy[key{b.Name, b.Procs}] = b
	}
	newBy := make(map[key]BenchSummary, len(new.Benchmarks))
	for _, b := range new.Benchmarks {
		newBy[key{b.Name, b.Procs}] = b
	}

	keys := make([]key, 0, len(oldBy)+len(newBy))
	for k := range oldBy {
		keys = append(keys, k)
	}
	for k := range newBy {
		if _, ok := oldBy[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].name != keys[j].name {
			return keys[i].name < keys[j].name
		}
		return keys[i].procs < keys[j].procs
	})

	for _, k := range keys {
		ob, haveOld := oldBy[k]
		nb, haveNew := newBy[k]
		switch {
		case !haveNew:
			c.Deltas = append(c.Deltas, Delta{Name: k.name, Procs: k.procs,
				Kind: DeltaRemoved, KindName: DeltaRemoved.String()})
			c.Removed++
		case !haveOld:
			c.Deltas = append(c.Deltas, Delta{Name: k.name, Procs: k.procs,
				Kind: DeltaAdded, KindName: DeltaAdded.String()})
			c.Added++
		default:
			c.Matched++
			for _, om := range ob.Metrics {
				nm, ok := nb.Metric(om.Unit)
				if !ok {
					continue
				}
				d := classify(k.name, k.procs, om, nm, threshold)
				if d.Kind == DeltaRegression && d.Gating {
					c.Regressions++
				}
				if d.Kind == DeltaImprovement {
					c.Improvements++
				}
				c.Deltas = append(c.Deltas, d)
			}
		}
	}
	return c
}

func classify(name string, procs int, om, nm MetricSummary, threshold float64) Delta {
	d := Delta{
		Name: name, Procs: procs, Unit: om.Unit,
		Old: om.Median, New: nm.Median,
		Gating: gateUnits[om.Unit],
	}
	// rel is the relative change classified against the threshold: Rel,
	// or +Inf for a rise from a zero baseline (0 → 31,744 allocs/op is a
	// regression, not a 0% move).
	rel := 0.0
	if d.Old > 0 {
		d.Rel = (d.New - d.Old) / d.Old
		rel = d.Rel
	} else if d.New > 0 {
		rel = math.Inf(1)
	}
	lower, known := lowerIsBetter(om.Unit)
	switch {
	case !known:
		// Custom unit: the good direction is unknowable, so report the
		// movement without judging it.
		if rel > threshold || rel < -threshold {
			d.Kind = DeltaChanged
		} else {
			d.Kind = DeltaWithinNoise
		}
	default:
		worse := rel
		if !lower {
			worse = -rel
		}
		switch {
		case worse > threshold:
			d.Kind = DeltaRegression
		case worse < -threshold:
			d.Kind = DeltaImprovement
		default:
			d.Kind = DeltaWithinNoise
		}
	}
	d.KindName = d.Kind.String()
	return d
}
