package perf

import (
	"io"
	"strings"
	"testing"

	"polarfly/internal/critpath"
)

// okCell renders s and returns the ok column of its last table row.
func okCell(t *testing.T, s *Snapshot, render func(io.Writer, *Snapshot) error) string {
	t.Helper()
	var sb strings.Builder
	if err := render(&sb, s); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	cells := strings.Split(lines[len(lines)-1], "|")
	return strings.TrimSpace(cells[len(cells)-2])
}

// TestMarkdownOKColumnMatchesGate: each point below passes, or fails
// exactly one check of its gate, and its rendered row must say **NO**
// exactly when the gate reports it.
func TestMarkdownOKColumnMatchesGate(t *testing.T) {
	top := []critpath.LinkBlame{{From: 0, To: 1, Cycles: 60}}
	clean := CritPathPoint{Q: 3, Embedding: "low-depth", Cycles: 100, ConservationOK: true,
		DominantClass: "serialization", TopSerialization: top}
	faulted := CritPathPoint{Q: 3, Embedding: "low-depth", Faulted: true, Cycles: 100, ConservationOK: true,
		DominantClass: "fault-detect", RecoveriesMeasured: 1, RecoveriesOnPath: 1,
		RecoveryBlameCycles: 40, MeasuredRecoveryCycles: 40}
	crit := []struct {
		name string
		mut  func(*CritPathPoint)
	}{
		{"clean", func(*CritPathPoint) {}},
		{"analysis error", func(p *CritPathPoint) { p.AnalysisError = "no delivery event" }},
		{"conservation", func(p *CritPathPoint) { p.ConservationOK = false }},
		{"unattributed", func(p *CritPathPoint) { p.Unattributed = 7 }},
		{"congestion-dominated", func(p *CritPathPoint) { p.DominantClass = "congestion" }},
		{"no serialization link", func(p *CritPathPoint) { p.TopSerialization = nil }},
		{"faulted clean", func(p *CritPathPoint) { *p = faulted }},
		{"faulted all trees lost", func(p *CritPathPoint) { *p = CritPathPoint{Faulted: true, AllTreesLost: true} }},
		{"faulted blame mismatch", func(p *CritPathPoint) { *p = faulted; p.RecoveryBlameCycles = 41 }},
		{"faulted rounds beyond measured", func(p *CritPathPoint) { *p = faulted; p.RecoveriesOnPath = 2 }},
		{"faulted traversed rounds", func(p *CritPathPoint) {
			*p = faulted
			p.RecoveriesMeasured, p.RecoveryRounds = 2, []int{0}
		}},
		{"faulted blame backstop", func(p *CritPathPoint) {
			*p = faulted
			p.RecoveriesMeasured, p.RecoveryBlameCycles = 2, 50
		}},
	}
	for _, c := range crit {
		pt := clean
		c.mut(&pt)
		fails := CritPathFailures([]CritPathPoint{pt})
		if len(fails) > 1 {
			t.Fatalf("critpath %s: %d failures, want at most one: %v", c.name, len(fails), fails)
		}
		ok := okCell(t, &Snapshot{Label: "t", CritPath: []CritPathPoint{pt}}, WriteCritPathMarkdown)
		if (ok == "**NO**") != (len(fails) == 1) {
			t.Errorf("critpath %s: ok column %q, gate failures %v", c.name, ok, fails)
		}
	}

	recovered := DegradedPoint{Q: 3, Embedding: "low-depth", Trees: 3, FailedLink: [2]int{0, 1}, FailAt: 10,
		DeadTrees: []int{0}, RecoveryCycle: 20, PredictedBW: 1, MeasuredBW: 1, Within: true, OutputsOK: true}
	deg := []struct {
		name string
		mut  func(*DegradedPoint)
	}{
		{"clean", func(*DegradedPoint) {}},
		{"all trees lost", func(p *DegradedPoint) { *p = DegradedPoint{AllTreesLost: true, Within: true} }},
		{"wrong outputs", func(p *DegradedPoint) { p.OutputsOK = false }},
		{"no recovery", func(p *DegradedPoint) { p.RecoveryCycle = 0 }},
		{"outside tolerance", func(p *DegradedPoint) { p.MeasuredBW, p.RelErr, p.Within = 0.5, -0.5, false }},
	}
	for _, c := range deg {
		pt := recovered
		c.mut(&pt)
		fails := DegradedFailures([]DegradedPoint{pt})
		if len(fails) > 1 {
			t.Fatalf("degraded %s: %d failures, want at most one: %v", c.name, len(fails), fails)
		}
		ok := okCell(t, &Snapshot{Label: "t", Degraded: []DegradedPoint{pt}}, WriteDegradedMarkdown)
		if (ok == "**NO**") != (len(fails) == 1) {
			t.Errorf("degraded %s: ok column %q, gate failures %v", c.name, ok, fails)
		}
	}
}
