package bandwidth

import (
	"testing"

	"polarfly/internal/er"
	"polarfly/internal/singer"
	"polarfly/internal/trees"
)

// TestQ127ModelGate evaluates Algorithm 1 at the paper's largest order,
// q=127 (N=16257, 1040384 links): the low-depth forest must reach exactly
// q·B/2 = 63.5 at congestion 2 (Theorem 7.6 / Corollary 7.7) and the
// Hamiltonian forest exactly ⌊(q+1)/2⌋·B = 64 at congestion 1 (Theorem
// 7.19). Both aggregates are sums of halves and ones, so they are exact
// in float64. Skipped under -short: building the two forests dominates
// its few seconds.
func TestQ127ModelGate(t *testing.T) {
	if testing.Short() {
		t.Skip("q=127 forests take seconds to build")
	}
	const q = 127
	pg, err := er.New(q)
	if err != nil {
		t.Fatal(err)
	}
	l, err := er.NewLayout(pg, -1)
	if err != nil {
		t.Fatal(err)
	}
	low, err := trees.LowDepthForest(l)
	if err != nil {
		t.Fatal(err)
	}
	s, err := singer.New(q)
	if err != nil {
		t.Fatal(err)
	}
	ham, err := trees.HamiltonianForest(s, 30, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		forest    []*trees.Tree
		aggregate float64
		cong      int
	}{
		{"low-depth", low, 63.5, 2},
		{"hamiltonian", ham, 64, 1},
	} {
		r := ForForest(c.forest, 1.0)
		if r.Aggregate != c.aggregate || r.MaxCongestion != c.cong {
			t.Errorf("q=%d %s: aggregate %v at congestion %d, want exactly %v at %d",
				q, c.name, r.Aggregate, r.MaxCongestion, c.aggregate, c.cong)
		}
	}
}
