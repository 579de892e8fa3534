package perf

import (
	"fmt"
	"io"
	"strings"
)

// This file renders snapshots and comparisons as GitHub-flavoured
// markdown tables — the human-readable companion of the BENCH_*.json
// artifacts.

func writeRow(w io.Writer, cells ...string) error {
	_, err := fmt.Fprintf(w, "| %s |\n", strings.Join(cells, " | "))
	return err
}

func writeRule(w io.Writer, n int) error {
	cells := make([]string, n)
	for i := range cells {
		cells[i] = "---"
	}
	return writeRow(w, cells...)
}

// WriteBenchMarkdown renders a bench snapshot as one table row per
// benchmark, with the standard units as columns and the run-to-run
// spread of ns/op as the noise column.
func WriteBenchMarkdown(w io.Writer, s *Snapshot) error {
	if _, err := fmt.Fprintf(w, "### Benchmarks — %s\n\n", s.Label); err != nil {
		return err
	}
	if len(s.Failed) > 0 {
		if _, err := fmt.Fprintf(w, "**FAILED:** %s\n\n", strings.Join(s.Failed, ", ")); err != nil {
			return err
		}
	}
	if err := writeRow(w, "benchmark", "runs", "ns/op (median)", "B/op", "allocs/op", "spread"); err != nil {
		return err
	}
	if err := writeRule(w, 6); err != nil {
		return err
	}
	for _, b := range s.Benchmarks {
		ns, bop, allocs, spread := "-", "-", "-", "-"
		if m, ok := b.Metric("ns/op"); ok {
			ns = formatValue(m.Median)
			spread = fmt.Sprintf("%.1f%%", 100*m.Spread)
		}
		if m, ok := b.Metric("B/op"); ok {
			bop = formatValue(m.Median)
		}
		if m, ok := b.Metric("allocs/op"); ok {
			allocs = formatValue(m.Median)
		}
		if err := writeRow(w, b.Name, fmt.Sprintf("%d", b.Runs), ns, bop, allocs, spread); err != nil {
			return err
		}
	}
	return nil
}

// WriteCompareMarkdown renders a comparison, regressions first.
func WriteCompareMarkdown(w io.Writer, c *Comparison) error {
	if _, err := fmt.Fprintf(w, "### Benchmark comparison — %s → %s (threshold %.0f%%)\n\n",
		c.OldLabel, c.NewLabel, 100*c.Threshold); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%d regression(s), %d improvement(s), %d added, %d removed\n\n",
		c.Regressions, c.Improvements, c.Added, c.Removed); err != nil {
		return err
	}
	if err := writeRow(w, "benchmark", "unit", "old", "new", "delta", "verdict"); err != nil {
		return err
	}
	if err := writeRule(w, 6); err != nil {
		return err
	}
	// Two passes: gating regressions first so they are impossible to miss,
	// then everything else in snapshot order.
	for pass := 0; pass < 2; pass++ {
		for _, d := range c.Deltas {
			isReg := d.Kind == DeltaRegression && d.Gating
			if (pass == 0) != isReg {
				continue
			}
			verdict := d.KindName
			if isReg {
				verdict = "**" + verdict + "**"
			}
			oldS, newS, rel := "-", "-", "-"
			if d.Kind != DeltaAdded && d.Kind != DeltaRemoved {
				oldS, newS = formatValue(d.Old), formatValue(d.New)
				rel = fmt.Sprintf("%+.1f%%", 100*d.Rel)
				if d.Old <= 0 && d.New > 0 {
					rel = "from 0"
				}
			}
			if err := writeRow(w, d.Name, d.Unit, oldS, newS, rel, verdict); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteScorecardMarkdown renders the measured-vs-model scorecard.
func WriteScorecardMarkdown(w io.Writer, s *Snapshot) error {
	if _, err := fmt.Fprintf(w, "### Measured-vs-model scorecard — %s\n\n", s.Label); err != nil {
		return err
	}
	if cfg := s.ScorecardConfig; cfg != nil {
		if _, err := fmt.Fprintf(w, "m=%d, link latency=%d, VC depth=%d, tolerance=%.0f%%\n\n",
			cfg.M, cfg.LinkLatency, cfg.VCDepth, 100*cfg.Tolerance); err != nil {
			return err
		}
	}
	if err := writeRow(w, "q", "embedding", "trees", "model B", "measured B",
		"err", "bound", "meets", "util err", "red/bc cycles"); err != nil {
		return err
	}
	if err := writeRule(w, 10); err != nil {
		return err
	}
	for _, pt := range s.Scorecard {
		meets := "yes"
		if !pt.MeetsBound {
			meets = "**NO**"
		}
		if err := writeRow(w,
			fmt.Sprintf("%d", pt.Q), pt.Embedding, fmt.Sprintf("%d", pt.Trees),
			fmt.Sprintf("%.3f", pt.ModelBW), fmt.Sprintf("%.3f", pt.MeasuredBW),
			fmt.Sprintf("%+.2f%%", 100*pt.BWRelErr),
			fmt.Sprintf("%.2f (%s)", pt.Bound, pt.BoundName), meets,
			fmt.Sprintf("%+.2f%%", 100*pt.UtilRelErr),
			fmt.Sprintf("%d/%d", pt.ReducePhaseCycles, pt.BcastPhaseCycles),
		); err != nil {
			return err
		}
	}
	return nil
}

// formatValue renders a metric value compactly: integers without a
// decimal point, everything else with three significant decimals.
func formatValue(v float64) string {
	if v >= 1000 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.3g", v)
}
