package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

type suiteConfig struct {
	seed    int64
	seconds float64
	runs    int
	trace   bool
	smoke   bool
	out     string
}

// summary is what -out writes and -compare reads.
type summary struct {
	Seed      int64             `json:"seed"`
	Runs      int               `json:"runs"`
	Seconds   float64           `json:"seconds"`
	Workloads []workloadSummary `json:"workloads"`
}

type workloadSummary struct {
	Name      string          `json:"name"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Metrics   []metricSummary `json:"metrics"`
	// Layers is the ledger of the one traced run, when -trace 1.
	Layers map[string]value `json:"layers,omitempty"`
}

type metricSummary struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
}

// suite runs every workload cfg.runs times, one child process at a time
// and round-robin across workloads so that drift in the machine's speed
// hits each alike; round r uses seed cfg.seed+r. With cfg.trace it then
// makes one traced run per workload. It prints the summary, writes it to
// cfg.out if set, and fails if any run did.
func suite(cfg suiteConfig, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "pfbench: %v\n", err)
		return 1
	}
	ok := true
	runs := make([][]*result, len(workloads))
	for r := 0; r < cfg.runs; r++ {
		for i, w := range workloads {
			res, err := child(exe, w.name, cfg.seed+int64(r), cfg, false, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "pfbench: %v\n", err)
				ok = false
				continue
			}
			runs[i] = append(runs[i], res)
		}
	}
	sum := summary{Seed: cfg.seed, Runs: cfg.runs, Seconds: cfg.seconds}
	for i, w := range workloads {
		ws := workloadSummary{Name: w.name}
		for _, res := range runs[i] {
			ws.Attempted += res.Attempted
			ws.Failed += res.Failed
			ok = ok && res.Correct
		}
		for _, m := range endToEnd {
			var vs []float64
			for _, res := range runs[i] {
				vs = append(vs, res.Metrics[m.name].Value)
			}
			ws.Metrics = append(ws.Metrics, summarize(m, vs))
		}
		if cfg.trace {
			res, err := child(exe, w.name, cfg.seed, cfg, true, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "pfbench: %v\n", err)
				ok = false
			} else {
				ws.Attempted += res.Attempted
				ws.Failed += res.Failed
				ok = ok && res.Correct
				ws.Layers = res.Metrics
			}
		}
		sum.Workloads = append(sum.Workloads, ws)
	}
	printSummary(stdout, &sum)
	if cfg.out != "" {
		data, err := json.MarshalIndent(&sum, "", "  ")
		if err == nil {
			err = os.WriteFile(cfg.out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "pfbench: %v\n", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// child runs one workload in a fresh process of this binary and returns
// the result it printed last, also when that result reports a failure.
func child(exe, name string, seed int64, cfg suiteConfig, trace bool, stderr io.Writer) (*result, error) {
	args := []string{"--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", "0"}
	if trace {
		args[len(args)-1] = "1"
	}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s seed %d: %w", name, seed, runErr)
		}
		return nil, fmt.Errorf("%s seed %d: no result: %w", name, seed, err)
	}
	return &res, nil
}

func summarize(m metric, vs []float64) metricSummary {
	s := metricSummary{Name: m.name, Unit: m.unit, Values: vs, N: len(vs)}
	if len(vs) == 0 {
		return s
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	s.Median = median(sorted)
	s.Q1, s.Q3 = quartiles(sorted)
	return s
}

// quartiles are the first and third quartiles of sorted data by the
// exclusive method, as Python's statistics.quantiles(data, n=4) gives them.
func quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	if n == 1 {
		return sorted[0], sorted[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range as a share of the median.
func (s metricSummary) spread() float64 {
	if s.Median <= 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

func printSummary(w io.Writer, s *summary) {
	fmt.Fprintf(w, "%-12s %-12s %12s %12s %12s %12s %4s %-5s %s\n",
		"workload", "metric", "median", "min", "max", "iqr/median", "n", "unit", "ops failed/attempted")
	for _, ws := range s.Workloads {
		for _, m := range ws.Metrics {
			fmt.Fprintf(w, "%-12s %-12s %12.6g %12.6g %12.6g %12.4f %4d %-5s %d/%d\n",
				ws.Name, m.Name, m.Median, m.Min, m.Max, m.spread(), m.N, m.Unit, ws.Failed, ws.Attempted)
		}
		for _, m := range perLayer {
			if v, ok := ws.Layers[m.name]; ok {
				fmt.Fprintf(w, "%-12s   %-28s %14.6g %s\n", ws.Name, m.name, v.Value, v.Unit)
			}
		}
	}
}

// benchDef is the part of BENCHMARK.json -compare needs.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compare prints, per workload and end-to-end metric, both medians and
// spreads, their ratio and a verdict, and fails if any metric got worse.
func compare(pathA, pathB, benchPath string, stdout, stderr io.Writer) int {
	var a, b summary
	var def benchDef
	for _, f := range []struct {
		path string
		into any
	}{{pathA, &a}, {pathB, &b}, {benchPath, &def}} {
		data, err := os.ReadFile(f.path)
		if err == nil {
			err = json.Unmarshal(data, f.into)
		}
		if err != nil {
			fmt.Fprintf(stderr, "pfbench: %v\n", err)
			return 2
		}
	}
	fmt.Fprintf(stdout, "%-12s %-12s %12s %8s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "iqr A", "median B", "iqr B", "B/A", "bound", "verdict")
	worse := false
	for _, wa := range a.Workloads {
		wb, ok := findSummary(b.Workloads, wa.Name)
		if !ok {
			fmt.Fprintf(stdout, "%-12s missing from %s\n", wa.Name, pathB)
			worse = true
			continue
		}
		for _, d := range def.EndToEnd {
			ma, okA := findMetric(wa.Metrics, d.Name)
			mb, okB := findMetric(wb.Metrics, d.Name)
			if !okA || !okB || ma.Median <= 0 {
				fmt.Fprintf(stdout, "%-12s %-12s missing\n", wa.Name, d.Name)
				worse = true
				continue
			}
			v := verdict(ma, mb, d.Better, d.Bound)
			worse = worse || v == "worse"
			fmt.Fprintf(stdout, "%-12s %-12s %12.6g %8.4f %12.6g %8.4f %8.4f %6.3f  %s\n",
				wa.Name, d.Name, ma.Median, ma.spread(), mb.Median, mb.spread(), mb.Median/ma.Median, d.Bound, v)
		}
	}
	if worse {
		return 1
	}
	return 0
}

// verdict judges B against A: ok when every run of B reads better than
// every run of A; otherwise unresolved when either side's spread is wider
// than the bound, worse when B's median is worse than A's by more than
// the bound, and ok else.
func verdict(a, b metricSummary, better string, bound float64) string {
	change := (b.Median - a.Median) / a.Median
	allBetter := b.Max < a.Min
	if better == "higher" {
		change, allBetter = -change, b.Min > a.Max
	}
	switch {
	case allBetter:
		return "ok"
	case max(a.spread(), b.spread()) > bound:
		return "unresolved"
	case change > bound:
		return "worse"
	}
	return "ok"
}

func findSummary(ws []workloadSummary, name string) (workloadSummary, bool) {
	for _, w := range ws {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSummary{}, false
}

func findMetric(ms []metricSummary, name string) (metricSummary, bool) {
	for _, m := range ms {
		if m.Name == name {
			return m, true
		}
	}
	return metricSummary{}, false
}
