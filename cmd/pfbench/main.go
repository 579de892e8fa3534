// pfbench is the repository benchmark. One invocation measures one
// workload for a fixed number of seconds and prints, as its last line, a
// JSON object with the outputs' correctness, the operations attempted and
// failed, and either the end-to-end metrics (-trace 0) or the per-layer
// ledger of a traced run (-trace 1). Without -workload it runs every
// workload -runs times in child processes, interleaved round-robin, and
// summarises them; -compare reads two such summaries.
//
// Usage, from the repository root:
//
//	bash cmd/pfbench/run.sh --workload sim-q31 --seed 1 --seconds 20 --trace 0
//	bash cmd/pfbench/run.sh -runs 5 -seconds 20 -trace 1 -out set1.json
//	bash cmd/pfbench/run.sh -compare set1.json set2.json
//
// The metric names, units and regression bounds are in BENCHMARK.json; the
// workloads and the ledger are described in README.md next to this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"syscall"
	"time"
)

// setupReps is how many times a run builds its workload; setup_s is the
// median.
const setupReps = 5

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workers is the pool size of the parallel workloads: two, or fewer on a
// smaller machine.
func workers() int { return min(2, runtime.NumCPU()) }

// run is main with injectable streams so tests can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this workload once; empty runs every workload -runs times")
	seed := fs.Int64("seed", 42, "workload seed (the suite uses seed, seed+1, … for its rounds)")
	secs := fs.Float64("seconds", 20, "seconds a run repeats its measured operation")
	trace := fs.Int("trace", 0, "1 reports the per-layer ledger of a traced run instead of the end-to-end metrics")
	smoke := fs.Bool("smoke", false, "shrink every workload to q ≤ 7 for a quick check")
	runs := fs.Int("runs", 5, "suite: untraced runs per workload")
	out := fs.String("out", "", "suite: write the summary JSON to this file")
	cmp := fs.Bool("compare", false, "compare two suite summaries: -compare A.json B.json")
	benchFile := fs.String("bench", "BENCHMARK.json", "compare: the benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "pfbench: -trace %d, want 0 or 1\n", *trace)
		return 2
	}
	switch {
	case *cmp:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "pfbench: -compare needs two summary files")
			return 2
		}
		return compare(fs.Arg(0), fs.Arg(1), *benchFile, stdout, stderr)
	case *name == "":
		if *runs < 1 {
			fmt.Fprintf(stderr, "pfbench: -runs %d, want ≥ 1\n", *runs)
			return 2
		}
		return suite(suiteConfig{seed: *seed, seconds: *secs, runs: *runs, trace: *trace == 1,
			smoke: *smoke, out: *out}, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "pfbench: unknown workload %q\n", *name)
		return 2
	}
	res, err := measure(w, *seed, *secs, *trace == 1, *smoke, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "pfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, k := range res.names() {
		fmt.Fprintf(stdout, "%-28s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "pfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the JSON object one run prints as its last line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// names lists the result's metrics in BENCHMARK.json order.
func (r *result) names() []string {
	var out []string
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if _, ok := r.Metrics[m.name]; ok {
			out = append(out, m.name)
		}
	}
	return out
}

// measure makes one run of w. Untraced, it sets up setupReps times and
// then repeats the operation for secs seconds, at least once, timing the
// probe before each; the end-to-end times are medians scaled by the
// probe. Traced, it alternates an untraced and a traced iteration (set-up
// plus operation) for secs seconds, at least one of each; the ledger
// comes from the traced iterations and the overhead from comparing the
// two kinds.
func measure(w workloadSpec, seed int64, secs float64, traced, smoke bool, stdout, stderr io.Writer) (*result, error) {
	var t tally
	vals := make(map[string]float64)
	if !traced {
		pr := newProbe()
		var b bench
		var setups, ops, alus, chases []float64
		probe := func() {
			alu, chase := pr.run()
			alus, chases = append(alus, alu), append(chases, chase)
		}
		for i := 0; i < setupReps; i++ {
			b = w.build(seed, smoke)
			runtime.GC()
			probe()
			var err error
			setups = append(setups, seconds(func() { err = b.setup(nil, &t) }))
			if err != nil {
				return nil, err
			}
		}
		for start := time.Now(); len(ops) == 0 || time.Since(start).Seconds() < secs; {
			runtime.GC()
			probe()
			ops = append(ops, seconds(func() { b.op(nil, &t) }))
		}
		scale := aluRef / median(alus) * chaseRef / median(chases)
		vals["wall_s"] = median(ops) * scale
		vals["setup_s"] = median(setups) * scale
		fmt.Fprintf(stdout, "%d operations; unscaled medians: wall %.4g s, setup %.4g s; probe: alu %.4g s, chase %.4g s\n",
			len(ops), median(ops), median(setups), median(alus), median(chases))
	} else {
		var plain, tracedSecs []float64
		var ls []*ledger
		iterate := func(tr *ledger) (float64, error) {
			b := w.build(seed, smoke)
			runtime.GC()
			var err error
			d := seconds(func() {
				if err = b.setup(tr, &t); err == nil {
					b.op(tr, &t)
				}
			})
			return d, err
		}
		for start := time.Now(); len(ls) == 0 || time.Since(start).Seconds() < secs; {
			// Alternate which kind goes first, so that neither always
			// pays the first iteration's cold start.
			for _, tr := range [2]bool{len(ls)%2 == 1, len(ls)%2 == 0} {
				var l *ledger
				if tr {
					l = newLedger()
				}
				d, err := iterate(l)
				if err != nil {
					return nil, err
				}
				if !tr {
					plain = append(plain, d)
					continue
				}
				tracedSecs = append(tracedSecs, d-l.ref)
				ls = append(ls, l)
			}
		}
		vals = layerMetrics(ls, median(tracedSecs)/median(plain)-1, workers())
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	if !traced {
		vals["peak_rss_mb"] = rss
	}
	fails := []string(nil)
	if rss > w.ceilingMB {
		fails = append(fails, fmt.Sprintf("peak RSS %.1f MB above the %.0f MB ceiling", rss, w.ceilingMB))
	}
	t.check("memory ceiling", fails...)
	for _, e := range t.errs {
		fmt.Fprintf(stderr, "pfbench: %s: %s\n", w.name, e)
	}

	res := &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: make(map[string]value)}
	ms := endToEnd
	if traced {
		ms = perLayer
	}
	for _, m := range ms {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.name, v)
		}
		res.Metrics[m.name] = value{Value: v, Unit: m.unit}
	}
	return res, nil
}

// peakRSSMB is the process's peak resident set in MB: getrusage's
// ru_maxrss, which Linux reports in KiB and which equals VmHWM.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return float64(ru.Maxrss) * 1024 / 1e6, nil
}
