package netsim

import (
	"strings"
	"testing"

	"polarfly/internal/faults"
)

// TestValidateSampling is the table-driven contract for the hoisted
// sampling-window validation: bad (SampleEvery, Sample) combinations are
// rejected by Config.validate with a clear error before any simulation
// state is built.
func TestValidateSampling(t *testing.T) {
	hook := func(*SampleFrame) {}
	cases := []struct {
		name        string
		sampleEvery int
		sample      func(*SampleFrame)
		wantErr     string // substring; empty means the config is accepted
	}{
		{name: "disabled", sampleEvery: 0, sample: nil},
		{name: "enabled", sampleEvery: 64, sample: hook},
		{name: "window of one", sampleEvery: 1, sample: hook},
		{name: "negative window", sampleEvery: -1, sample: nil,
			wantErr: "SampleEvery must be ≥ 0"},
		{name: "negative window with hook", sampleEvery: -8, sample: hook,
			wantErr: "SampleEvery must be ≥ 0"},
		{name: "hook without window", sampleEvery: 0, sample: hook,
			wantErr: "Sample hook requires a sampling window"},
		{name: "window without hook", sampleEvery: 16, sample: nil,
			wantErr: "without a Sample hook"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{LinkLatency: 1, VCDepth: 2,
				SampleEvery: tc.sampleEvery, Sample: tc.sample}
			err := cfg.validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validate() accepted SampleEvery=%d sample=%v", tc.sampleEvery, tc.sample != nil)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validate() = %q, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// copyFrames is a Sample hook that deep-copies every frame, since the
// simulator reuses the frame and its Links slice between calls.
type frameLog struct {
	frames []SampleFrame
}

func (fl *frameLog) hook(fr *SampleFrame) {
	cp := *fr
	cp.Links = append([]LinkCounters(nil), fr.Links...)
	fl.frames = append(fl.frames, cp)
}

// TestSampleFrames pins the sampling contract on a fault-free ring run:
// frames arrive at every SampleEvery boundary plus one final frame, the
// counters are cumulative and monotonic, the final frame reconciles
// exactly against the Result, and enabling sampling does not perturb the
// simulation (same cycles, flits, outputs).
func TestSampleFrames(t *testing.T) {
	spec := lineSpec(t, 8, 64)
	base, err := Run(spec, Config{LinkLatency: 2, VCDepth: 4})
	if err != nil {
		t.Fatal(err)
	}

	const every = 10
	var log frameLog
	res, err := Run(spec, Config{LinkLatency: 2, VCDepth: 4,
		SampleEvery: every, Sample: log.hook})
	if err != nil {
		t.Fatal(err)
	}

	if res.Cycles != base.Cycles || res.FlitsSent != base.FlitsSent {
		t.Fatalf("sampling perturbed the run: cycles %d vs %d, flits %d vs %d",
			res.Cycles, base.Cycles, res.FlitsSent, base.FlitsSent)
	}
	if len(log.frames) == 0 {
		t.Fatal("no frames delivered")
	}
	wantBoundary := res.Cycles / every
	if got := len(log.frames); got != wantBoundary+1 {
		t.Fatalf("got %d frames for %d cycles, want %d boundary + 1 final", got, res.Cycles, wantBoundary+1)
	}
	for i, fr := range log.frames[:len(log.frames)-1] {
		if fr.Final {
			t.Fatalf("frame %d marked final before the run ended", i)
		}
		if want := (i + 1) * every; fr.Cycle != want {
			t.Fatalf("frame %d at cycle %d, want %d", i, fr.Cycle, want)
		}
	}
	final := log.frames[len(log.frames)-1]
	if !final.Final || final.Cycle != res.Cycles {
		t.Fatalf("final frame = {Final:%v Cycle:%d}, want {true %d}", final.Final, final.Cycle, res.Cycles)
	}

	// Monotonic cumulative counters.
	for i := 1; i < len(log.frames); i++ {
		prev, cur := log.frames[i-1].Run, log.frames[i].Run
		if cur.FlitsSent < prev.FlitsSent || cur.Delivered < prev.Delivered ||
			cur.Dropped < prev.Dropped || cur.ReduceFlits < prev.ReduceFlits {
			t.Fatalf("counters regressed between frames %d and %d: %+v -> %+v", i-1, i, prev, cur)
		}
	}

	// The final frame reconciles exactly against the Result.
	if final.Run.FlitsSent != res.FlitsSent {
		t.Errorf("final FlitsSent %d, want %d", final.Run.FlitsSent, res.FlitsSent)
	}
	if final.Run.Dropped != res.DroppedFlits {
		t.Errorf("final Dropped %d, want %d", final.Run.Dropped, res.DroppedFlits)
	}
	if final.Run.PeakBufferFlits != res.PeakBufferFlits {
		t.Errorf("final PeakBufferFlits %d, want %d", final.Run.PeakBufferFlits, res.PeakBufferFlits)
	}
	if want := len(spec.Inputs) * spec.Split[0]; final.Run.Delivered != want {
		t.Errorf("final Delivered %d, want N*m = %d", final.Run.Delivered, want)
	}
	if final.Run.ReduceFlits+final.Run.BcastFlits != final.Run.FlitsSent {
		t.Errorf("phase split %d+%d != total %d",
			final.Run.ReduceFlits, final.Run.BcastFlits, final.Run.FlitsSent)
	}
	if final.Run.LastFaultCycle != -1 || final.Run.LastRecoverCycle != -1 {
		t.Errorf("fault gauges on a fault-free run: fault=%d recover=%d",
			final.Run.LastFaultCycle, final.Run.LastRecoverCycle)
	}
	if len(final.Links) != len(res.LinkStats) {
		t.Fatalf("%d sampled links, %d in LinkStats", len(final.Links), len(res.LinkStats))
	}
	for i, lc := range final.Links {
		ls := res.LinkStats[i]
		if lc.From != ls.From || lc.To != ls.To {
			t.Fatalf("link %d order mismatch: sampled %d->%d, stats %d->%d", i, lc.From, lc.To, ls.From, ls.To)
		}
		if lc.Flits != ls.Flits || lc.BusyCycles != ls.BusyCycles ||
			lc.StallCycles != ls.StallCycles || lc.Dropped != ls.Dropped ||
			lc.PeakBuffered != ls.PeakBufferFlits {
			t.Errorf("link %d->%d final counters %+v disagree with LinkStats %+v", lc.From, lc.To, lc, ls)
		}
		if lc.Buffered != 0 {
			t.Errorf("link %d->%d still buffered %d at the final frame", lc.From, lc.To, lc.Buffered)
		}
	}
}

// TestSampleFramesFaulted pins the fault gauges: on a deterministic
// link-down run the last-fault and last-recover gauges expose the exact
// activation and recovery cycles, matching the Result's recovery record.
func TestSampleFramesFaulted(t *testing.T) {
	// A multi-tree forest so a single link failure is survivable.
	spec, _ := buildPolarSpec(t, 5, 256, "lowdepth")
	var u, v int
	for w, p := range spec.Forest[0].Parent {
		if p >= 0 {
			u, v = w, p
			break
		}
	}
	plan := &faults.Plan{Faults: []faults.Fault{
		{Kind: faults.LinkDown, U: u, V: v, At: 40},
	}}

	var log frameLog
	res, err := Run(spec, Config{LinkLatency: 2, VCDepth: 4, Faults: plan,
		SampleEvery: 8, Sample: log.hook})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recoveries) == 0 {
		t.Fatal("no recovery happened; fault plan missed the forest")
	}
	final := log.frames[len(log.frames)-1].Run
	if final.LastFaultCycle != 40 {
		t.Errorf("LastFaultCycle = %d, want 40", final.LastFaultCycle)
	}
	if want := res.Recoveries[len(res.Recoveries)-1].Cycle; final.LastRecoverCycle != want {
		t.Errorf("LastRecoverCycle = %d, want %d", final.LastRecoverCycle, want)
	}
	if final.Recoveries != len(res.Recoveries) {
		t.Errorf("Recoveries = %d, want %d", final.Recoveries, len(res.Recoveries))
	}
	wantReissued := 0
	for _, r := range res.Recoveries {
		wantReissued += r.Reissued
	}
	if final.Reissued != wantReissued {
		t.Errorf("Reissued = %d, want %d", final.Reissued, wantReissued)
	}
	if final.Dropped != res.DroppedFlits {
		t.Errorf("Dropped = %d, want %d", final.Dropped, res.DroppedFlits)
	}
	// Per-link drop split sums to the run total.
	sum := 0
	for _, ls := range res.LinkStats {
		sum += ls.Dropped
	}
	if sum != res.DroppedFlits {
		t.Errorf("per-link Dropped sums to %d, want %d", sum, res.DroppedFlits)
	}
}
