package tsdb

import (
	"testing"

	"polarfly/internal/netsim"
)

// feedFrames drives a sampler with n synthetic base windows of
// SampleEvery cycles, one flit per link per window,
// then the final flush frame at the last boundary (zero duration, the
// shape netsim emits when the run ends exactly on a boundary).
func feedFrames(s *Sampler, sampleEvery, nlinks, n int) {
	fr := netsim.SampleFrame{Links: make([]netsim.LinkCounters, nlinks)}
	for i := range fr.Links {
		fr.Links[i].From, fr.Links[i].To = i, i+1
	}
	fr.Run.LastFaultCycle, fr.Run.LastRecoverCycle = -1, -1
	// The init frame: netsim samples cycle 0 so the sampler learns the
	// link set before any window elapses.
	s.Sample(&fr)
	for w := 1; w <= n; w++ {
		fr.Cycle = w * sampleEvery
		for i := range fr.Links {
			fr.Links[i].Flits++
		}
		fr.Run.FlitsSent += nlinks
		fr.Run.ReduceFlits += nlinks
		s.Sample(&fr)
	}
	fr.Final = true
	s.Sample(&fr)
}

// TestExactRingFill pins the ring boundary where the window count
// exactly fills a level: with Windows base windows closed, the ring
// holds its complete history (nothing evicted, nothing wrapped), and
// with Windows an exact multiple of Factor the cascade closes only
// full-group coarse windows — the end-of-run flush must not mint an
// extra partial from an empty accumulator.
func TestExactRingFill(t *testing.T) {
	const (
		sampleEvery = 4
		windows     = 8
		factor      = 4
		nlinks      = 3
	)
	s := newSampler(t, Config{SampleEvery: sampleEvery, Windows: windows, Levels: 3, Factor: factor})
	base := &baseTap{}
	base.attach(s)
	feedFrames(s, sampleEvery, nlinks, windows)

	if got := s.TotalWindows(0); got != windows {
		t.Fatalf("level 0 closed %d windows, want exactly %d", got, windows)
	}
	if got := s.Retained(0); got != windows {
		t.Fatalf("level 0 retains %d windows, want the full ring %d", got, windows)
	}
	if len(base.flits) != windows {
		t.Fatalf("hook saw %d base windows, want %d", len(base.flits), windows)
	}
	for i := 0; i < windows; i++ {
		run := s.Window(0, i)
		if run.Start != i*sampleEvery || run.End != (i+1)*sampleEvery {
			t.Errorf("window %d spans (%d, %d], want (%d, %d]",
				i, run.Start, run.End, i*sampleEvery, (i+1)*sampleEvery)
		}
		if run.Partial {
			t.Errorf("window %d marked partial; every base window was full length", i)
		}
		for li, f := range base.flits[i] {
			if f != 1 {
				t.Errorf("window %d link %d: flits=%d, want 1", i, li, f)
			}
		}
	}

	// windows/factor full groups and not one window more: a flush with an
	// empty accumulator must be a no-op at every coarser level.
	if got, want := s.TotalWindows(1), windows/factor; got != want {
		t.Fatalf("level 1 closed %d windows, want exactly %d full groups", got, want)
	}
	for i := 0; i < windows/factor; i++ {
		run := s.Window(1, i)
		if run.Partial {
			t.Errorf("level 1 window %d marked partial; it closed as a full Factor group", i)
		}
		if dur := run.End - run.Start; dur != factor*sampleEvery {
			t.Errorf("level 1 window %d covers %d cycles, want %d", i, dur, factor*sampleEvery)
		}
		if run.Flits != factor*nlinks {
			t.Errorf("level 1 window %d: %d flits, want %d", i, run.Flits, factor*nlinks)
		}
	}
	// Level 2 saw windows/factor = 2 children — less than a group — so
	// flush closes them as one partial window.
	if got := s.TotalWindows(2); got != 1 {
		t.Fatalf("level 2 closed %d windows, want 1 flushed partial", got)
	}
	if run := s.Window(2, 0); !run.Partial {
		t.Error("level 2 flush window not marked partial despite an incomplete group")
	}
}

// TestNonDivisibleRunLength pins the flush path when the base-window
// count does not divide by Factor: the leftover children close as a
// partial coarse window, and the level-1 series still accounts for every
// base window — full groups plus the flushed tail reconcile exactly
// against the run totals.
func TestNonDivisibleRunLength(t *testing.T) {
	const (
		sampleEvery = 4
		windows     = 32
		factor      = 4
		total       = 11 // 2 full groups of 4 + 3 leftover
		nlinks      = 2
	)
	s := newSampler(t, Config{SampleEvery: sampleEvery, Windows: windows, Levels: 2, Factor: factor})
	base := &baseTap{}
	base.attach(s)
	feedFrames(s, sampleEvery, nlinks, total)

	if got, want := s.TotalWindows(1), total/factor+1; got != want {
		t.Fatalf("level 1 closed %d windows, want %d full + 1 partial = %d", got, total/factor, want)
	}
	if len(base.flits) != total {
		t.Fatalf("hook saw %d base windows, want %d", len(base.flits), total)
	}
	flits := 0
	for i := 0; i < s.Retained(1); i++ {
		run := s.Window(1, i)
		last := i == s.Retained(1)-1
		if run.Partial != last {
			t.Errorf("level 1 window %d partial=%v, want %v (only the flushed tail is partial)",
				i, run.Partial, last)
		}
		wantDur := factor * sampleEvery
		if last {
			wantDur = (total % factor) * sampleEvery
		}
		if dur := run.End - run.Start; dur != wantDur {
			t.Errorf("level 1 window %d covers %d cycles, want %d", i, dur, wantDur)
		}
		// Each link's flit deltas over the window's base children sum to
		// its child count.
		wantFlits := factor
		if last {
			wantFlits = total % factor
		}
		for li := 0; li < nlinks; li++ {
			sum := 0
			for c := i * factor; c < min((i+1)*factor, total); c++ {
				sum += int(base.flits[c][li])
			}
			if sum != wantFlits {
				t.Errorf("level 1 window %d link %d: %d flits, want %d", i, li, sum, wantFlits)
			}
		}
		flits += run.Flits
	}
	if want := total * nlinks; flits != want {
		t.Errorf("level 1 windows sum to %d flits, run injected %d — the cascade lost flits", flits, want)
	}
	// Windows tile the run with no gap or overlap across the flush seam.
	for i := 1; i < s.Retained(1); i++ {
		prev := s.Window(1, i-1)
		cur := s.Window(1, i)
		if cur.Start != prev.End {
			t.Errorf("level 1 window %d starts at %d, previous ended at %d", i, cur.Start, prev.End)
		}
	}
}
