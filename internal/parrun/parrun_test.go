package parrun

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestMapOrder checks the ordered-commit contract: regardless of worker
// count, results land at the input index. Workers yield between steps to
// shake up the schedule.
func TestMapOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		got, err := Map(workers, 100, func(i int) (int, error) {
			for k := 0; k < i%7; k++ {
				runtime.Gosched()
			}
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 100 {
			t.Fatalf("workers=%d: got %d results, want 100", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestMapSerialParallelIdentical runs the same jobs serially and with a
// pool and requires identical result slices — the property every caller
// (scorecard, sweep) relies on for byte-identical output.
func TestMapSerialParallelIdentical(t *testing.T) {
	job := func(i int) (string, error) {
		return fmt.Sprintf("row-%03d", i*13%97), nil
	}
	serial, err := Map(1, 64, job)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Map(8, 64, job)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("index %d: serial %q != parallel %q", i, serial[i], parallel[i])
		}
	}
}

// TestMapFirstErrorWins checks that the reported error is the
// lowest-indexed failure — the one a serial loop would stop on — not
// whichever worker happened to fail first in wall-clock order.
func TestMapFirstErrorWins(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	for _, workers := range []int{1, 4} {
		_, err := Map(workers, 20, func(i int) (int, error) {
			switch i {
			case 3:
				return 0, errLow
			case 17:
				return 0, errHigh
			}
			return i, nil
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("workers=%d: got %v, want %v", workers, err, errLow)
		}
	}
}

// TestMapPoolBounded checks the pool really is fixed-size: concurrent
// job executions never exceed the requested worker count.
func TestMapPoolBounded(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int32
	_, err := Map(workers, 50, func(i int) (int, error) {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		runtime.Gosched()
		inFlight.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent jobs, pool size is %d", p, workers)
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(4, 0, func(i int) (int, error) { return i, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v; want empty, nil", got, err)
	}
}

// TestWorkersDefault checks the -parallel flag normalisation: values
// below 1 mean GOMAXPROCS, everything else passes through.
func TestWorkersDefault(t *testing.T) {
	if got, want := Workers(0), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Workers(0) = %d, want %d", got, want)
	}
	if got, want := Workers(-3), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Workers(-3) = %d, want %d", got, want)
	}
	if got := Workers(5); got != 5 {
		t.Fatalf("Workers(5) = %d, want 5", got)
	}
}

func TestMapWorkerOwnsItsSlot(t *testing.T) {
	for _, workers := range []int{1, 3} {
		// Each worker keeps a running count in its own slot; a slot shared
		// by two jobs at once would lose updates (and trip -race).
		slots := make([]int, workers)
		got, err := MapWorker(workers, 60, func(w, i int) (int, error) {
			if w < 0 || w >= workers {
				return 0, fmt.Errorf("job %d ran on worker %d of %d", i, w, workers)
			}
			c := slots[w]
			runtime.Gosched()
			slots[w] = c + 1
			return 2 * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		total := 0
		for _, c := range slots {
			total += c
		}
		if total != 60 {
			t.Fatalf("workers=%d: slots counted %d jobs, want 60", workers, total)
		}
		for i, v := range got {
			if v != 2*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, 2*i)
			}
		}
	}
}
