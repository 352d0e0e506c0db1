package par

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sematype/pythagoras/internal/obs"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		for _, n := range []int{0, 1, 5, 100} {
			hits := make([]atomic.Int32, max(n, 1))
			err := For(context.Background(), workers, n, func(i int) error {
				hits[i].Add(1)
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for i := 0; i < n; i++ {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

func TestForFirstErrorWins(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int32
	err := For(context.Background(), 4, 100, func(i int) error {
		ran.Add(1)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	// Drain semantics: after the failure no new work starts; with 4 workers
	// at most a handful of in-flight items complete.
	if ran.Load() == 100 {
		t.Fatal("error did not stop the loop early")
	}
}

func TestForSerialErrorStops(t *testing.T) {
	boom := errors.New("boom")
	var ran int
	err := For(context.Background(), 1, 10, func(i int) error {
		ran++
		if i == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || ran != 3 {
		t.Fatalf("err=%v ran=%d, want boom after 3", err, ran)
	}
}

func TestForCancellationDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started, finished atomic.Int32
	err := For(ctx, 4, 100, func(i int) error {
		started.Add(1)
		if i == 0 {
			cancel()
		}
		time.Sleep(time.Millisecond)
		finished.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Every started item drained to completion — For returns only after all
	// workers park, never abandoning an in-flight fn.
	if s, f := started.Load(), finished.Load(); s != f {
		t.Fatalf("started %d but finished %d", s, f)
	}
	if started.Load() == 100 {
		t.Fatal("cancellation did not stop the loop early")
	}
}

func TestForPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	err := For(ctx, 4, 10, func(i int) error { ran.Add(1); return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d items ran under a pre-cancelled context", ran.Load())
	}
}

// TestBoundsProperties checks the partition: contiguous, complete, capped
// at maxChunk, and the chunk count.
func TestBoundsProperties(t *testing.T) {
	for _, tc := range []struct{ n, workers, maxChunk, chunks int }{
		{0, 4, 16, 0},   // empty input
		{1, 4, 16, 1},   // one table
		{5, 4, 16, 3},   // chunks of ceil(5/4) = 2
		{100, 4, 16, 7}, // maxChunk caps the even split of 25
		{100, 4, 3, 34}, // a small cap
		{16, 16, 1, 16}, // one item per chunk
		{7, 1, 0, 1},    // no cap: one whole-input chunk
		{10, 0, -1, 1},  // workers < 1 counts as one
		{16, 1, 16, 1},  // one worker: a single whole-input union
		{16, 4, 16, 4},  // spread across the pool
		{16, 4, 3, 6},   // maxChunk caps the chunk size
		{5, 8, 16, 5},   // more workers than items: one item per chunk
	} {
		bounds := Bounds(tc.n, tc.workers, tc.maxChunk)
		if len(bounds) != tc.chunks {
			t.Fatalf("Bounds(%v): %d chunks, want %d", tc, len(bounds), tc.chunks)
		}
		at := 0
		for _, b := range bounds {
			if b[0] != at || b[1] <= b[0] {
				t.Fatalf("Bounds(%v): bad chunk %v at %d", tc, b, at)
			}
			if tc.maxChunk >= 1 && b[1]-b[0] > tc.maxChunk {
				t.Fatalf("Bounds(%v): chunk %v exceeds maxChunk", tc, b)
			}
			at = b[1]
		}
		if at != tc.n {
			t.Fatalf("Bounds(%v): covered %d of %d", tc, at, tc.n)
		}
	}
}

func TestBoundsDeterministic(t *testing.T) {
	a := Bounds(97, 8, 16)
	b := Bounds(97, 8, 16)
	if len(a) != len(b) {
		t.Fatal("length differs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("bounds differ across calls")
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestBusyWorkerTracking: the process-wide busy counter rises inside For
// bodies and drains to zero after, on both the serial and parallel paths.
func TestBusyWorkerTracking(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var peak atomic.Int64
		err := For(context.Background(), workers, 16, func(i int) error {
			b := int64(Busy())
			for {
				p := peak.Load()
				if b <= p || peak.CompareAndSwap(p, b) {
					break
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if peak.Load() < 1 {
			t.Fatalf("workers=%d: busy never observed ≥ 1", workers)
		}
		if Busy() != 0 {
			t.Fatalf("workers=%d: busy = %d after drain, want 0", workers, Busy())
		}
	}
}

func TestRegisterMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	RegisterMetrics(reg)
	s := reg.Snapshot()
	if _, ok := s.Gauges["par.workers.busy"]; !ok {
		t.Fatal("par.workers.busy not registered")
	}
	if u, ok := s.Gauges["par.workers.utilization"]; !ok || u < 0 {
		t.Fatalf("par.workers.utilization = %v, registered %v", u, ok)
	}
	RegisterMetrics(nil) // nil-safe
}

// TestForWorkerPanicSurfacesOnCaller pins the worker path to the serial
// path's behaviour: a panic in fn reaches the caller of For (where a
// server's recover answers 500) instead of killing the process from a
// worker goroutine, and For re-raises it only once every worker has parked.
func TestForWorkerPanicSurfacesOnCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	busyBefore := Busy()
	var inFlight, started atomic.Int32
	var got any
	func() {
		defer func() { got = recover() }()
		_ = For(context.Background(), 4, 1000, func(i int) error {
			started.Add(1)
			inFlight.Add(1)
			defer inFlight.Add(-1)
			if i == 5 {
				panic("boom at 5")
			}
			time.Sleep(100 * time.Microsecond)
			return nil
		})
		t.Error("For returned instead of panicking")
	}()
	err, ok := got.(error)
	if !ok {
		t.Fatalf("recovered %T %v, want an error", got, got)
	}
	if msg := err.Error(); !strings.Contains(msg, "boom at 5") ||
		!strings.Contains(msg, "TestForWorkerPanicSurfacesOnCaller") {
		t.Fatalf("panic value lacks the worker's value and stack:\n%s", msg)
	}
	if n := inFlight.Load(); n != 0 {
		t.Fatalf("%d calls of fn still running after For panicked", n)
	}
	if n := started.Load(); n == 1000 {
		t.Fatal("the panic did not stop the loop early")
	}
	if b := Busy(); b != busyBefore {
		t.Fatalf("Busy() = %d after the panic, want %d", b, busyBefore)
	}
	// Parked workers have returned from their last wg.Done; give the
	// scheduler a moment to retire them before counting.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running, %d before For", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
	started.Store(0)
	time.Sleep(10 * time.Millisecond)
	if n := started.Load(); n != 0 {
		t.Fatalf("fn ran %d more times after For panicked", n)
	}
}

func TestForSerialPanicKeepsBusyCount(t *testing.T) {
	busyBefore := Busy()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("serial For swallowed the panic")
			}
		}()
		_ = For(context.Background(), 1, 3, func(i int) error { panic("serial boom") })
	}()
	if b := Busy(); b != busyBefore {
		t.Fatalf("Busy() = %d after a serial panic, want %d", b, busyBefore)
	}
}
