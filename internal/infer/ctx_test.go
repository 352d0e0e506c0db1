package infer

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/sematype/pythagoras/internal/core"
	"github.com/sematype/pythagoras/internal/faultinject"
)

// waitGoroutines polls until the goroutine count settles back to at most
// base+slack, failing the test if it never does — the leak detector for
// cancellation paths: a drained par.For must park every pool worker.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base+3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d, started with %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestNewClampsOptions: a nonsensical worker setting falls back to the
// default instead of wedging the pools.
func TestNewClampsOptions(t *testing.T) {
	e := New(nil, WithWorkers(-1))
	if e.workers < 1 {
		t.Fatalf("workers = %d", e.workers)
	}
}

func TestConfigAccessors(t *testing.T) {
	e := New(nil, WithWorkers(3))
	if e.Workers() != 3 || e.MaxBatch() != core.MaxBatch {
		t.Fatalf("accessors = (%d, %d), want (3, %d)", e.Workers(), e.MaxBatch(), core.MaxBatch)
	}
}

// TestPredictBatchCtxCompletedIsBitIdentical: a cancellable context that is
// never cancelled must not change a single bit of the output — the
// cancellation checks are pure gates.
func TestPredictBatchCtxCompletedIsBitIdentical(t *testing.T) {
	m, c := trainedModel(t)
	tables := c.Tables[:9]
	if New(m).Model() != m {
		t.Fatal("Model must expose the engine's model")
	}
	want := predict(t, New(m, WithWorkers(4)), tables)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := New(m, WithWorkers(4)).PredictBatchCtx(ctx, tables)
	if err != nil {
		t.Fatal(err)
	}
	for ti := range want {
		for i := range want[ti] {
			if got[ti][i] != want[ti][i] {
				t.Fatalf("table %d col %d diverged under cancellable context", ti, i)
			}
		}
	}
}

// TestPredictBatchCtxPreCancelled: an already-cancelled context aborts
// before any stage runs.
func TestPredictBatchCtxPreCancelled(t *testing.T) {
	m, c := trainedModel(t)
	fs := faultinject.New()
	eng := New(m, WithWorkers(2), WithFaults(fs))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := eng.PredictBatchCtx(ctx, c.Tables[:6])
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if out != nil {
		t.Fatal("aborted batch must return nil results")
	}
	if fs.Fired(faultinject.InferPrepare) != 0 {
		t.Fatal("prepare ran under a pre-cancelled context")
	}

	if _, err := eng.PredictBatchCtx(ctx, c.Tables[:1]); !errors.Is(err, context.Canceled) {
		t.Fatalf("one-table batch err = %v", err)
	}
	if fs.Fired(faultinject.InferPrepare) != 0 {
		t.Fatal("one-table prepare ran under a pre-cancelled context")
	}
}

// TestCancelMidChunkDrainsAndReturnsFast is the core cancellation scenario:
// the second chunk's union gate cancels the context while the batch is in
// flight. On one worker, 24 tables are two windows of one chunk each, so
// that gate falls in the second window. The engine must return
// context.Canceled within 100ms of the cancel (the acceptance bound: an
// injected 10s stage delay is cut short, nothing waits it out) and leave no
// pool workers behind. The bound is timed from the cancel, not from the
// call: the first window runs before it and says nothing about the drain.
func TestCancelMidChunkDrainsAndReturnsFast(t *testing.T) {
	m, c := trainedModel(t)
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelled := make(chan time.Time, 1)
	cancelNow := faultinject.Cancel(cancel)
	fs := faultinject.New().
		// First chunk passes; the second one cancels mid-batch...
		On(faultinject.InferUnion, faultinject.After(1, func(ctx context.Context) error {
			select {
			case cancelled <- time.Now():
			default:
			}
			return cancelNow(ctx)
		})).
		// ...and any chunk that still reaches its forward would stall 10s,
		// so only the context-aware drain can return quickly.
		On(faultinject.InferForward, faultinject.After(1, faultinject.Sleep(10*time.Second)))
	eng := New(m, WithWorkers(1), WithFaults(fs))

	out, err := eng.PredictBatchCtx(ctx, c.Tables[:24])
	returned := time.Now()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if out != nil {
		t.Fatal("cancelled batch must return nil results")
	}
	select {
	case at := <-cancelled:
		if drain := returned.Sub(at); drain > 100*time.Millisecond {
			t.Fatalf("cancelled batch returned %s after the cancel, want < 100ms", drain)
		}
	default:
		t.Fatal("the injected cancel never fired")
	}
	waitGoroutines(t, base)
}

// TestDeadlineExpiryDuringUnion: a slow graph-union stage under a short
// deadline surfaces context.DeadlineExceeded, not a hang.
func TestDeadlineExpiryDuringUnion(t *testing.T) {
	m, c := trainedModel(t)
	fs := faultinject.New().
		On(faultinject.InferUnion, faultinject.Sleep(10*time.Second))
	eng := New(m, WithWorkers(2), WithFaults(fs))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err := eng.PredictBatchCtx(ctx, c.Tables[:8])
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if elapsed := time.Since(t0); elapsed > time.Second {
		t.Fatalf("deadline abort took %s", elapsed)
	}
}

// TestInjectedPrepareErrorAborts: a hard failure in one prepare worker
// aborts the whole batch with that error after a drain.
func TestInjectedPrepareErrorAborts(t *testing.T) {
	m, c := trainedModel(t)
	boom := errors.New("prepare exploded")
	fs := faultinject.New().
		On(faultinject.InferPrepare, faultinject.After(2, faultinject.Err(boom)))
	eng := New(m, WithWorkers(2), WithFaults(fs))
	out, err := eng.PredictBatchCtx(context.Background(), c.Tables[:8])
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if out != nil {
		t.Fatal("failed batch must return nil results")
	}
}

// TestOneTableBatchStageGates: a batch of one passes every stage gate the
// union path has, so cancellation or an injected error at any of the four —
// prepare, union, forward, decode — aborts it with that error and no
// partial result.
func TestOneTableBatchStageGates(t *testing.T) {
	m, c := trainedModel(t)
	boom := errors.New("stage exploded")
	for _, point := range []faultinject.Point{
		faultinject.InferPrepare, faultinject.InferUnion, faultinject.InferForward, faultinject.InferDecode,
	} {
		for _, cancels := range []bool{true, false} {
			ctx, cancel := context.WithCancel(context.Background())
			act, want := faultinject.Err(boom), boom
			if cancels {
				act, want = faultinject.Cancel(cancel), context.Canceled
			}
			fs := faultinject.New().On(point, act)
			out, err := New(m, WithFaults(fs)).PredictBatchCtx(ctx, c.Tables[:1])
			cancel()
			if !errors.Is(err, want) {
				t.Fatalf("point %s: err = %v, want %v", point, err, want)
			}
			if out != nil {
				t.Fatalf("point %s: aborted batch returned results", point)
			}
			if fs.Fired(point) != 1 {
				t.Fatalf("point %s fired %d times, want 1", point, fs.Fired(point))
			}
		}
	}
}

// TestPredictBatchPreparesInWindows: a batch larger than workers×MaxBatch
// is prepared one window at a time, so on one worker the first forward runs
// after exactly MaxBatch prepares, not after the whole batch's.
func TestPredictBatchPreparesInWindows(t *testing.T) {
	m, c := trainedModel(t)
	var prepared []uint64 // the InferPrepare count at each forward
	fs := faultinject.New()
	fs.On(faultinject.InferPrepare, func(context.Context) error { return nil }).
		On(faultinject.InferForward, func(context.Context) error {
			prepared = append(prepared, fs.Fired(faultinject.InferPrepare))
			return nil
		})
	predict(t, New(m, WithWorkers(1), WithFaults(fs)), c.Tables[:24])
	if len(prepared) != 2 {
		t.Fatalf("%d forwards, want 2", len(prepared))
	}
	if prepared[0] != core.MaxBatch {
		t.Fatalf("%d tables prepared before the first forward, want %d", prepared[0], core.MaxBatch)
	}
	if prepared[1] != 24 {
		t.Fatalf("%d tables prepared before the second forward, want 24", prepared[1])
	}
}

// TestConcurrentCancelledBatches hammers the drain path under -race: many
// goroutines run batches whose contexts are cancelled at random points.
func TestConcurrentCancelledBatches(t *testing.T) {
	m, c := trainedModel(t)
	base := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				ctx, cancel := context.WithCancel(context.Background())
				fs := faultinject.New().
					On(faultinject.InferUnion, faultinject.After(uint64(w%3), faultinject.Cancel(cancel)))
				eng := New(m, WithWorkers(2), WithFaults(fs))
				out, err := eng.PredictBatchCtx(ctx, c.Tables[:6])
				if err == nil && out == nil {
					t.Error("nil result without error")
				}
				cancel()
			}
		}(w)
	}
	wg.Wait()
	waitGoroutines(t, base)
}

// TestGoldenDeterminismAcrossWorkers guards the PR 1 bit-identity invariant
// under the cancellation-aware scheduler: the marshalled predictions of the
// same corpus must be byte-identical at 1, 4 and 8 workers.
func TestGoldenDeterminismAcrossWorkers(t *testing.T) {
	m, c := trainedModel(t)
	tables := c.Tables[:12]
	var golden []byte
	for _, workers := range []int{1, 4, 8} {
		eng := New(m, WithWorkers(workers))
		out, err := eng.PredictBatchCtx(context.Background(), tables)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		raw, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		if golden == nil {
			golden = raw
			continue
		}
		if string(raw) != string(golden) {
			t.Fatalf("workers=%d: marshalled predictions differ from 1-worker golden", workers)
		}
	}
}
