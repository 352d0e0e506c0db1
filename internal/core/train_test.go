package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/sematype/pythagoras/internal/eval"
	"github.com/sematype/pythagoras/internal/faultinject"
	"github.com/sematype/pythagoras/internal/obs"
)

// trainSnapshot trains with the given worker count and returns the gob
// serialization of the resulting model — the byte-level identity everything
// below compares.
func trainSnapshot(t *testing.T, workers int) []byte {
	t.Helper()
	c := tinyCorpus(16)
	cfg := tinyConfig(tinyEncoder())
	cfg.Epochs = 3
	cfg.TrainWorkers = workers
	m, err := TrainCtx(context.Background(), c, []int{0, 1, 2, 3, 4, 5, 6, 7, 8}, []int{9, 10, 11}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTrainSerialSameSeedByteIdentical is the baseline determinism
// regression: two serial runs with the same seed must produce byte-identical
// checkpoints. (Among other things this pins the ClipByGlobalNorm fix —
// map-order gradient accumulation used to perturb the clip norm by ulps.)
func TestTrainSerialSameSeedByteIdentical(t *testing.T) {
	a := trainSnapshot(t, 1)
	b := trainSnapshot(t, 1)
	if !bytes.Equal(a, b) {
		t.Fatal("two serial same-seed runs produced different checkpoints")
	}
}

// TestTrainWorkerCountBitIdentity is the data-parallel trainer's core
// guarantee: for a fixed seed the trained parameters are bit-identical at 1,
// 4 and 8 workers, because the sub-batch decomposition, the per-sub-batch
// dropout seeding and the gradient-merge order never depend on the worker
// count. Run under -race via `make race`.
func TestTrainWorkerCountBitIdentity(t *testing.T) {
	base := trainSnapshot(t, 1)
	for _, workers := range []int{4, 8} {
		if got := trainSnapshot(t, workers); !bytes.Equal(base, got) {
			t.Fatalf("%d-worker training diverged from the serial run", workers)
		}
	}
}

// TestTrainDefaultsPatience pins the zero-value Config fix: Patience 0 used
// to reach NewEarlyStopper(0), which stops at the first non-improving epoch.
// With the default applied, a short run must complete every epoch (tiny-scale
// validation F1 plateaus almost immediately, so the old behavior reliably
// truncated the run).
func TestTrainDefaultsPatience(t *testing.T) {
	c := tinyCorpus(16)
	cfg := tinyConfig(tinyEncoder())
	cfg.Epochs = 6
	cfg.Patience = 0 // the zero value under test
	epochs := 0
	cfg.Logf = func(format string, args ...any) {
		if strings.HasPrefix(format, "pythagoras: epoch") {
			epochs++
		}
		if strings.HasPrefix(format, "pythagoras: early stop") {
			t.Errorf("early stop fired with unset patience: "+format, args...)
		}
	}
	if _, err := TrainCtx(context.Background(), c, []int{0, 1, 2, 3, 4, 5}, []int{6, 7}, cfg); err != nil {
		t.Fatal(err)
	}
	if epochs != cfg.Epochs {
		t.Fatalf("ran %d of %d epochs with unset patience", epochs, cfg.Epochs)
	}
}

// TestTrainCtxCancellation drives the trainer's fault-injection points: a
// cancellation injected at each stage boundary must abort training with the
// context's error — no partial model, no hang, workers drained. Run under
// -race via `make race`.
func TestTrainCtxCancellation(t *testing.T) {
	for _, point := range []faultinject.Point{
		faultinject.TrainPrepare,
		faultinject.TrainStep,
		faultinject.TrainMerge,
		faultinject.TrainVal,
	} {
		t.Run(string(point), func(t *testing.T) {
			c := tinyCorpus(16)
			cfg := tinyConfig(tinyEncoder())
			cfg.Epochs = 3
			cfg.TrainWorkers = 4
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			fs := faultinject.New()
			fs.On(point, faultinject.Cancel(cancel))
			cfg.Faults = fs
			m, err := TrainCtx(ctx, c, []int{0, 1, 2, 3, 4, 5}, []int{6, 7}, cfg)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if m != nil {
				t.Fatal("cancelled training returned a model")
			}
			if fs.Fired(point) == 0 {
				t.Fatalf("point %s never fired", point)
			}
		})
	}
}

// TestTrainCtxRejectsBadConfig pins the settings TrainCtx refuses before it
// prepares a table: no epoch (which returned the untrained model with a
// nil error), a learning rate that is not a positive finite number, and a
// dropout probability outside [0, 1) (at 1 a worker goroutine panicked in
// the tape's Dropout and killed the process). The boundary values it
// accepts must still train.
func TestTrainCtxRejectsBadConfig(t *testing.T) {
	c := tinyCorpus(8)
	enc := tinyEncoder()
	for _, tc := range []struct {
		name string
		edit func(*Config)
		ok   bool
	}{
		{"epochs-0", func(cfg *Config) { cfg.Epochs = 0 }, false},
		{"epochs-negative", func(cfg *Config) { cfg.Epochs = -2 }, false},
		{"lr-0", func(cfg *Config) { cfg.LearningRate = 0 }, false},
		{"lr-negative", func(cfg *Config) { cfg.LearningRate = -1e-3 }, false},
		{"lr-nan", func(cfg *Config) { cfg.LearningRate = math.NaN() }, false},
		{"lr-inf", func(cfg *Config) { cfg.LearningRate = math.Inf(1) }, false},
		{"lr-negative-inf", func(cfg *Config) { cfg.LearningRate = math.Inf(-1) }, false},
		{"dropout-1", func(cfg *Config) { cfg.Dropout = 1 }, false},
		{"dropout-above-1", func(cfg *Config) { cfg.Dropout = 1.5 }, false},
		{"dropout-negative", func(cfg *Config) { cfg.Dropout = -0.1 }, false},
		{"dropout-nan", func(cfg *Config) { cfg.Dropout = math.NaN() }, false},
		{"boundaries", func(cfg *Config) { cfg.Epochs, cfg.Dropout, cfg.LearningRate = 1, 0, math.SmallestNonzeroFloat64 }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tinyConfig(enc)
			cfg.TrainWorkers = 2
			fs := faultinject.New()
			fs.On(faultinject.TrainPrepare, func(context.Context) error { return nil })
			cfg.Faults = fs
			tc.edit(&cfg)
			m, err := TrainCtx(context.Background(), c, []int{0, 1, 2, 3, 4}, []int{5, 6}, cfg)
			if tc.ok {
				if err != nil || m == nil {
					t.Fatalf("TrainCtx = %v, %v; want a model", m, err)
				}
				return
			}
			if err == nil || m != nil {
				t.Fatalf("TrainCtx = %v, %v; want no model and an error", m, err)
			}
			if n := fs.Fired(faultinject.TrainPrepare); n != 0 {
				t.Fatalf("prepared %d tables before rejecting the config: %v", n, err)
			}
		})
	}
}

// TestTrainCtxInjectedError checks that a non-context failure injected at a
// stage boundary propagates out as-is (first error wins across workers).
func TestTrainCtxInjectedError(t *testing.T) {
	boom := errors.New("disk on fire")
	c := tinyCorpus(16)
	cfg := tinyConfig(tinyEncoder())
	cfg.Epochs = 2
	cfg.TrainWorkers = 4
	fs := faultinject.New()
	fs.On(faultinject.TrainPrepare, faultinject.After(3, faultinject.Err(boom)))
	cfg.Faults = fs
	if _, err := TrainCtx(context.Background(), c, []int{0, 1, 2, 3, 4, 5}, []int{6, 7}, cfg); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

// TestTrainMetricsHistograms checks the per-stage training telemetry: every
// stage histogram must have observations after a short run, through the same
// registry shape the serving path uses.
func TestTrainMetricsHistograms(t *testing.T) {
	c := tinyCorpus(16)
	cfg := tinyConfig(tinyEncoder())
	cfg.Epochs = 2
	cfg.TrainWorkers = 2
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	if _, err := TrainCtx(context.Background(), c, []int{0, 1, 2, 3, 4, 5}, []int{6, 7}, cfg); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"train.prepare.seconds", "train.fb.seconds", "train.merge.seconds", "train.val.seconds", "train.epoch.seconds"} {
		if got := reg.Histogram(name, nil).Count(); got == 0 {
			t.Errorf("histogram %s has no observations", name)
		}
	}
	snap := reg.Snapshot()
	_ = snap
	if reg.Counter("train.steps").Value() == 0 {
		t.Error("train.steps counter never incremented")
	}
}

// TestTrainParallelMatchesQuality is a sanity guard that the data-parallel
// step decomposition (per-table sub-batches with loss-weighted gradient
// merge) still learns: a short parallel run must beat chance on held-out
// tables, mirroring TestTrainImprovesOverChance.
func TestTrainParallelMatchesQuality(t *testing.T) {
	c := tinyCorpus(44)
	cfg := tinyConfig(tinyEncoder())
	cfg.TrainWorkers = 4
	train := make([]int, 0, 36)
	for i := 0; i < 36; i++ {
		train = append(train, i)
	}
	m, err := TrainCtx(context.Background(), c, train, []int{36, 37, 38, 39}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	split, preds := m.Evaluate(c, []int{40, 41, 42, 43})
	if len(preds) == 0 {
		t.Fatal("no predictions")
	}
	if split.Overall.WeightedF1 < 0.15 {
		t.Fatalf("parallel trainer did not learn: weighted F1 = %.3f", split.Overall.WeightedF1)
	}
}

// TestEvaluateWorkerCountInvariant pins the validation-scoring half of the
// worker-count identity: evaluate on the same prepared tables at 1, 3 and 8
// workers must produce identical metrics (chunk boundaries shift with the
// worker count; the scores must not).
func TestEvaluateWorkerCountInvariant(t *testing.T) {
	c := tinyCorpus(20)
	cfg := tinyConfig(tinyEncoder())
	cfg.Epochs = 2
	m, err := TrainCtx(context.Background(), c, []int{0, 1, 2, 3, 4, 5}, []int{6, 7}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ps := make([]*Prepared, 8)
	for i := range ps {
		ps[i] = m.Prepare(c.Tables[10+i])
	}
	key := func(s *eval.Split) string {
		return fmt.Sprintf("%v/%v/%v/%v/%v/%v/%d",
			s.Overall.WeightedF1, s.Overall.MacroF1, s.Overall.Accuracy,
			s.Numeric.WeightedF1, s.NonNumeric.WeightedF1, s.Overall.N, len(s.Overall.PerClass))
	}
	prep := func(i int) *Prepared { return ps[i] }
	base, _, err := m.evaluate(context.Background(), 1, len(ps), prep)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{3, 8} {
		got, _, err := m.evaluate(context.Background(), workers, len(ps), prep)
		if err != nil {
			t.Fatal(err)
		}
		if key(got) != key(base) {
			t.Fatalf("validation scores differ at %d workers:\n  1: %s\n  %d: %s", workers, key(base), workers, key(got))
		}
	}
}
