package infer

import (
	"context"
	"sync"
	"testing"

	"github.com/sematype/pythagoras/internal/core"
	"github.com/sematype/pythagoras/internal/data"
	"github.com/sematype/pythagoras/internal/eval"
	"github.com/sematype/pythagoras/internal/lm"
	"github.com/sematype/pythagoras/internal/table"
)

// trainedModel trains a small model once for the whole test package.
var (
	modelOnce sync.Once
	testModel *core.Model
	testCorp  *data.Corpus
)

func trainedModel(t *testing.T) (*core.Model, *data.Corpus) {
	t.Helper()
	modelOnce.Do(func() {
		c := data.GenerateSportsTables(data.SportsConfig{
			NumTables: 24, Seed: 11, MinRows: 6, MaxRows: 10, WeakNameProb: 0.1, Domains: 3,
		})
		enc := lm.NewEncoder(lm.Config{Dim: 32, Layers: 1, Heads: 2, FFNDim: 64, MaxLen: 256, Buckets: 1 << 12, Seed: 7})
		cfg := core.DefaultConfig(enc)
		cfg.Epochs = 4
		cfg.Patience = 4
		m, err := core.TrainCtx(context.Background(), c, []int{0, 1, 2, 3, 4, 5, 6, 7}, []int{8, 9}, cfg)
		if err != nil {
			panic(err)
		}
		testModel, testCorp = m, c
	})
	if testModel == nil {
		t.Fatal("model training failed")
	}
	return testModel, testCorp
}

// predict runs a batch that must complete (no context, no faults).
func predict(t *testing.T, eng *Engine, ts []*table.Table) [][]core.ColumnPrediction {
	t.Helper()
	out, err := eng.PredictBatchCtx(context.Background(), ts)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPredictBatchMatchesBatchesOfOne is the engine's core contract: the
// batched union forward pass must be bit-identical to predicting each table
// as a batch of one — same types, same confidences, down to the last float.
func TestPredictBatchMatchesBatchesOfOne(t *testing.T) {
	m, c := trainedModel(t)
	tables := c.Tables[10:22]

	eng := New(m, WithWorkers(4))
	batch := predict(t, eng, tables)
	if len(batch) != len(tables) {
		t.Fatalf("PredictBatchCtx returned %d results for %d tables", len(batch), len(tables))
	}
	for ti := range tables {
		want := predict(t, eng, tables[ti:ti+1])[0]
		got := batch[ti]
		if len(got) != len(want) {
			t.Fatalf("table %d: %d predictions, want %d", ti, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("table %d col %d: batch %+v != single %+v", ti, i, got[i], want[i])
			}
		}
	}
}

// TestPredictBatchEmptyAndSingle: an empty batch returns nil, and a batch
// of one is exactly the model's stage functions composed by hand.
func TestPredictBatchEmptyAndSingle(t *testing.T) {
	m, c := trainedModel(t)
	eng := New(m)
	if got := predict(t, eng, nil); got != nil {
		t.Fatalf("empty batch should return nil, got %v", got)
	}
	single := predict(t, eng, c.Tables[:1])
	p := m.Prepare(c.Tables[0])
	probs, targets := m.InferProbs(p)
	want := m.DecodePredictions(p, probs, targets, 0, len(targets), c.Tables[0])
	if len(single) != 1 || len(single[0]) != len(want) {
		t.Fatalf("single-table batch shape mismatch")
	}
	for i := range want {
		if single[0][i] != want[i] {
			t.Fatalf("single-table batch diverged at col %d", i)
		}
	}
}

// TestEvaluateMatchesModelEvaluate asserts the offline evaluator scores
// exactly what the engine serves: core.Model.Evaluate's prediction list
// equals the engine's predictions over the same labeled tables, at worker
// counts whose chunks do and don't divide the table count.
func TestEvaluateMatchesModelEvaluate(t *testing.T) {
	m, c := trainedModel(t)
	idx := []int{10, 11, 12, 13, 14, 15, 16}
	_, want := m.Evaluate(c, idx)
	tables := make([]*table.Table, len(idx))
	for i, ti := range idx {
		tables[i] = c.Tables[ti]
	}
	for _, w := range []int{1, 3, 8} {
		var got []eval.Prediction
		for i, preds := range predict(t, New(m, WithWorkers(w)), tables) {
			for _, p := range preds {
				gold, ok := c.LabelIndex[tables[i].Columns[p.ColIndex].SemanticType]
				if !ok {
					continue
				}
				got = append(got, eval.Prediction{
					True: gold, Pred: c.LabelIndex[p.Type], Numeric: p.Kind == table.KindNumeric,
				})
			}
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d preds, want %d", w, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: pred %d = %+v, want %+v", w, i, got[i], want[i])
			}
		}
	}
}

// TestChunkingInvariance asserts PredictBatchCtx output does not depend on
// how the batch is split into windows and union forward passes: any worker
// count must produce the bits of the batches of one. On one worker, 17
// tables take two windows, so one worker still runs more than one chunk.
func TestChunkingInvariance(t *testing.T) {
	m, c := trainedModel(t)
	tables := c.Tables[:17]
	one := New(m, WithWorkers(1))
	want := make([][]core.ColumnPrediction, len(tables))
	for i := range tables {
		want[i] = predict(t, one, tables[i:i+1])[0]
	}
	for _, w := range []int{1, 2, 3, 5} {
		got := predict(t, New(m, WithWorkers(w)), tables)
		for ti := range want {
			for i := range want[ti] {
				if got[ti][i] != want[ti][i] {
					t.Fatalf("workers=%d: table %d col %d diverged", w, ti, i)
				}
			}
		}
	}
}

// TestSingleTableDeterministic guards the bit-identity contract's
// foundation: repeated single-table predictions must produce identical
// floats (this once failed at ulp level due to map-iteration order in the
// entropy features).
func TestSingleTableDeterministic(t *testing.T) {
	m, c := trainedModel(t)
	eng := New(m)
	for i := range c.Tables[:8] {
		a := predict(t, eng, c.Tables[i:i+1])[0]
		b := predict(t, eng, c.Tables[i:i+1])[0]
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("table %d col %d: %+v != %+v", i, j, a[j], b[j])
			}
		}
	}
}

// TestConcurrentPredictions exercises one shared Engine from many
// goroutines (meaningful under -race): the model, encoder cache, and
// engine must all be read-only or internally synchronized.
func TestConcurrentPredictions(t *testing.T) {
	m, c := trainedModel(t)
	eng := New(m, WithWorkers(2))
	want := make([][]core.ColumnPrediction, len(c.Tables))
	for i := range c.Tables {
		want[i] = predict(t, eng, c.Tables[i:i+1])[0]
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				if w%2 == 0 {
					// batched path
					got, err := eng.PredictBatchCtx(context.Background(), c.Tables)
					if err != nil {
						t.Error(err)
						return
					}
					for i := range want {
						if len(got[i]) != len(want[i]) || got[i][0] != want[i][0] {
							t.Errorf("worker %d: batch result diverged on table %d", w, i)
							return
						}
					}
				} else {
					// batches of one
					i := (w + rep) % len(c.Tables)
					got, err := eng.PredictBatchCtx(context.Background(), c.Tables[i:i+1])
					if err != nil {
						t.Error(err)
						return
					}
					for j := range want[i] {
						if got[0][j] != want[i][j] {
							t.Errorf("worker %d: predict diverged on table %d col %d", w, i, j)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
