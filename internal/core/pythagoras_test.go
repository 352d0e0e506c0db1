package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"github.com/sematype/pythagoras/internal/data"
	"github.com/sematype/pythagoras/internal/eval"
	"github.com/sematype/pythagoras/internal/graph"
	"github.com/sematype/pythagoras/internal/lm"
	"github.com/sematype/pythagoras/internal/table"
)

// tinyEncoder keeps core tests fast.
func tinyEncoder() *lm.Encoder {
	return lm.NewEncoder(lm.Config{Dim: 32, Layers: 1, Heads: 2, FFNDim: 64, MaxLen: 64, Buckets: 1 << 12, Seed: 7})
}

// tinyCorpus builds a small SportsTables-style corpus.
func tinyCorpus(n int) *data.Corpus {
	return data.GenerateSportsTables(data.SportsConfig{
		NumTables: n, Seed: 11, MinRows: 6, MaxRows: 10, WeakNameProb: 0.1, Domains: 3,
	})
}

// predictOne types one table through the stage functions the inference
// engine composes — Prepare, InferProbs, DecodePredictions — as a batch of
// one.
func predictOne(m *Model, t *table.Table) []ColumnPrediction {
	p := m.Prepare(t)
	probs, targets := m.InferProbs(p)
	return m.DecodePredictions(p, probs, targets, 0, len(targets), t)
}

func tinyConfig(enc *lm.Encoder) Config {
	cfg := DefaultConfig(enc)
	cfg.Epochs = 30
	cfg.Patience = 30
	cfg.BatchSize = 8
	cfg.LearningRate = 1e-2
	return cfg
}

func TestTrainImprovesOverChance(t *testing.T) {
	c := tinyCorpus(44)
	enc := tinyEncoder()
	rng := rand.New(rand.NewSource(1))
	train, val, test := eval.TrainValTestSplit(len(c.Tables), rng)
	m, err := TrainCtx(context.Background(), c, train, val, tinyConfig(enc))
	if err != nil {
		t.Fatal(err)
	}
	split, preds := m.Evaluate(c, test)
	if len(preds) == 0 {
		t.Fatal("no predictions")
	}
	// Chance over 462 classes ≈ 0.002; anything materially learned clears
	// 0.15 even at this tiny scale.
	if split.Overall.WeightedF1 < 0.15 {
		t.Fatalf("model did not learn: weighted F1 = %.3f", split.Overall.WeightedF1)
	}
	// Non-numeric columns should be easier than numeric ones.
	if split.NonNumeric.WeightedF1 < split.Numeric.WeightedF1 {
		t.Logf("note: non-numeric (%.3f) < numeric (%.3f) at tiny scale",
			split.NonNumeric.WeightedF1, split.Numeric.WeightedF1)
	}
}

func TestTrainEmptySplitErrors(t *testing.T) {
	c := tinyCorpus(5)
	if _, err := TrainCtx(context.Background(), c, nil, nil, tinyConfig(tinyEncoder())); err == nil {
		t.Fatal("empty training split must error")
	}
}

func TestContextAblationDegradesNumericF1(t *testing.T) {
	// The heart of Table 4: removing V_tn + V_nn context must hurt numeric
	// predictions. We compare full vs fully-context-free on the same split
	// with the same budget.
	if testing.Short() {
		t.Skip("training comparison skipped in -short")
	}
	c := tinyCorpus(60)
	enc := tinyEncoder()
	rng := rand.New(rand.NewSource(2))
	train, val, test := eval.TrainValTestSplit(len(c.Tables), rng)

	full := tinyConfig(enc)
	mFull, err := TrainCtx(context.Background(), c, train, val, full)
	if err != nil {
		t.Fatal(err)
	}
	sFull, _ := mFull.Evaluate(c, test)

	ablated := tinyConfig(enc)
	ablated.Graph = graph.BuildOptions{DropTableName: true, DropTextColumns: true}
	mAbl, err := TrainCtx(context.Background(), c, train, val, ablated)
	if err != nil {
		t.Fatal(err)
	}
	sAbl, _ := mAbl.Evaluate(c, test)

	if sFull.Numeric.WeightedF1 <= sAbl.Numeric.WeightedF1 {
		t.Fatalf("context removal did not hurt: full=%.3f ablated=%.3f",
			sFull.Numeric.WeightedF1, sAbl.Numeric.WeightedF1)
	}
}

func TestPredictOutputs(t *testing.T) {
	c := tinyCorpus(33)
	enc := tinyEncoder()
	rng := rand.New(rand.NewSource(3))
	train, val, _ := eval.TrainValTestSplit(len(c.Tables), rng)
	cfg := tinyConfig(enc)
	cfg.Epochs = 4
	m, err := TrainCtx(context.Background(), c, train, val, cfg)
	if err != nil {
		t.Fatal(err)
	}

	tb := c.Tables[0]
	preds := predictOne(m, tb)
	targetCount := len(tb.Columns)
	if len(preds) != targetCount {
		t.Fatalf("predictions = %d, want %d", len(preds), targetCount)
	}
	seen := map[int]bool{}
	for _, p := range preds {
		if p.Type == "" {
			t.Fatal("empty predicted type")
		}
		if p.Confidence <= 0 || p.Confidence > 1 {
			t.Fatalf("confidence = %v", p.Confidence)
		}
		if seen[p.ColIndex] {
			t.Fatalf("column %d predicted twice", p.ColIndex)
		}
		seen[p.ColIndex] = true
		if p.Header != tb.Columns[p.ColIndex].Header {
			t.Fatal("header/colindex mismatch")
		}
	}
}

func TestPredictUnlabeledColumns(t *testing.T) {
	// Prediction must work on tables with no gold labels at all.
	c := tinyCorpus(22)
	enc := tinyEncoder()
	cfg := tinyConfig(enc)
	cfg.Epochs = 2
	m, err := TrainCtx(context.Background(), c, []int{0, 1, 2, 3}, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tb := &table.Table{Name: "Unknown Stats", ID: "u", Columns: []*table.Column{
		{Header: "Who", Kind: table.KindText, TextValues: []string{"Lebron James", "Myles Turner"}},
		{Header: "X", Kind: table.KindNumeric, NumValues: []float64{7.5, 2.1}},
	}}
	preds := predictOne(m, tb)
	if len(preds) != 2 {
		t.Fatalf("predictions = %d", len(preds))
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	c := tinyCorpus(22)
	enc := tinyEncoder()
	cfg := tinyConfig(enc)
	cfg.Epochs = 3
	rng := rand.New(rand.NewSource(4))
	train, val, test := eval.TrainValTestSplit(len(c.Tables), rng)
	m, err := TrainCtx(context.Background(), c, train, val, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	s1, p1 := m.Evaluate(c, test)
	// Load with the training encoder, and with none: the checkpoint's
	// recorded config must rebuild an encoder that predicts the same bits.
	for _, leg := range []struct {
		name string
		cfg  Config
	}{{"supplied encoder", Config{Encoder: enc}}, {"recorded encoder", Config{}}} {
		m2, err := Load(bytes.NewReader(buf.Bytes()), leg.cfg)
		if err != nil {
			t.Fatalf("%s: %v", leg.name, err)
		}
		s2, p2 := m2.Evaluate(c, test)
		if len(p1) != len(p2) {
			t.Fatalf("%s: prediction counts differ after load", leg.name)
		}
		for i := range p1 {
			if p1[i] != p2[i] {
				t.Fatalf("%s: loaded model predicts differently", leg.name)
			}
		}
		if s1.Overall.WeightedF1 != s2.Overall.WeightedF1 {
			t.Fatalf("%s: scores differ after load", leg.name)
		}
		for _, ti := range test {
			want, got := predictOne(m, c.Tables[ti]), predictOne(m2, c.Tables[ti])
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%s: table %d column %d: %+v, want %+v", leg.name, ti, i, got[i], want[i])
				}
			}
		}
	}
}

func TestLoadRejectsWrongEncoder(t *testing.T) {
	c := tinyCorpus(11)
	enc := tinyEncoder()
	cfg := tinyConfig(enc)
	cfg.Epochs = 1
	m, err := TrainCtx(context.Background(), c, []int{0, 1}, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	wrong := lm.NewEncoder(lm.Config{Dim: 16, Layers: 1, Heads: 2, MaxLen: 32, Buckets: 256, Seed: 1})
	if _, err := Load(bytes.NewReader(buf.Bytes()), Config{Encoder: wrong}); err == nil {
		t.Fatal("dim mismatch not rejected")
	}
	// Same width, one layer more: the weights were trained on another
	// encoder, and that must fail loudly rather than predict garbage.
	deeper := enc.Config()
	deeper.Layers++
	_, err = Load(bytes.NewReader(buf.Bytes()), Config{Encoder: lm.NewEncoder(deeper)})
	var mismatch *EncoderMismatchError
	if !errors.As(err, &mismatch) {
		t.Fatalf("layer mismatch: err = %v, want *EncoderMismatchError", err)
	}
	if mismatch.Saved != enc.Config() || mismatch.Supplied != deeper {
		t.Fatalf("mismatch error fields = %+v", mismatch)
	}
	if _, err := Load(bytes.NewReader(nil), Config{Encoder: enc}); err == nil {
		t.Fatal("empty reader not rejected")
	}
}

func TestTrainDeterministicPerSeed(t *testing.T) {
	c := tinyCorpus(16)
	enc := tinyEncoder()
	cfg := tinyConfig(enc)
	cfg.Epochs = 3
	run := func() []eval.Prediction {
		m, err := TrainCtx(context.Background(), c, []int{0, 1, 2, 3, 4, 5}, []int{6, 7}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, preds := m.Evaluate(c, []int{8, 9})
		return preds
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce identical training")
		}
	}
}

func TestEvaluateSkipsUnknownTypes(t *testing.T) {
	c := tinyCorpus(12)
	enc := tinyEncoder()
	cfg := tinyConfig(enc)
	cfg.Epochs = 1
	m, err := TrainCtx(context.Background(), c, []int{0, 1, 2}, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Inject a table whose types are outside the vocabulary.
	alien := &table.Table{Name: "Alien", ID: "alien", Columns: []*table.Column{
		{Header: "h", SemanticType: "totally.unknown.type", Kind: table.KindNumeric, NumValues: []float64{1, 2}},
	}}
	c.Tables = append(c.Tables, alien)
	_, preds := m.Evaluate(c, []int{len(c.Tables) - 1})
	if len(preds) != 0 {
		t.Fatal("unknown-type columns must be excluded from scoring")
	}
}

// TestEvaluateMatchesPerTableScoring pins the evaluator to its reference:
// scoring each table alone, a batch of one with no union, and
// concatenating in table order. Eleven tables do not fill one 16-table
// union chunk and split unevenly across workers, so the chunked union
// forwards Evaluate runs must be unobservable down to the last prediction.
func TestEvaluateMatchesPerTableScoring(t *testing.T) {
	c := tinyCorpus(20)
	cfg := tinyConfig(tinyEncoder())
	cfg.Epochs = 2
	m, err := TrainCtx(context.Background(), c, []int{0, 1, 2, 3, 4, 5}, []int{6, 7}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	idx := []int{8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18}
	var want []eval.Prediction
	for _, ti := range idx {
		_, one, _ := m.evaluate(context.Background(), 1, 1, func(int) *Prepared { return m.Prepare(c.Tables[ti]) })
		want = append(want, one...)
	}
	split, got := m.Evaluate(c, idx)
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("Evaluate returned %d predictions, per-table scoring %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("prediction %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if ws := eval.ComputeSplit(want); split.Overall.WeightedF1 != ws.Overall.WeightedF1 ||
		split.Numeric.MacroF1 != ws.Numeric.MacroF1 {
		t.Fatalf("Evaluate split %+v differs from per-table split %+v", split.Overall, ws.Overall)
	}
}
