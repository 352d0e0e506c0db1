package core

import (
	"context"
	"math/rand"
	"os"
	"testing"

	"github.com/sematype/pythagoras/internal/data"
	"github.com/sematype/pythagoras/internal/eval"
	"github.com/sematype/pythagoras/internal/lm"
)

// TestTuneReducedScale is the harness-tuning sweep used while calibrating
// ReducedScale defaults. It is expensive; set PYTHAGORAS_TUNE=1 to run.
func TestTuneReducedScale(t *testing.T) {
	if os.Getenv("PYTHAGORAS_TUNE") == "" {
		t.Skip("tuning sweep: set PYTHAGORAS_TUNE=1 to run")
	}
	c := data.GenerateSportsTables(data.ReducedSportsConfig())
	rng := rand.New(rand.NewSource(1))
	train, val, test := eval.TrainValTestSplit(len(c.Tables), rng)
	enc := lm.NewEncoder(lm.Config{Dim: 96, Layers: 2, Heads: 4, FFNDim: 192, MaxLen: 512, Buckets: 1 << 14, Seed: 20240325})
	for _, tc := range []struct {
		name    string
		hidden  int
		epochs  int
		lr      float64
		dropout float64
	}{
		{"d96-h192-e200-dr02", 192, 200, 0.01, 0.2},
	} {
		cfg := DefaultConfig(enc)
		cfg.HiddenDim = tc.hidden
		cfg.Epochs = tc.epochs
		cfg.Patience = tc.epochs
		cfg.LearningRate = tc.lr
		cfg.Dropout = tc.dropout
		m, err := TrainCtx(context.Background(), c, train, val, cfg)
		if err != nil {
			t.Fatal(err)
		}
		split, _ := m.Evaluate(c, test)
		t.Logf("%s: num=%.3f txt=%.3f all=%.3f", tc.name,
			split.Numeric.WeightedF1, split.NonNumeric.WeightedF1, split.Overall.WeightedF1)
	}
}
