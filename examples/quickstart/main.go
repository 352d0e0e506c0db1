// Quickstart: generate a small corpus, train Pythagoras, and predict the
// semantic types of an unseen table — the minimal end-to-end flow.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"github.com/sematype/pythagoras/internal/core"
	"github.com/sematype/pythagoras/internal/data"
	"github.com/sematype/pythagoras/internal/eval"
	"github.com/sematype/pythagoras/internal/infer"
	"github.com/sematype/pythagoras/internal/lm"
)

func main() {
	// 1. A small sports data lake (3 domains to keep the demo fast).
	corpus := data.GenerateSportsTables(data.SportsConfig{
		NumTables: 90, Seed: 42, MinRows: 8, MaxRows: 14, WeakNameProb: 0.1, Domains: 3,
	})
	fmt.Printf("corpus: %s\n", corpus.ComputeStats())

	// 2. The frozen text encoder ("pre-trained LM" of the paper).
	enc := lm.NewEncoder(lm.Config{
		Dim: 64, Layers: 2, Heads: 4, FFNDim: 128, MaxLen: 512, Buckets: 1 << 14, Seed: 7,
	})

	// 3. Train on a 60/20/20 split.
	rng := rand.New(rand.NewSource(1))
	train, val, test := eval.TrainValTestSplit(len(corpus.Tables), rng)
	cfg := core.DefaultConfig(enc)
	cfg.Epochs = 60
	cfg.Logf = log.Printf
	model, err := core.TrainCtx(context.Background(), corpus, train, val, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Score on held-out tables.
	split, _ := model.Evaluate(corpus, test)
	fmt.Printf("\ntest weighted F1: numeric=%.3f  non-numeric=%.3f  overall=%.3f\n\n",
		split.Numeric.WeightedF1, split.NonNumeric.WeightedF1, split.Overall.WeightedF1)

	// 5. Predict a single unseen table column by column — a batch of one.
	unseen := corpus.Tables[test[0]]
	batch, err := infer.New(model).PredictBatchCtx(context.Background(), corpus.Tables[test[0]:test[0]+1])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("predictions for table %q:\n", unseen.Name)
	for _, p := range batch[0] {
		gold := unseen.Columns[p.ColIndex].SemanticType
		marker := " "
		if p.Type == gold {
			marker = "✓"
		}
		fmt.Printf("  %s %-22s [%s] → %-40s (conf %.2f, gold %s)\n",
			marker, p.Header, p.Kind, p.Type, p.Confidence, gold)
	}
}
