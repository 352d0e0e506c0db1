package pythagoras_test

import (
	"context"
	"math/rand"
	"path/filepath"
	"testing"

	pythagoras "github.com/sematype/pythagoras"
)

// apiEncoder keeps the public-API tests fast.
func apiEncoder() *pythagoras.Encoder {
	return pythagoras.NewEncoder(pythagoras.EncoderConfig{
		Dim: 32, Layers: 1, Heads: 2, FFNDim: 64, MaxLen: 256, Buckets: 1 << 12, Seed: 7,
	})
}

func TestPublicAPIEndToEnd(t *testing.T) {
	corpus := pythagoras.GenerateSportsTables(pythagoras.SportsConfig{
		NumTables: 40, Seed: 11, MinRows: 6, MaxRows: 10, WeakNameProb: 0.1, Domains: 3,
	})
	enc := apiEncoder()
	rng := rand.New(rand.NewSource(1))
	train, val, test := pythagoras.TrainValTestSplit(len(corpus.Tables), rng)

	cfg := pythagoras.DefaultConfig(enc)
	cfg.Epochs = 10
	cfg.Patience = 10
	model, err := pythagoras.Train(context.Background(), corpus, train, val, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Predict and score through the public API only.
	tables := make([]*pythagoras.Table, len(test))
	for i, ti := range test {
		tables[i] = corpus.Tables[ti]
	}
	batch, err := pythagoras.NewEngine(model).PredictBatchCtx(context.Background(), tables)
	if err != nil {
		t.Fatal(err)
	}
	var preds []pythagoras.Prediction
	for i, tb := range tables {
		for _, p := range batch[i] {
			gold, ok := corpus.LabelIndex[tb.Columns[p.ColIndex].SemanticType]
			if !ok {
				continue
			}
			pred := corpus.LabelIndex[p.Type]
			preds = append(preds, pythagoras.Prediction{
				True: gold, Pred: pred, Numeric: p.Kind == pythagoras.KindNumeric,
			})
		}
	}
	scores := pythagoras.ComputeScores(preds)
	if scores.Overall.N == 0 {
		t.Fatal("no predictions scored")
	}
	if scores.Overall.WeightedF1 < 0.05 {
		t.Fatalf("public-API training produced chance-level model: %.3f", scores.Overall.WeightedF1)
	}
}

func TestPublicAPIPersistence(t *testing.T) {
	corpus := pythagoras.GenerateSportsTables(pythagoras.SportsConfig{
		NumTables: 22, Seed: 3, MinRows: 5, MaxRows: 8, WeakNameProb: 0, Domains: 2,
	})
	enc := apiEncoder()
	cfg := pythagoras.DefaultConfig(enc)
	cfg.Epochs = 2
	cfg.Patience = 2
	model, err := pythagoras.Train(context.Background(), corpus, []int{0, 1, 2, 3}, []int{4, 5}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := model.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	predict := func(m *pythagoras.Model) []pythagoras.ColumnPrediction {
		batch, err := pythagoras.NewEngine(m).PredictBatchCtx(context.Background(), corpus.Tables[6:7])
		if err != nil {
			t.Fatal(err)
		}
		return batch[0]
	}
	a := predict(model)
	// Reload with the training encoder, and with none: the checkpoint
	// records the encoder's config, so both reloads predict the same bits.
	for _, cfg := range []pythagoras.Config{{Encoder: enc}, {}} {
		loaded, err := pythagoras.LoadModel(path, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b := predict(loaded)
		if len(a) != len(b) {
			t.Fatal("prediction counts differ after reload")
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("reloaded model (encoder supplied: %v) predicts %+v, want %+v", cfg.Encoder != nil, b[i], a[i])
			}
		}
	}
}

func TestPublicAPICorpusRoundTrip(t *testing.T) {
	corpus := pythagoras.GenerateGitTables(pythagoras.GitConfig{
		NumTables: 20, Seed: 5, MinRows: 5, MaxRows: 8, NameHintProb: 0.5, MinSupport: 1,
	})
	dir := t.TempDir()
	if err := pythagoras.SaveTables(dir, corpus.Tables); err != nil {
		t.Fatal(err)
	}
	tables, err := pythagoras.LoadTables(dir)
	if err != nil {
		t.Fatal(err)
	}
	reloaded := pythagoras.NewCorpus("reloaded", tables)
	if len(reloaded.Tables) != len(corpus.Tables) {
		t.Fatalf("tables: %d vs %d", len(reloaded.Tables), len(corpus.Tables))
	}
	if len(reloaded.Types) == 0 {
		t.Fatal("vocabulary lost on round trip")
	}
	if err := reloaded.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultConfigsSane(t *testing.T) {
	if pythagoras.DefaultEncoderConfig().Dim <= 0 {
		t.Fatal("bad default encoder config")
	}
	if pythagoras.PaperScaleEncoderConfig().Dim != 768 {
		t.Fatal("paper-scale encoder must be 768-d")
	}
	if pythagoras.DefaultSportsConfig().NumTables != 1187 {
		t.Fatal("default SportsTables scale must match Table 1")
	}
	if pythagoras.DefaultGitConfig().NumTables != 6577 {
		t.Fatal("default GitTables scale must match Table 1")
	}
}
