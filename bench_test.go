// Benchmarks regenerating every table and figure of the paper's evaluation
// (§4). Each macro-benchmark runs one quick-scale end-to-end pass of the
// corresponding experiment; micro-benchmarks cover the hot components.
//
// Score-faithful runs live behind cmd/experiments (-scale reduced|full);
// these benchmarks exist to measure and regression-track the cost of each
// experiment pipeline:
//
//	go test -bench=. -benchmem -benchtime=1x
package pythagoras_test

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	pythagoras "github.com/sematype/pythagoras"
	"github.com/sematype/pythagoras/internal/baselines"
	"github.com/sematype/pythagoras/internal/core"
	"github.com/sematype/pythagoras/internal/data"
	"github.com/sematype/pythagoras/internal/eval"
	"github.com/sematype/pythagoras/internal/experiments"
	"github.com/sematype/pythagoras/internal/features"
	"github.com/sematype/pythagoras/internal/graph"
	"github.com/sematype/pythagoras/internal/infer"
	"github.com/sematype/pythagoras/internal/lm"
	"github.com/sematype/pythagoras/internal/obs"
	"github.com/sematype/pythagoras/internal/obs/slo"
	"github.com/sematype/pythagoras/internal/table"
)

// benchScale is a trimmed QuickScale so the full -bench=. sweep stays in
// single-digit minutes on one core.
func benchScale() experiments.Scale {
	s := experiments.QuickScale()
	s.Sports.NumTables = 44
	s.Sports.Domains = 3
	s.Git.NumTables = 60
	s.Git.MinSupport = 2
	s.Encoder = lm.Config{Dim: 32, Layers: 1, Heads: 2, FFNDim: 64, MaxLen: 512, Buckets: 1 << 12, Seed: 1}
	s.Pythagoras.Epochs = 12
	s.Pythagoras.Patience = 12
	s.Pythagoras.HiddenDim = 64
	s.Baseline.Epochs = 10
	s.Baseline.Patience = 10
	s.Sato.TrainOpts = s.Baseline
	s.Sato.Topics = 8
	return s
}

// BenchmarkTable1CorpusStats regenerates Table 1: both corpus generators
// plus their statistics.
func BenchmarkTable1CorpusStats(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		experiments.WriteTable1(io.Discard, s)
	}
}

// BenchmarkTable2SportsTables regenerates Table 2: all six models trained
// and scored on the SportsTables corpus.
func BenchmarkTable2SportsTables(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		res := experiments.Table2(s)
		if len(res.Rows) != 6 {
			b.Fatal("table 2 incomplete")
		}
	}
}

// BenchmarkTable3GitTables regenerates Table 3 on the GitTables Numeric
// corpus.
func BenchmarkTable3GitTables(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		res := experiments.Table3(s)
		if len(res.Rows) != 6 {
			b.Fatal("table 3 incomplete")
		}
	}
}

// BenchmarkFigure4PerTypeDiff regenerates Figure 4: the per-numerical-type
// Pythagoras vs Sato comparison (training both models, then the per-type
// win/tie/loss and boxplot statistics).
func BenchmarkFigure4PerTypeDiff(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		res := experiments.Table2(s)
		fig := experiments.Figure4(res)
		if fig.PythagorasWins+fig.Ties+fig.SatoWins == 0 {
			b.Fatal("figure 4 compared zero types")
		}
	}
}

// BenchmarkTable4Ablations regenerates Table 4: the eight Pythagoras graph
// and serialization variants on SportsTables.
func BenchmarkTable4Ablations(b *testing.B) {
	s := benchScale()
	s.Pythagoras.Epochs = 10
	s.Pythagoras.Patience = 10
	for i := 0; i < b.N; i++ {
		rows := experiments.Table4(s)
		if len(rows) != 8 {
			b.Fatal("table 4 incomplete")
		}
	}
}

// --- ablation benches for individual design choices (DESIGN.md §5) ---

// BenchmarkAblationGNNLayers measures training cost versus GNN depth (the
// 1-layer vs 2-layer design choice).
func BenchmarkAblationGNNLayers(b *testing.B) {
	c := data.GenerateSportsTables(data.SportsConfig{
		NumTables: 40, Seed: 11, MinRows: 6, MaxRows: 10, WeakNameProb: 0.1, Domains: 3,
	})
	enc := lm.NewEncoder(lm.Config{Dim: 32, Layers: 1, Heads: 2, FFNDim: 64, MaxLen: 256, Buckets: 1 << 12, Seed: 7})
	rng := rand.New(rand.NewSource(1))
	train, val, _ := eval.TrainValTestSplit(len(c.Tables), rng)
	for _, layers := range []int{1, 2, 3} {
		b.Run(map[int]string{1: "layers1", 2: "layers2", 3: "layers3"}[layers], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig(enc)
				cfg.GNNLayers = layers
				cfg.Epochs = 5
				cfg.Patience = 5
				if _, err := core.TrainCtx(context.Background(), c, train, val, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBatchSize measures throughput versus graph-union batch
// size.
func BenchmarkAblationBatchSize(b *testing.B) {
	c := data.GenerateSportsTables(data.SportsConfig{
		NumTables: 40, Seed: 11, MinRows: 6, MaxRows: 10, WeakNameProb: 0.1, Domains: 3,
	})
	enc := lm.NewEncoder(lm.Config{Dim: 32, Layers: 1, Heads: 2, FFNDim: 64, MaxLen: 256, Buckets: 1 << 12, Seed: 7})
	rng := rand.New(rand.NewSource(1))
	train, val, _ := eval.TrainValTestSplit(len(c.Tables), rng)
	for _, bs := range []int{2, 8, 24} {
		b.Run(map[int]string{2: "batch2", 8: "batch8", 24: "batch24"}[bs], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig(enc)
				cfg.BatchSize = bs
				cfg.Epochs = 5
				cfg.Patience = 5
				if _, err := core.TrainCtx(context.Background(), c, train, val, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- component micro-benchmarks ---

// BenchmarkFeatureExtraction measures the 192-feature extractor per
// column, cycling through the numeric columns of the reduced SportsTables
// corpus — 8–16 rows each, the shape serving traffic has.
func BenchmarkFeatureExtraction(b *testing.B) {
	var cols [][]float64
	for _, t := range data.GenerateSportsTables(data.ReducedSportsConfig()).Tables {
		for _, c := range t.Columns {
			if c.Kind == table.KindNumeric {
				cols = append(cols, c.NumValues)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		features.ExtractNormalized(cols[i%len(cols)])
	}
}

// BenchmarkEncoderColumn measures frozen-LM encoding of one serialized
// column (cache defeated).
func BenchmarkEncoderColumn(b *testing.B) {
	enc := pythagoras.NewEncoder(pythagoras.DefaultEncoderConfig())
	tokens := []string{"[CLS]", "lebron", "james", "<num2e1>", "<num7e0>", "<num1e1>", "[SEP]"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.EncodeTokens(tokens)
	}
}

// BenchmarkGraphBuild measures table→heterogeneous-graph conversion
// (including feature extraction for V_ncf nodes).
func BenchmarkGraphBuild(b *testing.B) {
	c := data.GenerateSportsTables(data.SportsConfig{
		NumTables: 11, Seed: 1, MinRows: 20, MaxRows: 20, WeakNameProb: 0,
	})
	labels := c.LabelIndex
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.Build(c.Tables[i%len(c.Tables)], labels, graph.BuildOptions{})
	}
}

// benchModel trains one small model over the bench corpus (shared by the
// inference benchmarks).
func benchModel(b *testing.B) (*core.Model, *data.Corpus) {
	b.Helper()
	c := data.GenerateSportsTables(data.SportsConfig{
		NumTables: 33, Seed: 11, MinRows: 6, MaxRows: 10, WeakNameProb: 0.1, Domains: 3,
	})
	enc := lm.NewEncoder(lm.Config{Dim: 32, Layers: 1, Heads: 2, FFNDim: 64, MaxLen: 256, Buckets: 1 << 12, Seed: 7})
	cfg := core.DefaultConfig(enc)
	cfg.Epochs = 5
	cfg.Patience = 5
	m, err := core.TrainCtx(context.Background(), c, []int{0, 1, 2, 3, 4, 5, 6, 7}, []int{8, 9}, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return m, c
}

// BenchmarkPredictBatch measures the staged inference engine at 1, 4 and 16
// tables per call. tables1 is a single table — a batch of one, the
// /v1/predict path; throughput (tables/sec) at batch 16 versus tables1 is
// the bench-trajectory number for the engine's batching + parallelism win.
func BenchmarkPredictBatch(b *testing.B) {
	m, c := benchModel(b)
	eng := infer.New(m)
	for _, size := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("tables%d", size), func(b *testing.B) {
			tables := make([]*table.Table, size)
			for i := range tables {
				tables[i] = c.Tables[i%len(c.Tables)]
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.PredictBatchCtx(context.Background(), tables); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "tables/sec")
		})
	}
}

// BenchmarkObsOverhead measures the cost of the deep-observability layer on
// the batch-16 serving path: "obs_off" is the bare engine, "obs_on" adds
// everything a production `serve` runs per request — metrics registry,
// drift monitor, and a span tree offered to a 1%-sampling trace recorder.
// Compare the two sub-benchmarks' ns/op.
func BenchmarkObsOverhead(b *testing.B) {
	m, c := benchModel(b)
	tables := make([]*table.Table, 16)
	for i := range tables {
		tables[i] = c.Tables[i%len(c.Tables)]
	}

	b.Run("obs_off", func(b *testing.B) {
		eng := infer.New(m)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.PredictBatchCtx(context.Background(), tables); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("obs_on", func(b *testing.B) {
		reg := obs.NewRegistry()
		eng := infer.New(m, infer.WithMetrics(reg))
		eng.EnableDrift(obs.NewDriftMonitor(m.ComputeDriftBaseline(c.Tables[:4])))
		rec := obs.NewTraceRecorder(obs.TraceConfig{SampleRate: 0.01})
		root := obs.WithRecorder(obs.WithRegistry(context.Background(), reg), rec)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctx, span := obs.StartSpan(root, "predict-batch")
			ctx, stage := obs.StartSpan(ctx, "infer")
			if _, err := eng.PredictBatchCtx(ctx, tables); err != nil {
				b.Fatal(err)
			}
			stage.End()
			span.End()
		}
	})
}

// BenchmarkTrainEpoch measures one data-parallel training epoch at 1, 4, 8
// and 16 workers over the same corpus and seed. The trained parameters are
// bit-identical at every worker count (see core's worker-count identity
// test); this benchmark tracks the wall-clock side of that trade — epoch
// time and epochs/sec versus parallelism.
func BenchmarkTrainEpoch(b *testing.B) {
	c := data.GenerateSportsTables(data.SportsConfig{
		NumTables: 42, Seed: 11, MinRows: 10, MaxRows: 16, WeakNameProb: 0.1, Domains: 3,
	})
	enc := lm.NewEncoder(lm.Config{Dim: 32, Layers: 1, Heads: 2, FFNDim: 64, MaxLen: 256, Buckets: 1 << 12, Seed: 7})
	train := make([]int, 40)
	for i := range train {
		train[i] = i
	}
	for _, workers := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig(enc)
				cfg.Epochs = 1
				cfg.TrainWorkers = workers
				if _, err := core.TrainCtx(context.Background(), c, train, []int{40, 41}, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "epochs/sec")
		})
	}
}

// BenchmarkBaselineSherlockFeaturize measures Sherlock's feature pipeline
// per table.
func BenchmarkBaselineSherlockFeaturize(b *testing.B) {
	c := data.GenerateSportsTables(data.SportsConfig{
		NumTables: 11, Seed: 1, MinRows: 20, MaxRows: 20, WeakNameProb: 0,
	})
	enc := lm.NewEncoder(lm.Config{Dim: 32, Layers: 1, Heads: 2, FFNDim: 64, MaxLen: 256, Buckets: 1 << 12, Seed: 7})
	f := baselines.NewSherlockFeaturizer(enc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.FeaturizeTable(c.Tables[i%len(c.Tables)])
	}
}

// BenchmarkSLORecord measures the per-request cost of SLO accounting — the
// hot-path tax every served request pays in the access-log middleware
// (DESIGN.md §13). Two objectives (availability + latency), mixed outcomes.
func BenchmarkSLORecord(b *testing.B) {
	eng := slo.New(slo.DefaultObjectives(0.999, 250*time.Millisecond))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Record(time.Duration(i%400)*time.Millisecond, i%10 != 0)
	}
}
