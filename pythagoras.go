// Package pythagoras is the public API of the Pythagoras semantic type
// detection library — a reproduction of "Pythagoras: Semantic Type
// Detection of Numerical Data in Enterprise Data Lakes" (EDBT 2024).
//
// Pythagoras predicts the semantic type (e.g.
// "basketball.player.assists_per_game") of table columns, and is designed
// specifically to work on numerical columns, where the values alone are
// rarely informative enough: it represents each table as a heterogeneous
// graph whose directed edges inject textual context (table name,
// non-numerical columns) and statistical features into every numerical
// column's representation through GNN message passing.
//
// Minimal usage:
//
//	enc := pythagoras.NewEncoder(pythagoras.DefaultEncoderConfig())
//	cfg := pythagoras.DefaultConfig(enc)
//	model, err := pythagoras.Train(ctx, corpus, trainIdx, valIdx, cfg)
//	batch, err := pythagoras.NewEngine(model).PredictBatchCtx(ctx, tables)
//
// Prediction has one entry point, Engine.PredictBatchCtx: batch[i] holds
// the column predictions for tables[i], and a single table is a batch of
// one.
//
// The subpackages of internal/ hold the implementation: the frozen text
// encoder (internal/lm), the 192-feature extractor (internal/features),
// the table graph (internal/graph), the heterogeneous GNN (internal/gnn),
// the five baseline models of the paper (internal/baselines), the two
// synthetic corpora (internal/data) and the experiment harness
// (internal/experiments). This package re-exports everything an adopter
// needs.
package pythagoras

import (
	"context"

	"github.com/sematype/pythagoras/internal/core"
	"github.com/sematype/pythagoras/internal/data"
	"github.com/sematype/pythagoras/internal/eval"
	"github.com/sematype/pythagoras/internal/graph"
	"github.com/sematype/pythagoras/internal/infer"
	"github.com/sematype/pythagoras/internal/lm"
	"github.com/sematype/pythagoras/internal/table"
)

// Core model types.
type (
	// Model is a trained Pythagoras classifier.
	Model = core.Model
	// Config controls model geometry and training.
	Config = core.Config
	// ColumnPrediction is the user-facing prediction for one column.
	ColumnPrediction = core.ColumnPrediction
	// Encoder is the frozen text encoder standing in for the paper's
	// pre-trained BERT.
	Encoder = lm.Encoder
	// EncoderConfig describes the frozen encoder.
	EncoderConfig = lm.Config
)

// Table model types.
type (
	// Table is a named table with ordered, semantically labeled columns.
	Table = table.Table
	// Column is one table column.
	Column = table.Column
	// Kind distinguishes numerical from non-numerical columns.
	Kind = table.Kind
	// Corpus is a set of labeled tables with a type vocabulary.
	Corpus = data.Corpus
)

// Column kinds.
const (
	KindText    = table.KindText
	KindNumeric = table.KindNumeric
)

// GraphOptions carries the ablation switches of the table-graph builder
// (Table 4 of the paper).
type GraphOptions = graph.BuildOptions

// Evaluation types.
type (
	// Prediction pairs gold and predicted class for scoring.
	Prediction = eval.Prediction
	// Scores aggregates weighted/macro F1 and accuracy.
	Scores = eval.Scores
	// SplitScores reports metrics for numerical, non-numerical and all
	// columns — the breakdown of the paper's Tables 2–3.
	SplitScores = eval.Split
)

// NewEncoder builds the deterministic frozen text encoder. Two encoders
// with equal configs are functionally identical ("the same pre-trained
// checkpoint").
func NewEncoder(cfg EncoderConfig) *Encoder { return lm.NewEncoder(cfg) }

// DefaultEncoderConfig returns the reduced-scale encoder configuration;
// PaperScaleEncoderConfig mirrors bert-base-uncased's geometry.
func DefaultEncoderConfig() EncoderConfig { return lm.DefaultConfig() }

// PaperScaleEncoderConfig mirrors bert-base-uncased (768 hidden, 12
// layers, 512 tokens).
func PaperScaleEncoderConfig() EncoderConfig { return lm.PaperScaleConfig() }

// DefaultConfig returns the default training configuration around enc.
func DefaultConfig(enc *Encoder) Config { return core.DefaultConfig(enc) }

// Engine is the staged inference engine (Encode → BuildGraph → Forward):
// the production serving path. Engine.PredictBatchCtx prepares tables in
// parallel and unions their graphs into chunked forward passes; its output
// for each table is bit-identical to predicting that table as a batch of
// one.
type Engine = infer.Engine

// NewEngine builds an inference engine around a trained model.
func NewEngine(m *Model, opts ...EngineOption) *Engine { return infer.New(m, opts...) }

// EngineOption configures an Engine (worker pool size, forward-pass batch
// bound).
type EngineOption = infer.Option

// WithWorkers sets the engine's prepare-stage worker count.
var WithWorkers = infer.WithWorkers

// WithMaxBatch sets how many tables the engine unions per forward pass.
var WithMaxBatch = infer.WithMaxBatch

// Train fits a Pythagoras model on corpus using the given table index
// splits (validation drives early stopping; pass nil to disable). A
// cancelled ctx aborts training with the context's error, and a Config it
// cannot train with (Epochs < 1, a LearningRate that is not positive and
// finite, a Dropout outside [0, 1)) is an error before any work starts.
func Train(ctx context.Context, c *Corpus, trainIdx, valIdx []int, cfg Config) (*Model, error) {
	return core.TrainCtx(ctx, c, trainIdx, valIdx, cfg)
}

// LoadModel reads a model written by Model.SaveFile. The checkpoint
// records its encoder's config, so cfg may be the zero Config; an encoder
// cfg does supply must have exactly that config.
func LoadModel(path string, cfg Config) (*Model, error) { return core.LoadFile(path, cfg) }

// TrainValTestSplit partitions n tables into the paper's 60/20/20 splits.
var TrainValTestSplit = eval.TrainValTestSplit

// ComputeScores scores a prediction set (weighted F1, macro F1, accuracy)
// split by column kind.
func ComputeScores(preds []Prediction) *SplitScores { return eval.ComputeSplit(preds) }

// LoadTables reads a directory of <id>.csv (+ optional <id>.labels.json
// sidecars) into tables.
var LoadTables = table.LoadDir

// SaveTables writes tables as CSV + label sidecars.
var SaveTables = table.SaveDir

// NewCorpus wraps tables into a corpus and derives its type vocabulary.
func NewCorpus(name string, tables []*Table) *Corpus {
	c := &Corpus{Name: name, Tables: tables}
	c.BuildVocabulary()
	return c
}

// GenerateSportsTables builds the synthetic SportsTables corpus (Table 1
// of the paper at default configuration).
var GenerateSportsTables = data.GenerateSportsTables

// GenerateGitTables builds the synthetic GitTables Numeric corpus.
var GenerateGitTables = data.GenerateGitTables

// Generator configuration re-exports.
type (
	// SportsConfig controls the SportsTables generator.
	SportsConfig = data.SportsConfig
	// GitConfig controls the GitTables Numeric generator.
	GitConfig = data.GitConfig
)

// DefaultSportsConfig / DefaultGitConfig mirror the paper's corpus scales;
// the Reduced variants run in seconds.
var (
	DefaultSportsConfig = data.DefaultSportsConfig
	ReducedSportsConfig = data.ReducedSportsConfig
	DefaultGitConfig    = data.DefaultGitConfig
	ReducedGitConfig    = data.ReducedGitConfig
)
