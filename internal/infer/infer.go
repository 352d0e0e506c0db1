// Package infer is the serving engine of Pythagoras: a wrapper around
// core.Model.PredictBatch, the one scoring loop that prepares each table
// (graph build plus frozen-LM encode), unions the prepared graphs into
// forwards of at most core.MaxBatch tables, runs the gradient-free GNN and
// decodes each table's predictions (see DESIGN.md §7). The engine adds what
// serving needs around that loop: the worker fan-out, the stage and batch
// metrics, the model-quality telemetry and drift monitor that every served
// prediction feeds, and the fault set of the chaos suite, which the scorer
// fires at its four stage gates.
//
// PredictBatchCtx is the engine's one entry point; a single table is a
// batch of one, so PredictBatchCtx(ts)[i] equals PredictBatchCtx(ts[i:i+1])[0]
// bit for bit. The whole pipeline is interruptible (DESIGN.md §9): a
// vanished client or an expired deadline aborts the batch at the next stage
// gate with a partial-work drain — workers finish the item they are on,
// nothing new is started, and the first error comes back. Cancellation
// never changes bits: a batch that completes under a cancellable context is
// byte-identical to the same batch without one.
//
// The engine holds no mutable state: a single Engine is safe for concurrent
// use from any number of goroutines.
package infer

import (
	"context"
	"runtime"

	"github.com/sematype/pythagoras/internal/core"
	"github.com/sematype/pythagoras/internal/faultinject"
	"github.com/sematype/pythagoras/internal/obs"
	"github.com/sematype/pythagoras/internal/table"
)

// Engine schedules staged inference over a trained, read-only model.
type Engine struct {
	model *core.Model
	// workers bounds the scorer's fan-out (default runtime.NumCPU()).
	workers int
	// hooks carries the fault set and the stage histograms into the
	// scorer. Its zero value — no faults, no metrics — costs one branch per
	// stage.
	hooks core.StageHooks
	// metrics, when non-nil, receives the batch counters and the
	// model-quality telemetry (see metrics.go).
	metrics *engineMetrics
	// drift, when non-nil, accumulates the served prediction distribution
	// against a training-time baseline (see EnableDrift). Nil-safe throughout.
	drift *obs.DriftMonitor
}

// Option configures an Engine.
type Option func(*Engine)

// WithWorkers sets the scorer's worker count (values < 1 reset to the
// default).
func WithWorkers(n int) Option { return func(e *Engine) { e.workers = n } }

// WithFaults arms fault-injection points at the scorer's stage gates —
// test support for the chaos suite, never set in production (nil disables,
// the default).
func WithFaults(fs *faultinject.Set) Option { return func(e *Engine) { e.hooks.Faults = fs } }

// New builds an inference engine around a trained model.
func New(m *core.Model, opts ...Option) *Engine {
	e := &Engine{model: m, workers: runtime.NumCPU()}
	for _, o := range opts {
		o(e)
	}
	if e.workers < 1 {
		e.workers = runtime.NumCPU()
	}
	return e
}

// Model returns the engine's underlying model.
func (e *Engine) Model() *core.Model { return e.model }

// Workers reports the engine's configured worker fan-out — the server
// clones it onto the engines a model swap builds, so a swap never changes
// serving parallelism.
func (e *Engine) Workers() int { return e.workers }

// MaxBatch reports the union bound of the scorer, core.MaxBatch.
func (e *Engine) MaxBatch() int { return core.MaxBatch }

// PredictBatchCtx predicts the semantic types of every column of every
// input table through core.Model.PredictBatch on the engine's workers, and
// feeds each table's predictions to the model-quality telemetry and the
// drift monitor. Output i corresponds to input i and is bit-identical to
// PredictBatchCtx(ctx, ts[i:i+1])[0]. On a cancelled context or an injected
// fault it returns nil results and the first error, after the drain.
func (e *Engine) PredictBatchCtx(ctx context.Context, ts []*table.Table) ([][]core.ColumnPrediction, error) {
	if len(ts) == 0 {
		return nil, ctx.Err()
	}
	if m := e.metrics; m != nil {
		m.batches.Inc()
		m.tables.Add(uint64(len(ts)))
		m.batch.Observe(float64(len(ts)))
	}
	out := make([][]core.ColumnPrediction, len(ts))
	err := e.model.PredictBatch(ctx, e.workers, ts, e.hooks, func(i int, preds []core.ColumnPrediction) {
		out[i] = preds
		e.recordPredictions(preds)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
