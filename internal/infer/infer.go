// Package infer is the staged inference engine of Pythagoras: the
// production serving path that turns the monolithic per-table predict loop
// into an explicit Encode → BuildGraph → Forward pipeline with batching and
// parallelism.
//
// Stages (see DESIGN.md §7):
//
//  1. BuildGraph — table → heterogeneous graph (pure, per table).
//  2. Encode     — frozen-LM node states + standardized feature rows
//     (per table; dominated by the transformer, so the engine fans it out
//     over a worker pool; the lm.Encoder cache is sharded to keep workers
//     from serializing).
//  3. Forward    — graph union + gradient-free GNN passes, exactly the
//     minibatch mechanism the training loop uses. The batch is split into
//     per-worker chunks (each at most maxBatch tables) whose union forwards
//     run concurrently.
//
// Stages 1–2 are embarrassingly parallel across tables; stage 3 amortizes
// tape construction, parameter binding and matrix dispatch over each chunk
// and runs chunks in parallel. Because a union forward is bit-identical to
// the per-table forwards it replaces (row-wise ops, per-destination scatter
// accumulation), the chunking is unobservable in the output.
//
// PredictBatchCtx is the engine's one entry point; a single table is a
// batch of one, so PredictBatchCtx(ts)[i] equals PredictBatchCtx(ts[i:i+1])[0]
// bit for bit. The whole pipeline is interruptible (DESIGN.md §9):
// cancellation is checked before every stage, between chunks, and before
// each work item the pool claims, so a vanished client or an expired
// deadline aborts the batch at the next stage boundary with a partial-work
// drain — workers finish the item they are on, nothing new is started, and
// the first error comes back. Cancellation never changes bits: a batch that
// completes under a cancellable context is byte-identical to the same batch
// without one.
//
// The engine holds no mutable state: a single Engine is safe for concurrent
// use from any number of goroutines.
package infer

import (
	"context"
	"runtime"
	"time"

	"github.com/sematype/pythagoras/internal/core"
	"github.com/sematype/pythagoras/internal/faultinject"
	"github.com/sematype/pythagoras/internal/obs"
	"github.com/sematype/pythagoras/internal/par"
	"github.com/sematype/pythagoras/internal/table"
	"github.com/sematype/pythagoras/internal/tensor"
)

// Engine schedules staged inference over a trained, read-only model.
type Engine struct {
	model *core.Model
	// workers bounds the fan-out of both the prepare stage and the chunked
	// forward stage (default runtime.NumCPU()).
	workers int
	// maxBatch bounds how many tables are unioned into one forward pass
	// (default 16 — the training loop's default batch size). Larger batches
	// are split into chunks run concurrently across the worker pool.
	maxBatch int
	// metrics, when non-nil, receives per-stage latency histograms and
	// chunk-size distributions (see metrics.go). Nil costs one branch per
	// stage — the no-sink-attached fast path.
	metrics *engineMetrics
	// drift, when non-nil, accumulates the served prediction distribution
	// against a training-time baseline (see EnableDrift). Nil-safe throughout.
	drift *obs.DriftMonitor
	// faults, when non-nil, fires the chaos suite's injection points at
	// each stage boundary (DESIGN.md §9). Nil — always, outside tests —
	// costs one branch per stage.
	faults *faultinject.Set
}

// Option configures an Engine.
type Option func(*Engine)

// WithWorkers sets the prepare-stage worker count (values < 1 reset to the
// default).
func WithWorkers(n int) Option { return func(e *Engine) { e.workers = n } }

// WithMaxBatch sets how many tables PredictBatchCtx unions per forward pass.
func WithMaxBatch(n int) Option { return func(e *Engine) { e.maxBatch = n } }

// WithFaults arms fault-injection points at the engine's stage boundaries —
// test support for the chaos suite, never set in production (nil disables,
// the default).
func WithFaults(fs *faultinject.Set) Option { return func(e *Engine) { e.faults = fs } }

// New builds an inference engine around a trained model.
func New(m *core.Model, opts ...Option) *Engine {
	e := &Engine{model: m, workers: runtime.NumCPU(), maxBatch: 16}
	for _, o := range opts {
		o(e)
	}
	if e.workers < 1 {
		e.workers = runtime.NumCPU()
	}
	if e.maxBatch < 1 {
		e.maxBatch = 16
	}
	return e
}

// Model returns the engine's underlying model.
func (e *Engine) Model() *core.Model { return e.model }

// Workers reports the engine's configured worker fan-out — the server
// clones it onto the engines a model swap builds, so a swap never changes
// serving parallelism.
func (e *Engine) Workers() int { return e.workers }

// MaxBatch reports the engine's union-chunk bound, cloned like Workers.
func (e *Engine) MaxBatch() int { return e.maxBatch }

// stageGate is the per-stage interruption check: context first, then any
// armed fault. Both are one branch each when unset.
func stageGate(ctx context.Context, fs *faultinject.Set, p faultinject.Point) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return fs.Fire(ctx, p)
}

// chunkBounds splits n prepared tables into contiguous [lo, hi) chunks — as
// even as possible across the worker pool, never larger than maxBatch. Chunk
// boundaries are unobservable in the output: a union forward is bit-identical
// to the per-table forwards it replaces.
func (e *Engine) chunkBounds(n int) [][2]int {
	return par.Bounds(n, e.workers, e.maxBatch)
}

// forwardChunk runs one gradient-free forward over ps[lo:hi] (unioned when
// the chunk holds more than one table) and returns the chunk's prepared
// input, class probabilities and target-node list. The context and fault
// gates run before the union and before the forward — the two places a
// chunk spends real time. Instrumented, it times the graph-union and
// forward stages separately (a single-table chunk still observes its ~zero
// union cost, so the union histogram's count always matches the chunk
// count).
func (e *Engine) forwardChunk(ctx context.Context, ps []*core.Prepared, lo, hi int) (*core.Prepared, *tensor.Matrix, []int, error) {
	if err := stageGate(ctx, e.faults, faultinject.InferUnion); err != nil {
		return nil, nil, nil, err
	}
	m := e.metrics
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
	}
	p := ps[lo]
	if hi-lo > 1 {
		p = core.UnionPrepared(ps[lo:hi])
	}
	if m != nil {
		m.union.Since(t0)
		m.chunks.Observe(float64(hi - lo))
	}
	if err := stageGate(ctx, e.faults, faultinject.InferForward); err != nil {
		return nil, nil, nil, err
	}
	if m != nil {
		t0 = time.Now()
	}
	probs, targets := e.model.InferProbs(p)
	if m != nil {
		m.forward.Since(t0)
	}
	return p, probs, targets, nil
}

// PredictBatchCtx predicts the semantic types of every column of every
// input table through the staged pipeline: tables are prepared in parallel,
// their graphs unioned (the training loop's minibatch mechanism) into
// per-worker chunks of at most maxBatch tables, and the GNN + softmax run
// once per chunk, chunks in parallel. Output i corresponds to input i and is
// bit-identical to PredictBatchCtx(ctx, ts[i:i+1])[0] — one table is a batch
// of one, which runs on the caller's goroutine and skips the union.
//
// Cancellation (or an injected fault) is observed before each table the
// prepare pool claims, between chunks, and inside each chunk before its
// union, forward and decode. On abort it returns nil results and the first
// error after draining — every in-flight stage call runs to completion,
// nothing new starts.
func (e *Engine) PredictBatchCtx(ctx context.Context, ts []*table.Table) ([][]core.ColumnPrediction, error) {
	if len(ts) == 0 {
		return nil, ctx.Err()
	}
	m := e.metrics
	if m != nil {
		m.batches.Inc()
		m.tables.Add(uint64(len(ts)))
		m.batch.Observe(float64(len(ts)))
	}

	// Both stages fan out over par.For (drain-on-cancel, first error wins):
	// they only read the frozen model and the internally synchronized encoder
	// cache.
	ps := make([]*core.Prepared, len(ts))
	err := par.For(ctx, e.workers, len(ts), func(i int) error {
		if err := e.faults.Fire(ctx, faultinject.InferPrepare); err != nil {
			return err
		}
		var t0 time.Time
		if m != nil {
			t0 = time.Now()
		}
		ps[i] = e.model.Prepare(ts[i])
		if m != nil {
			m.prepare.Since(t0)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([][]core.ColumnPrediction, len(ts))
	bounds := e.chunkBounds(len(ts))
	err = par.For(ctx, e.workers, len(bounds), func(c int) error {
		clo, chi := bounds[c][0], bounds[c][1]
		p, probs, targets, err := e.forwardChunk(ctx, ps, clo, chi)
		if err != nil {
			return err
		}
		if err := stageGate(ctx, e.faults, faultinject.InferDecode); err != nil {
			return err
		}
		var t0 time.Time
		if m != nil {
			t0 = time.Now()
		}
		lo := 0
		for i := clo; i < chi; i++ {
			hi := lo + len(ps[i].Graph.TargetNodes())
			out[i] = e.model.DecodePredictions(p, probs, targets, lo, hi, ts[i])
			e.recordPredictions(out[i])
			lo = hi
		}
		if m != nil {
			m.decode.Since(t0)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
