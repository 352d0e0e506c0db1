// The re-score driver: freeze the lake's table IDs, score them in batches
// on the inference engine under the concurrency budget, write each scored
// batch into the shadow index, and flip the shadow in when the scan
// completes. Cancellation (operator promote or rollback, or shutdown) and
// errors abort the shadow and leave the old index serving; the next run
// starts over from the lake.
package rescore

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/sematype/pythagoras/internal/core"
	"github.com/sematype/pythagoras/internal/discovery"
	"github.com/sematype/pythagoras/internal/faultinject"
	"github.com/sematype/pythagoras/internal/obs"
	"github.com/sematype/pythagoras/internal/table"
)

// Scorer is the slice of infer.Engine the driver needs — batch inference
// with context cancellation. Narrowing to an interface keeps the package
// testable with deterministic fakes and free of an engine dependency.
type Scorer interface {
	PredictBatchCtx(ctx context.Context, ts []*table.Table) ([][]core.ColumnPrediction, error)
}

// Config parameterizes one re-score run.
type Config struct {
	// ModelID labels the run's progress and telemetry.
	ModelID string
	// BatchSize is how many tables are scored per engine batch (default 16,
	// the engine's union-chunk bound).
	BatchSize int
	// Budget bounds how many batches are in flight on the engine at once.
	// The engine parallelizes within a batch too; the bound keeps the
	// pipeline fed without monopolizing the worker pool serving live
	// traffic, and the watchdog can lower it mid-run (SLO fast burn →
	// halve) and restore it. When nil the driver builds a private
	// NewBudget(2).
	Budget *Budget
	// Faults arms the chaos suite's injection points; nil (production) is
	// free.
	Faults *faultinject.Set
	// Metrics, when non-nil, receives rescore counters and gauges.
	Metrics *obs.Registry
}

// Progress is a point-in-time view of a run, served at GET /v1/index/rescore.
type Progress struct {
	// State is "pending" before Run, then "running", and finally one of
	// "done", "failed", "cancelled".
	State   string `json:"state"`
	ModelID string `json:"model_id"`
	// Total is the scan snapshot size; Done how many of its tables have
	// been through a completed batch.
	Total int `json:"total"`
	Done  int `json:"done"`
	// Skipped counts scanned tables whose shadow write was dropped because a
	// live re-add superseded it (the shadow already holds the newer copy).
	Skipped    int       `json:"skipped"`
	Error      string    `json:"error,omitempty"`
	StartedAt  time.Time `json:"started_at"`
	FinishedAt time.Time `json:"finished_at"`
}

// Driver executes one re-score run. Create with New, execute with Run
// (once), observe with Progress at any time from any goroutine.
type Driver struct {
	lake   *Lake
	scorer Scorer
	idx    *discovery.SwapIndex
	cfg    Config

	mu      sync.Mutex
	prog    Progress
	started bool

	scored *obs.Counter // rescore.tables.scored{model=}
	errs   *obs.Counter // rescore.errors{model=}
	doneG  *obs.Gauge   // rescore.tables.done: Progress.Done
	totalG *obs.Gauge   // rescore.tables.total
	active *obs.Gauge   // rescore.active
}

// New builds a driver over the lake, scorer and swap index. Defaults:
// batch 16, concurrency 2.
func New(lake *Lake, scorer Scorer, idx *discovery.SwapIndex, cfg Config) *Driver {
	if cfg.BatchSize < 1 {
		cfg.BatchSize = 16
	}
	if cfg.Budget == nil {
		cfg.Budget = NewBudget(2)
	}
	d := &Driver{
		lake: lake, scorer: scorer, idx: idx, cfg: cfg,
		prog: Progress{State: "pending", ModelID: cfg.ModelID},
	}
	reg := cfg.Metrics // nil-safe: every obs handle tolerates a nil registry
	d.scored = reg.Counter(obs.Labels("rescore.tables.scored", "model", cfg.ModelID))
	d.errs = reg.Counter(obs.Labels("rescore.errors", "model", cfg.ModelID))
	d.doneG = reg.Gauge("rescore.tables.done")
	d.totalG = reg.Gauge("rescore.tables.total")
	d.active = reg.Gauge("rescore.active")
	if reg != nil {
		budget := cfg.Budget
		reg.GaugeFunc("rescore.concurrency.limit", func() float64 {
			return float64(budget.Limit())
		})
	}
	return d
}

// Progress returns a copy of the run's current progress.
func (d *Driver) Progress() Progress {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.prog
}

func (d *Driver) update(fn func(p *Progress)) {
	d.mu.Lock()
	fn(&d.prog)
	done, total := d.prog.Done, d.prog.Total
	d.mu.Unlock()
	d.doneG.Set(float64(done))
	d.totalG.Set(float64(total))
}

// Run executes the re-score to completion (or failure/cancellation). It is
// one-shot: a Driver runs once. On success the shadow index has been
// committed; on any other exit the old index is untouched.
func (d *Driver) Run(ctx context.Context) error {
	d.mu.Lock()
	if d.started {
		d.mu.Unlock()
		return errors.New("rescore: driver already ran")
	}
	d.started = true
	d.prog.State = "running"
	d.prog.StartedAt = time.Now()
	d.mu.Unlock()
	d.active.Set(1)
	defer d.active.Set(0)

	err := d.run(ctx)
	d.mu.Lock()
	switch {
	case err == nil:
		d.prog.State = "done"
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		d.prog.State = "cancelled"
		d.prog.Error = err.Error()
	default:
		d.prog.State = "failed"
		d.prog.Error = err.Error()
	}
	d.prog.FinishedAt = time.Now()
	d.mu.Unlock()
	if err != nil {
		d.errs.Inc()
	}
	return err
}

func (d *Driver) run(ctx context.Context) error {
	// The shadow opens before the snapshot freezes: a table indexed in
	// between is then either in the snapshot or dual-written into the
	// shadow, never neither.
	if err := d.idx.BeginShadow(); err != nil {
		return err
	}
	committed := false
	defer func() {
		if !committed {
			d.idx.AbortShadow()
		}
	}()
	ids := d.lake.SnapshotIDs()
	d.update(func(p *Progress) { p.Total = len(ids) })

	// A batch goroutine starts only once it holds a budget slot, so at most
	// the budget's limit exist at once. Batches write the shadow in
	// whatever order they finish: every TypeIndex query sorts on a total
	// order, so insertion order is unobservable.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg      sync.WaitGroup
		errOnce sync.Once
		runErr  error
	)
	budget := d.cfg.Budget
	for lo := 0; lo < len(ids) && runCtx.Err() == nil; lo += d.cfg.BatchSize {
		if budget.Acquire(runCtx) != nil {
			break // runCtx is done: a batch failed or ctx was cancelled
		}
		batch := ids[lo:min(lo+d.cfg.BatchSize, len(ids))]
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer budget.Release()
			if err := d.scoreBatch(runCtx, batch); err != nil {
				errOnce.Do(func() {
					runErr = err
					cancel()
				})
			}
		}()
	}
	wg.Wait() // no batch outlives Run
	if runErr != nil {
		return runErr
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	// Scan complete: flip the shadow in. A failure before the flip (modeled
	// by the RescoreSwap fault) leaves the old index serving.
	if err := d.cfg.Faults.Fire(ctx, faultinject.RescoreSwap); err != nil {
		return fmt.Errorf("rescore: swap: %w", err)
	}
	if !d.idx.CommitShadow() {
		return errors.New("rescore: shadow build vanished before commit")
	}
	committed = true
	return nil
}

// scoreBatch scores one batch of snapshot tables in one engine batch and
// writes the predictions into the shadow index.
func (d *Driver) scoreBatch(ctx context.Context, ids []string) error {
	if err := d.cfg.Faults.Fire(ctx, faultinject.RescoreBatch); err != nil {
		return fmt.Errorf("rescore: batch: %w", err)
	}
	tables := make([]*table.Table, len(ids))
	for i, id := range ids {
		tables[i] = d.lake.Get(id) // the lake never drops a table
	}
	preds, err := d.scorer.PredictBatchCtx(ctx, tables)
	if err != nil {
		return err
	}
	skipped := 0
	for i, t := range tables {
		installed, err := d.idx.ShadowAdd(t, preds[i])
		if err != nil {
			return err
		}
		if !installed {
			skipped++ // superseded by a live re-add
			continue
		}
		d.scored.Inc()
	}
	d.update(func(p *Progress) {
		p.Done += len(ids)
		p.Skipped += skipped
	})
	return nil
}
