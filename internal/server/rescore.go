// Lake re-score control plane (DESIGN.md §15): after a model promote, the
// discovery index still carries the previous model's predictions for every
// table indexed before the swap. POST /v1/index/rescore walks the retained
// lake through the new primary in the background — bounded concurrency,
// shadow index — and atomically flips the discovery index when the scan
// completes, so queries go from "all old model" to "all new model" in one
// step and never see a mix. GET /v1/index/rescore reports progress;
// promote, rollback and shutdown cancel an active run (the old index keeps
// serving, and the next run starts over from the lake).
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"github.com/sematype/pythagoras/internal/discovery"
	"github.com/sematype/pythagoras/internal/rescore"
	"github.com/sematype/pythagoras/internal/table"
)

// rescoreRunner is the lake re-score run the server owns: the retained
// lake, the settings every run scores under (batch size, and the
// server-lifetime budget the watchdog throttles), and the at-most-one run.
type rescoreRunner struct {
	lake     *rescore.Lake
	index    *discovery.SwapIndex
	cfg      rescore.Config             // ModelID is set per run
	primary  func() *modelSlot          // the slot a run scores on
	draining func() bool                // Shutdown began: refuse starts
	record   func(event, detail string) // rescore.events{event=}

	mu  sync.Mutex
	run *rescoreRun // the latest run, kept once finished for its final state
}

// rescoreRun binds one driver to the slot it scores on, its cancellation
// and its completion signal.
type rescoreRun struct {
	drv    *rescore.Driver
	slot   *modelSlot
	cancel context.CancelFunc
	done   chan struct{}
}

// errShuttingDown refuses a start once Shutdown has begun.
var errShuttingDown = errors.New("server is shutting down")

// put retains t so later runs re-type it.
func (r *rescoreRunner) put(t *table.Table) { r.lake.Put(t) }

// activeLocked returns the latest run if it has not finished. Caller holds
// r.mu.
func (r *rescoreRunner) activeLocked() *rescoreRun {
	if run := r.run; run != nil {
		select {
		case <-run.done:
		default:
			return run
		}
	}
	return nil
}

// progress reports the latest run's progress, state "idle" before the
// first.
func (r *rescoreRunner) progress() rescore.Progress {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.run == nil {
		return rescore.Progress{State: "idle"}
	}
	return r.run.drv.Progress()
}

// start begins a run over the whole lake on the primary slot, on its own
// context: the client that kicked it off is gone long before a lake-sized
// scan finishes. It reads the primary under r.mu, and promote and rollback
// store their new view before their cancel takes r.mu, so a start either
// registers its run first, and that cancel sees it, or reads the new
// primary.
func (r *rescoreRunner) start() (rescore.Progress, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.draining() {
		return rescore.Progress{}, errShuttingDown
	}
	if run := r.activeLocked(); run != nil {
		return rescore.Progress{}, fmt.Errorf("a re-score is already running (model %q)", run.slot.id)
	}
	slot := r.primary()
	cfg := r.cfg
	cfg.ModelID = slot.id
	ctx, cancel := context.WithCancel(context.Background())
	drv := rescore.New(r.lake, slot.engine, r.index, cfg)
	run := &rescoreRun{drv: drv, slot: slot, cancel: cancel, done: make(chan struct{})}
	r.run = run
	r.record("rescore-start", "model "+slot.id)
	go func() {
		defer close(run.done)
		defer cancel()
		err := run.drv.Run(ctx)
		switch p := run.drv.Progress(); {
		case err == nil:
			r.record("rescore-done", "model "+slot.id)
		case p.State == "cancelled":
			// rescore-cancel was recorded when the cancellation was requested.
		default:
			r.record("rescore-fail", err.Error())
		}
	}()
	return run.drv.Progress(), nil
}

// cancel cancels the active run once the slot it scores on is no longer
// primary (promote and rollback call it after storing their new view) or
// Shutdown began (which sets draining first, so a start either registered a
// run this cancels, or is refused). It does not wait for the run to unwind:
// only a completed scan commits.
func (r *rescoreRunner) cancel(reason string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if run := r.activeLocked(); run != nil && (r.draining() || run.slot != r.primary()) {
		run.cancel()
		r.record("rescore-cancel", reason)
	}
}

// wait blocks until the latest run has unwound or ctx expires — Shutdown's
// barrier, so no re-score goroutine outlives the server.
func (r *rescoreRunner) wait(ctx context.Context) error {
	r.mu.Lock()
	run := r.run
	r.mu.Unlock()
	if run != nil {
		select {
		case <-run.done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// throttle halves the concurrency budget (to at least 1) while the SLO fast
// burn fires; unthrottle restores its base when the alert clears.
func (r *rescoreRunner) throttle()   { r.cfg.Budget.SetLimit(max(r.cfg.Budget.Base()/2, 1)) }
func (r *rescoreRunner) unthrottle() { r.cfg.Budget.SetLimit(r.cfg.Budget.Base()) }

// handleRescoreStart is POST /v1/index/rescore: start a background
// re-score of the lake on the primary model and answer with its
// rescore.Progress; 409 while one runs (cancel by rolling back, or wait),
// 503 once Shutdown has begun. The request body is ignored: the model is
// always the primary, and the batch size is server configuration.
func (s *Server) handleRescoreStart(w http.ResponseWriter, r *http.Request) {
	p, err := s.rescore.start()
	switch {
	case err == errShuttingDown:
		writeShuttingDown(w)
	case err != nil:
		writeErr(w, http.StatusConflict, "%v", err)
	default:
		writeJSON(w, http.StatusAccepted, p)
	}
}

// handleRescoreStatus is GET /v1/index/rescore: the rescore.Progress of the
// current (or most recent) re-score run, state "idle" before the first.
func (s *Server) handleRescoreStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.rescore.progress())
}
