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
	"net/http"
	"sync"

	"github.com/sematype/pythagoras/internal/obs"
	"github.com/sematype/pythagoras/internal/rescore"
)

// rescoreState tracks the at-most-one background re-score run. The latest
// run (running or finished) stays referenced so GET /v1/index/rescore can
// report terminal states, not just live ones.
type rescoreState struct {
	mu  sync.Mutex
	run *rescoreRun
}

// rescoreRun binds one driver to its cancellation and completion signal.
type rescoreRun struct {
	drv     *rescore.Driver
	cancel  context.CancelFunc
	done    chan struct{}
	modelID string
}

// activeRescore returns the current run if it has not finished yet.
func (s *Server) activeRescore() *rescoreRun {
	s.rescore.mu.Lock()
	defer s.rescore.mu.Unlock()
	if r := s.rescore.run; r != nil {
		select {
		case <-r.done:
		default:
			return r
		}
	}
	return nil
}

// cancelRescore cancels an active re-score, if any, and returns whether one
// was cancelled. It does not wait for the run to unwind — the driver aborts
// its shadow build on its own goroutine; the old index is never in danger
// because only a completed scan commits. Called by promote and rollback
// (the model the scan is scoring on is leaving) and by Shutdown.
func (s *Server) cancelRescore(reason string) bool {
	r := s.activeRescore()
	if r == nil {
		return false
	}
	r.cancel()
	s.recordRescore("rescore-cancel", reason)
	return true
}

// awaitRescore blocks until the current run (if any) has fully unwound or
// ctx expires — Shutdown's barrier, so no re-score goroutine outlives the
// server.
func (s *Server) awaitRescore(ctx context.Context) error {
	s.rescore.mu.Lock()
	r := s.rescore.run
	s.rescore.mu.Unlock()
	if r == nil {
		return nil
	}
	select {
	case <-r.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// recordRescore counts a re-score lifecycle event under
// rescore.events{event=}, annotates the SLO timeline and logs it — the same
// forensic trail model swaps leave, so an operator reading the timeline
// sees promote → rescore-start → rescore-done as one story.
func (s *Server) recordRescore(event, detail string) {
	s.metrics.Counter(obs.Labels("rescore.events", "event", event)).Inc()
	s.sloEng.Annotate(event, detail)
	if s.log != nil {
		s.log.Info("lake "+event, "detail", detail)
	}
}

// handleRescoreStart is POST /v1/index/rescore: start a background
// re-score of every retained lake table on the current primary model, and
// answer with its rescore.Progress. 409 when one is already running —
// re-scores are one-at-a-time; cancel by rolling back, or wait. 503 once
// Shutdown has begun. The request body is ignored: which model to use is
// never a choice (always the primary), so there is nothing to parameterize
// per-request; the batch size is server configuration.
func (s *Server) handleRescoreStart(w http.ResponseWriter, r *http.Request) {
	// lcMu serializes the start against promote/rollback, which hold it
	// while they cancel any active re-score and swap the primary pointer.
	// Reading the primary without it races that sequence: the read can land
	// on the outgoing primary after the swap's cancelRescore already ran but
	// before the pointer moved, and the unregistered run would proceed on a
	// demoted model and eventually flip in an index typed by it. Under lcMu
	// the start either completes first (and the promote's cancel then kills
	// the registered run) or observes the new primary. Lock order is
	// lcMu → rescore.mu, matching cancelRescore's lifecycle callers.
	s.lcMu.Lock()
	defer s.lcMu.Unlock()
	s.rescore.mu.Lock()
	defer s.rescore.mu.Unlock()
	// The route is admission-exempt, so the middleware's draining gate never
	// sees it. Shutdown sets draining before its cancelRescore takes
	// rescore.mu, so under that lock a start either registers a run that
	// Shutdown then cancels and awaits, or sees draining and is refused.
	if s.draining.Load() {
		writeShuttingDown(w)
		return
	}
	if run := s.rescore.run; run != nil {
		select {
		case <-run.done:
		default:
			writeErr(w, http.StatusConflict, "a re-score is already running (model %q)", run.modelID)
			return
		}
	}
	slot := s.primary.Load()
	drv := rescore.New(s.lake, slot.engine, s.index, rescore.Config{
		ModelID:   slot.id,
		BatchSize: s.rescoreBatch,
		// The server-lifetime budget, not a per-run semaphore: the watchdog
		// holds a reference and throttles it while the SLO fast burn fires.
		Budget:  s.rescoreBudget,
		Faults:  s.faults,
		Metrics: s.metrics,
	})
	// The run's context is the server's, not the request's: the client that
	// kicked the re-score off disconnects long before a lake-sized scan
	// finishes. Cancellation comes from rollback/promote/shutdown instead.
	ctx, cancel := context.WithCancel(context.Background())
	run := &rescoreRun{drv: drv, cancel: cancel, done: make(chan struct{}), modelID: slot.id}
	s.rescore.run = run
	s.recordRescore("rescore-start", "model "+slot.id)
	go func() {
		defer close(run.done)
		defer cancel()
		err := drv.Run(ctx)
		switch p := drv.Progress(); {
		case err == nil:
			s.recordRescore("rescore-done", "model "+run.modelID)
		case p.State == "cancelled":
			// rescore-cancel was recorded when the cancellation was requested.
		default:
			s.recordRescore("rescore-fail", err.Error())
		}
	}()
	writeJSON(w, http.StatusAccepted, drv.Progress())
}

// handleRescoreStatus is GET /v1/index/rescore: the rescore.Progress of the
// current (or most recent) re-score run. State "idle" (zero Progress
// otherwise) means no re-score has run since boot.
func (s *Server) handleRescoreStatus(w http.ResponseWriter, r *http.Request) {
	s.rescore.mu.Lock()
	run := s.rescore.run
	s.rescore.mu.Unlock()
	if run == nil {
		writeJSON(w, http.StatusOK, rescore.Progress{State: "idle"})
		return
	}
	writeJSON(w, http.StatusOK, run.drv.Progress())
}
