// Package faultinject is the deterministic fault-injection substrate behind
// the chaos test suite (DESIGN.md §9): named injection points inside the
// serving path (the stages of core's scorer, the server's admission path)
// fire registered actions — artificial latency, forced errors, mid-flight
// context cancellation — so tests can reproduce, on demand and without
// sleeps-and-hope timing, the production failure modes the stack must
// survive: slow chunks under a deadline, clients vanishing mid-batch,
// bursts over capacity, shutdown while busy.
//
// The package is wired into production code but costs nothing there: every
// method is nil-safe, and a nil *Set (the default — nothing ever registers
// one outside tests) makes Fire a single branch. Actions are plain
// functions, composed with the After/Times helpers for "fail only the Nth
// call" determinism, and latency injection (Sleep) is context-aware so
// cancellation cuts an injected delay short exactly like it would a real
// slow stage.
package faultinject

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Point names an injection site. Sites are compiled into the serving path;
// the constants below are the ones the scorer, the server and the trainer
// fire today.
type Point string

// Injection points wired into core's scorer (the infer.* points, armed by
// the serving engine's fault set), internal/server and core's trainer.
const (
	// InferPrepare fires once per table at the start of the prepare stage.
	InferPrepare Point = "infer.prepare"
	// InferUnion fires once per chunk, before the graph union.
	InferUnion Point = "infer.union"
	// InferForward fires once per chunk, before the gradient-free forward.
	InferForward Point = "infer.forward"
	// InferDecode fires once per table, before its predictions are decoded.
	InferDecode Point = "infer.decode"
	// ServerHandle fires once per admitted HTTP request, before the mux.
	ServerHandle Point = "server.handle"
	// ServerModelLoad fires inside POST /v1/models, after the request is
	// validated and before the checkpoint is read — an injected error is a
	// deterministic stand-in for a corrupt or vanished checkpoint file.
	ServerModelLoad Point = "server.model.load"
	// ServerSwap fires inside promote and rollback, after the new slot view
	// is stored and before the swap event is recorded — the window the
	// swap-under-fire chaos suite stretches with injected latency while
	// traffic is in flight.
	ServerSwap Point = "server.swap"
	// ServerShadow fires at the start of every shadow-scoring task, on the
	// shadow goroutine — injected latency or errors there must never be
	// observable on the primary serving path.
	ServerShadow Point = "server.shadow"
	// RescoreBatch fires once per lake re-score batch, before it is scored
	// on the engine — injected latency stretches the window rollback-
	// cancellation tests race against; an injected error models a scoring
	// failure aborting the run.
	RescoreBatch Point = "rescore.batch"
	// RescoreSwap fires after the scan completes, before the snapshot index
	// flip — the last instant at which a crash leaves the old index
	// serving.
	RescoreSwap Point = "rescore.swap"
	// WatchTick fires at the start of every watchdog evaluation tick, before
	// any rule is read — injected latency models a slow signal read, an
	// injected error skips the tick entirely (rules keep their state).
	WatchTick Point = "watch.tick"
	// WatchCapture fires before a flight record is assembled and written —
	// an injected error is the deterministic stand-in for a full disk or a
	// crash mid-capture; the alert itself must still fire and act.
	WatchCapture Point = "watch.capture"
	// TrainPrepare fires once per table in the trainer's prepare stage.
	TrainPrepare Point = "train.prepare"
	// TrainStep fires once per optimizer step, before the data-parallel
	// forward/backward passes.
	TrainStep Point = "train.step"
	// TrainMerge fires once per optimizer step, after the sub-batch
	// gradients are in and before the fixed-order merge + Adam update.
	TrainMerge Point = "train.merge"
	// TrainVal fires once per epoch, before validation scoring.
	TrainVal Point = "train.val"
)

// Action is one injected behavior. A non-nil error aborts the stage that
// fired it, exactly as a real failure at that point would.
type Action func(ctx context.Context) error

// Set holds the registered actions of one test scenario. The zero value and
// nil are both valid empty sets; Fire on them is a no-op. Registration (On)
// and firing may run concurrently — chaos tests arm new faults while traffic
// is in flight.
type Set struct {
	mu      sync.RWMutex
	actions map[Point][]Action
	counts  sync.Map // Point → *atomic.Uint64, fires per point
}

// New returns an empty fault set.
func New() *Set { return &Set{} }

// On registers an action at a point (several stack in registration order).
// Returns the set for chaining.
func (s *Set) On(p Point, a Action) *Set {
	if s == nil || a == nil {
		return s
	}
	s.mu.Lock()
	if s.actions == nil {
		s.actions = map[Point][]Action{}
	}
	s.actions[p] = append(s.actions[p], a)
	s.mu.Unlock()
	return s
}

// Fire runs the actions registered at p, stopping at the first error. It is
// the call compiled into the serving path: nil-safe, and a single branch
// when no set is attached or nothing is registered at p.
func (s *Set) Fire(ctx context.Context, p Point) error {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	acts := s.actions[p]
	s.mu.RUnlock()
	if len(acts) == 0 {
		return nil
	}
	s.count(p).Add(1)
	for _, a := range acts {
		if err := a(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Fired reports how many times point p fired an armed action.
func (s *Set) Fired(p Point) uint64 {
	if s == nil {
		return 0
	}
	return s.count(p).Load()
}

func (s *Set) count(p Point) *atomic.Uint64 {
	if c, ok := s.counts.Load(p); ok {
		return c.(*atomic.Uint64)
	}
	c, _ := s.counts.LoadOrStore(p, &atomic.Uint64{})
	return c.(*atomic.Uint64)
}

// Sleep injects d of latency, cut short (returning ctx.Err()) if the
// context is cancelled first — an injected delay must behave like a real
// slow stage, which the cancellation plumbing is allowed to abandon.
func Sleep(d time.Duration) Action {
	return func(ctx context.Context) error {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Err injects a constant failure.
func Err(err error) Action {
	return func(context.Context) error { return err }
}

// Cancel invokes cancel and returns the context's (now set) error — the
// deterministic stand-in for "the client vanished exactly here".
func Cancel(cancel context.CancelFunc) Action {
	return func(ctx context.Context) error {
		cancel()
		if err := ctx.Err(); err != nil {
			return err
		}
		// The cancelled context is not the one threaded here (test wired a
		// different one); the stage still observes a cancellation error.
		return context.Canceled
	}
}

// After gates a — the first n calls are no-ops, every later call fires it.
// Deterministically targets "the Nth chunk" style scenarios.
func After(n uint64, a Action) Action {
	var calls atomic.Uint64
	return func(ctx context.Context) error {
		if calls.Add(1) <= n {
			return nil
		}
		return a(ctx)
	}
}

// Times limits a to its first n calls; later calls are no-ops.
func Times(n uint64, a Action) Action {
	var calls atomic.Uint64
	return func(ctx context.Context) error {
		if calls.Add(1) > n {
			return nil
		}
		return a(ctx)
	}
}
