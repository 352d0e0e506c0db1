// Watchdog wiring (DESIGN.md §16): the server assembles an anomaly watchdog
// over its own signal surfaces — SLO burn-rate pairs, the primary's drift
// χ² score, shadow agreement, admission queue depth and shed rate, re-score
// cursor progress — and binds two closed-loop actions to it: a sustained
// low-agreement candidate is auto-rolled-back (at most once per candidate),
// and a firing fast burn halves the background re-score's concurrency
// budget until the alert clears. Alerts are served at GET /v1/alerts and
// the flight-record ring at GET /v1/flight[/{id}].
package server

import (
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"github.com/sematype/pythagoras/internal/obs"
	"github.com/sematype/pythagoras/internal/obs/logz"
	"github.com/sematype/pythagoras/internal/obs/slo"
	"github.com/sematype/pythagoras/internal/obs/watch"
	"github.com/sematype/pythagoras/internal/rescore"
)

// Watchdog defaults: the agreement gate matches what an operator would eye
// on the shadow dashboard before promoting, and the comparison floor keeps
// a two-column fluke from rolling back a fresh candidate.
const (
	DefaultShadowAgreementMin    = 0.85
	DefaultShadowAgreementWindow = time.Minute
	minShadowCompared            = 8
	// driftScoreThreshold is where the primary's χ² type-distribution score
	// is treated as sustained drift rather than sampling noise.
	driftScoreThreshold = 0.5
	// queueSaturationThreshold fires when the admission queue is nearly
	// full — the tick before shedding starts.
	queueSaturationThreshold = 0.9
)

// WithWatchInterval sets the watchdog evaluation period (default
// watch.DefaultInterval). Values ≤ 0 keep the default.
func WithWatchInterval(d time.Duration) Option {
	return func(s *Server) {
		if d > 0 {
			s.watchInterval = d
		}
	}
}

// WithFlightDir enables the on-disk flight recorder: rules marked for
// capture write evidence bundles (metrics snapshot, sampled traces,
// goroutine/heap profiles, CPU delta) into a ring of at most max records
// under dir. Empty dir (the default) disables capture.
func WithFlightDir(dir string, max int) Option {
	return func(s *Server) {
		s.flightDir = dir
		s.flightMax = max
	}
}

// WithWatchNow injects the watchdog's clock — the fake-clock seam that
// makes for-duration and cool-down math exact in tests.
func WithWatchNow(now func() time.Time) Option {
	return func(s *Server) { s.watchNow = now }
}

// WithShadowAgreement tunes the auto-rollback gate: a shadowing candidate
// whose per-column agreement rate stays below min for window is discarded
// automatically (at most once per candidate). min ≤ 0 keeps the default
// gate, window ≤ 0 the default window.
func WithShadowAgreement(min float64, window time.Duration) Option {
	return func(s *Server) {
		if min > 0 {
			s.agreeMin = min
		}
		if window > 0 {
			s.agreeWindow = window
		}
	}
}

// Watchdog exposes the server's anomaly watchdog — callers start its tick
// loop (cmd/pythagoras serve) or drive Tick directly (tests).
func (s *Server) Watchdog() *watch.Watchdog { return s.watchdog }

// Flights exposes the flight-record ring, nil when no -flight-dir is set.
func (s *Server) Flights() *watch.FlightDir { return s.flights }

// RescoreBudget exposes the shared re-score concurrency budget the
// watchdog throttles.
func (s *Server) RescoreBudget() *rescore.Budget { return s.rescoreBudget }

// initWatchdog builds the watchdog and its default rules. Called once from
// NewWithEngine, after the SLO engine, recorder and registry exist.
func (s *Server) initWatchdog() {
	if s.flightDir != "" {
		fd, err := watch.OpenFlightDir(s.flightDir, s.flightMax)
		if err != nil {
			// A broken flight dir must not stop the server from starting —
			// alerting still works, only evidence capture is lost.
			if s.logger != nil {
				s.logger.Printf("watch: flight recorder disabled: %v", err)
			}
			s.slog.Log(logz.Error, "flight recorder disabled", "err", err.Error())
		} else {
			s.flights = fd
		}
	}
	s.watchdog = watch.New(watch.Config{
		Interval: s.watchInterval,
		Now:      s.watchNow,
		Annotate: s.sloEng.Annotate,
		Flights:  s.flights,
		Sources: watch.Sources{
			Metrics: func() any { return s.metrics.Snapshot() },
			Traces:  func() []obs.Trace { return s.recorder.Traces(obs.TraceFilter{Limit: 32}) },
		},
		Faults:  s.faults,
		Metrics: s.metrics,
	})
	s.addWatchRules()
}

// actionCount records one watchdog action execution under
// watch.actions{action=}.
func (s *Server) actionCount(action string) {
	s.metrics.Counter(obs.Labels("watch.actions", "action", action)).Inc()
}

// addWatchRules registers the server's built-in rule set.
func (s *Server) addWatchRules() {
	interval := s.watchdog.Interval()

	// SLO burn-rate pairs. Fast burn (page-now severity) fires on the first
	// breaching tick — the engine's own multi-window AND is the hysteresis —
	// and throttles the background re-score so recovery capacity goes to
	// live traffic. The clear restores the budget to its base.
	s.watchdog.Add(watch.Rule{
		Name: "slo-fast-burn",
		Signal: func() (float64, bool) {
			return s.burnSignal(func(a slo.BurnAlert) float64 { return math.Min(a.Rate5m, a.Rate1h) })
		},
		Threshold: slo.FastBurnThreshold,
		CoolDown:  interval,
		Capture:   true,
		OnFire: func(watch.Alert) {
			half := s.rescoreBudget.Base() / 2
			if half < 1 {
				half = 1
			}
			s.rescoreBudget.SetLimit(half)
			s.actionCount("rescore-throttle")
		},
		OnClear: func(watch.Alert) {
			s.rescoreBudget.SetLimit(s.rescoreBudget.Base())
			s.actionCount("rescore-restore")
		},
	})
	s.watchdog.Add(watch.Rule{
		Name: "slo-slow-burn",
		Signal: func() (float64, bool) {
			return s.burnSignal(func(a slo.BurnAlert) float64 { return math.Min(a.Rate30m, a.Rate6h) })
		},
		Threshold: slo.SlowBurnThreshold,
		CoolDown:  interval,
		Capture:   true,
	})

	// Sustained type-distribution drift on the primary model.
	s.watchdog.Add(watch.Rule{
		Name: "drift-type-score",
		Signal: func() (float64, bool) {
			slot := s.primary.Load()
			if slot == nil || slot.drift == nil {
				return 0, false
			}
			return slot.drift.TypeScore(), true
		},
		Threshold: driftScoreThreshold,
		For:       3 * interval,
		CoolDown:  interval,
		Capture:   true,
	})

	// Shadow agreement: the auto-rollback gate.
	ag := &agreementSignal{s: s}
	s.watchdog.Add(watch.Rule{
		Name:      "shadow-agreement-low",
		Signal:    ag.read,
		Threshold: s.agreeMin,
		Below:     true,
		For:       s.agreeWindow,
		Capture:   true,
		OnFire:    s.autoRollbackCandidate,
	})

	// Admission pressure: queue nearly full, and the shed rate per tick.
	s.watchdog.Add(watch.Rule{
		Name: "queue-saturated",
		Signal: func() (float64, bool) {
			if s.maxQueue <= 0 {
				return 0, false
			}
			return float64(s.queued.Load()) / float64(s.maxQueue), true
		},
		Threshold: queueSaturationThreshold,
		For:       interval,
		CoolDown:  interval,
		Capture:   true,
	})
	s.watchdog.Add(watch.Rule{
		Name:      "shed-rate",
		Signal:    (&deltaSignal{c: s.shed}).read,
		Threshold: 0, // any shedding at all in a tick window is a breach
		For:       interval,
		CoolDown:  interval,
	})

	// A re-score whose committed cursor has not moved for 10 intervals is
	// stalled — wedged on a lease, or starved below its budget.
	st := &stallSignal{s: s}
	s.watchdog.Add(watch.Rule{
		Name:      "rescore-stalled",
		Signal:    st.read,
		Threshold: 0.5,
		For:       10 * interval,
		Capture:   true,
	})
}

// burnSignal folds the SLO engine's per-objective burn alerts into one
// watchdog value: the worst objective's pair minimum, so the rule threshold
// compares against exactly the AND the engine's alert pairs define.
func (s *Server) burnSignal(pair func(slo.BurnAlert) float64) (float64, bool) {
	alerts := s.sloEng.Alerts()
	if len(alerts) == 0 {
		return 0, false
	}
	worst := 0.0
	for _, a := range alerts {
		if v := pair(a); v > worst {
			worst = v
		}
	}
	return worst, true
}

// agreementSignal reads the shadowing candidate's agreement rate. The
// signal is unavailable (ok=false) when no candidate is loaded, when the
// candidate changed since the last tick (each candidate gets a fresh
// for-duration window), or before minShadowCompared columns have been
// compared (a two-column fluke must not roll a fresh candidate back).
type agreementSignal struct {
	s    *Server
	mu   sync.Mutex
	last *modelSlot
}

func (g *agreementSignal) read() (float64, bool) {
	cand := g.s.candidate.Load()
	g.mu.Lock()
	changed := cand != g.last
	g.last = cand
	g.mu.Unlock()
	if cand == nil || changed {
		return 0, false
	}
	compared := cand.mx.compared.Value()
	if compared < minShadowCompared {
		return 0, false
	}
	return float64(cand.mx.agree.Value()) / float64(compared), true
}

// deltaSignal turns a cumulative counter into a per-tick delta. The first
// read only primes the cursor.
type deltaSignal struct {
	c      *obs.Counter
	mu     sync.Mutex
	last   uint64
	primed bool
}

func (d *deltaSignal) read() (float64, bool) {
	v := d.c.Value()
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.primed {
		d.primed = true
		d.last = v
		return 0, false
	}
	delta := v - d.last
	d.last = v
	return float64(delta), true
}

// stallSignal reports 1 when the active re-score's committed cursor did not
// advance since the previous tick, 0 when it did, and unavailable when no
// re-score is running. A new run primes fresh.
type stallSignal struct {
	s        *Server
	mu       sync.Mutex
	lastRun  *rescoreRun
	lastDone int
}

func (g *stallSignal) read() (float64, bool) {
	run := g.s.activeRescore()
	if run == nil {
		g.mu.Lock()
		g.lastRun = nil
		g.mu.Unlock()
		return 0, false
	}
	done := run.drv.Progress().Done
	g.mu.Lock()
	defer g.mu.Unlock()
	if run != g.lastRun {
		g.lastRun = run
		g.lastDone = done
		return 0, false
	}
	stalled := 0.0
	if done == g.lastDone {
		stalled = 1
	}
	g.lastDone = done
	return stalled, true
}

// autoRollbackCandidate is the shadow-agreement-low fire action: discard
// the shadowing candidate, exactly the way POST /v1/models/rollback would,
// recorded as models.swap{event=auto-rollback}. The autoRolledBack pointer
// latch makes it at-most-once per loaded candidate: a slot pointer is
// unique per load, so even if the rule re-fires before its state clears,
// the same candidate is never rolled twice — and a newly loaded candidate
// resets the gate naturally by being a new pointer.
func (s *Server) autoRollbackCandidate(a watch.Alert) {
	s.lcMu.Lock()
	defer s.lcMu.Unlock()
	cand := s.candidate.Load()
	if cand == nil || cand == s.autoRolledBack {
		return
	}
	s.autoRolledBack = cand
	s.candidate.Store(nil)
	s.retireSlot(cand, "shadow")
	s.actionCount("auto-rollback")
	s.recordSwap("auto-rollback",
		fmt.Sprintf("candidate %q agreement %.3f below %.3f for %s", cand.id, a.Value, a.Threshold, s.agreeWindow))
}

// handleAlerts is GET /v1/alerts: currently firing alerts and the bounded
// history of past transitions.
func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.watchdog.Alerts())
}

// FlightListResponse is the body of GET /v1/flight.
type FlightListResponse struct {
	Count   int                `json:"count"`
	Flights []watch.FlightInfo `json:"flights"`
}

// handleFlightList is GET /v1/flight: the on-disk ring's records, newest
// first. Served (empty) even when the recorder is disabled, so dashboards
// need no probe.
func (s *Server) handleFlightList(w http.ResponseWriter, r *http.Request) {
	list := s.flights.List()
	if list == nil {
		list = []watch.FlightInfo{}
	}
	writeJSON(w, http.StatusOK, FlightListResponse{Count: len(list), Flights: list})
}

// handleFlightGet is GET /v1/flight/{id}: one full evidence bundle.
func (s *Server) handleFlightGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, err := s.flights.Load(id)
	if err != nil {
		writeErr(w, http.StatusNotFound, "flight record %q not found", id)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}
