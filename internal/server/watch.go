// Watchdog wiring (DESIGN.md §16): the server assembles an anomaly watchdog
// over its own signal surfaces — SLO burn-rate pairs, the primary's drift
// χ² score, shadow agreement, admission queue depth and shed rate, re-score
// progress — and binds two closed-loop actions to it: a sustained
// low-agreement candidate is auto-rolled-back (at most once per candidate),
// and a firing fast burn halves the background re-score's concurrency
// budget until the alert clears. Alerts are served at GET /v1/alerts and
// the flight-record ring at GET /v1/flight[/{id}].
package server

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/sematype/pythagoras/internal/obs"
	"github.com/sematype/pythagoras/internal/obs/slo"
	"github.com/sematype/pythagoras/internal/obs/watch"
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

// initWatchdog builds the watchdog and its default rules. Called once from
// NewWithEngine, after the SLO engine, recorder and registry exist.
func (s *Server) initWatchdog() {
	if s.flightDir != "" {
		fd, err := watch.OpenFlightDir(s.flightDir, s.flightMax)
		if err != nil {
			// A broken flight dir must not stop the server from starting —
			// alerting still works, only evidence capture is lost.
			if s.log != nil {
				s.log.Error("flight recorder disabled", "err", err)
			}
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
			return s.burnSignal("5m", "1h")
		},
		Threshold: slo.FastBurnThreshold,
		CoolDown:  interval,
		Capture:   true,
		OnFire: func(watch.Alert) {
			s.rescore.throttle()
			s.actionCount("rescore-throttle")
		},
		OnClear: func(watch.Alert) {
			s.rescore.unthrottle()
			s.actionCount("rescore-restore")
		},
	})
	s.watchdog.Add(watch.Rule{
		Name: "slo-slow-burn",
		Signal: func() (float64, bool) {
			return s.burnSignal("30m", "6h")
		},
		Threshold: slo.SlowBurnThreshold,
		CoolDown:  interval,
		Capture:   true,
	})

	// Sustained type-distribution drift on the primary model.
	s.watchdog.Add(watch.Rule{
		Name: "drift-type-score",
		Signal: func() (float64, bool) {
			d := s.models.primary().engine.Drift()
			if d == nil {
				return 0, false
			}
			return d.TypeScore(), true
		},
		Threshold: driftScoreThreshold,
		For:       3 * interval,
		CoolDown:  interval,
		Capture:   true,
	})

	// Shadow agreement: the auto-rollback gate.
	ag := &agreementSignal{models: s.models}
	s.watchdog.Add(watch.Rule{
		Name:      "shadow-agreement-low",
		Signal:    ag.read,
		Threshold: s.agreeMin,
		Below:     true,
		For:       s.agreeWindow,
		Capture:   true,
		OnFire:    func(a watch.Alert) { s.autoRollbackCandidate(ag.measured(), a) },
	})

	// Admission pressure: queue nearly full, and the shed rate per tick.
	s.watchdog.Add(watch.Rule{
		Name: "queue-saturated",
		Signal: func() (float64, bool) {
			if s.maxInflight <= 0 {
				return 0, false
			}
			return float64(s.queued.Load()) / float64(s.maxInflight), true
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

	// A re-score whose done count has not moved for 10 intervals is
	// stalled — wedged in a batch, or starved below its budget.
	st := &stallSignal{runner: s.rescore}
	s.watchdog.Add(watch.Rule{
		Name:      "rescore-stalled",
		Signal:    st.read,
		Threshold: 0.5,
		For:       10 * interval,
		Capture:   true,
	})
}

// burnSignal folds the SLO engine's per-objective burn rates into one
// watchdog value: the worst objective's minimum over the short and long
// window of a pair, so the rule threshold compares against exactly the AND
// the engine's alert pairs define.
func (s *Server) burnSignal(short, long string) (float64, bool) {
	objs := s.sloEng.Status().Objectives
	worst := 0.0
	for _, o := range objs {
		rate := map[string]float64{}
		for _, w := range o.Burn {
			rate[w.Window] = w.BurnRate
		}
		if v := min(rate[short], rate[long]); v > worst {
			worst = v
		}
	}
	return worst, len(objs) > 0
}

// agreementSignal reads the shadowing candidate's agreement rate. The
// signal is unavailable (ok=false) when no candidate is loaded, when the
// candidate changed since the last tick (each candidate gets a fresh
// for-duration window), or before minShadowCompared columns have been
// compared (a two-column fluke must not roll a fresh candidate back).
type agreementSignal struct {
	models *modelSet
	mu     sync.Mutex
	last   *modelSlot
}

// measured returns the candidate the latest read measured (nil: none).
// The watchdog ticks serially, so in a fire action that is the candidate
// whose agreement fired the rule.
func (g *agreementSignal) measured() *modelSlot {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.last
}

func (g *agreementSignal) read() (float64, bool) {
	cand := g.models.view().candidate
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

// stallSignal reports 1 when the running re-score's done count did not
// advance since the previous tick, 0 when it did, and unavailable when no
// re-score is running. A new run (a new start time) primes fresh.
type stallSignal struct {
	runner   *rescoreRunner
	mu       sync.Mutex
	started  time.Time
	lastDone int
}

func (g *stallSignal) read() (float64, bool) {
	p := g.runner.progress()
	g.mu.Lock()
	defer g.mu.Unlock()
	if p.State != "running" || !p.StartedAt.Equal(g.started) {
		g.started, g.lastDone = p.StartedAt, p.Done
		return 0, false
	}
	stalled := 0.0
	if p.Done == g.lastDone {
		stalled = 1
	}
	g.lastDone = p.Done
	return stalled, true
}

// autoRollbackCandidate is the shadow-agreement-low fire action: discard
// cand, the candidate whose agreement the firing tick read, through the
// discard POST /v1/models/rollback uses, recorded as
// models.swap{event=auto-rollback}. The action runs after the alert's
// flight capture; a candidate loaded meanwhile was never measured, and the
// compare-and-discard leaves it loaded. No transition stores a discarded
// slot again, so the action ends each loaded candidate at most once, and a
// newly loaded candidate is a new slot with a fresh rule window.
func (s *Server) autoRollbackCandidate(cand *modelSlot, a watch.Alert) {
	if cand == nil || s.models.discard(cand) == nil {
		return
	}
	s.actionCount("auto-rollback")
	s.recordEvent("models.swap", "model", "auto-rollback",
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
