// Package watch is the anomaly watchdog (DESIGN.md §16): declarative rules
// evaluated over the serving stack's existing signal surfaces — SLO burn-rate
// pairs, drift χ² gauges, shadow agreement, admission queue depth and shed
// rate, re-score progress — on a fixed tick with per-rule hysteresis.
//
// The watchdog closes the loop that the rest of internal/obs leaves open:
// metrics are exported and then nobody looks at them. A Rule names a signal,
// a threshold, and two durations — For (the breach must persist this long
// before the rule fires) and CoolDown (the condition must stay clear this
// long before the alert clears) — so a flapping signal neither pages nor
// un-pages on every tick. When a rule fires the watchdog records an alert in
// a bounded in-memory ring (served at GET /v1/alerts), annotates the SLO
// timeline, optionally captures a flight record (flight.go) — the evidence
// bundle an operator opens instead of ssh'ing into a machine that has since
// recycled — and runs the rule's bound action (auto-rollback, re-score
// throttle) exactly at the ok→firing and firing→ok transitions.
//
// Everything is deterministic under test: the clock is injectable, Tick is
// exported so a fake-clock test steps evaluation explicitly, and the
// WatchTick/WatchCapture fault points let the chaos suite model slow signal
// reads and failed captures.
package watch

import (
	"context"
	"sync"
	"time"

	"github.com/sematype/pythagoras/internal/faultinject"
	"github.com/sematype/pythagoras/internal/obs"
)

// maxAlerts bounds the in-memory alert ring: old incidents scroll off, the
// watchdog never grows without bound.
const maxAlerts = 128

// DefaultInterval is the watchdog tick period when Config leaves it zero.
const DefaultInterval = 5 * time.Second

// Rule declares one watched condition. The zero duration For fires on the
// first breaching tick; the zero CoolDown clears on the first clear tick.
type Rule struct {
	// Name identifies the rule in alerts, metric labels and flight records.
	Name string
	// Signal reads the watched value. ok=false means the signal is
	// unavailable this tick (no candidate loaded, no re-score active, not
	// enough samples) — the rule resets to ok and its hysteresis restarts.
	Signal func() (value float64, ok bool)
	// Threshold is the breach boundary; Below inverts the comparison
	// (fire when value < Threshold instead of value > Threshold).
	Threshold float64
	Below     bool
	// For is how long the breach must persist before the rule fires.
	For time.Duration
	// CoolDown is how long the condition must stay clear, continuously,
	// before a firing alert clears.
	CoolDown time.Duration
	// Capture requests a flight record at fire time (needs a FlightDir).
	Capture bool
	// OnFire/OnClear run at the state transitions, outside the watchdog's
	// lock — they may take arbitrary locks of their own (the lifecycle
	// mutex, the re-score budget). Either may be nil.
	OnFire  func(a Alert)
	OnClear func(a Alert)
}

// Alert is one firing (or since-cleared) rule instance, served at
// GET /v1/alerts.
type Alert struct {
	Rule      string    `json:"rule"`
	State     string    `json:"state"` // "firing" or "cleared"
	Value     float64   `json:"value"` // signal value at fire time
	Threshold float64   `json:"threshold"`
	FiredAt   time.Time `json:"fired_at"`
	ClearedAt time.Time `json:"cleared_at"`
	// FlightID names the flight record captured when the rule fired, empty
	// when capture was disabled or failed.
	FlightID string `json:"flight_id,omitempty"`
}

// rule evaluation states.
const (
	stateOK      = "ok"
	statePending = "pending"
	stateFiring  = "firing"
)

// ruleState is one rule's hysteresis state machine.
type ruleState struct {
	rule        Rule
	state       string
	breachSince time.Time // first tick of the current contiguous breach
	clearSince  time.Time // first clear tick while firing (zero = still breaching)
	active      *Alert    // ring entry while firing
	fired       *obs.Counter
}

// Sources are the read hooks a flight record captures from. Either may be
// nil (the corresponding section is omitted).
type Sources struct {
	// Metrics returns the point-in-time metrics snapshot (obs.Snapshot).
	Metrics func() any
	// Traces returns the sampled traces to embed — typically the newest
	// slice of the trace recorder's ring.
	Traces func() []obs.Trace
}

// Config assembles a Watchdog.
type Config struct {
	// Interval is the tick period for Start's background loop
	// (DefaultInterval when zero). Tick can always be called directly.
	Interval time.Duration
	// Now injects the clock (time.Now when nil) — the fake-clock seam that
	// makes For/CoolDown math exact in tests.
	Now func() time.Time
	// Annotate, when non-nil, receives one timeline event per alert
	// transition — wired to the SLO engine's Annotate.
	Annotate func(event, detail string)
	// Flights is the on-disk flight-record ring; nil disables capture.
	Flights *FlightDir
	// Sources feed flight records.
	Sources Sources
	// Faults arms the WatchTick/WatchCapture injection points; nil is free.
	Faults *faultinject.Set
	// Metrics, when non-nil, receives watch.* telemetry.
	Metrics *obs.Registry
}

// Watchdog evaluates its rules once per Tick. One mutex guards rule state
// and the alert ring; signal reads, captures and actions all run outside it
// so a rule's action may take the locks of the subsystem it acts on.
type Watchdog struct {
	cfg      Config
	interval time.Duration
	now      func() time.Time

	mu    sync.Mutex
	rules []*ruleState
	ring  []*Alert // fired alerts, oldest first, capped at maxAlerts

	// cpu tracks process/GC CPU seconds between ticks so a flight record
	// can carry the CPU spend of the window that tripped the rule.
	cpu cpuSample

	stopOnce sync.Once
	stopCh   chan struct{}
	loopWG   sync.WaitGroup

	ticks       *obs.Counter // watch.ticks
	tickErrs    *obs.Counter // watch.tick.errors (injected/skipped ticks)
	captured    *obs.Counter // watch.flights.captured
	captureErrs *obs.Counter // watch.flights.errors
}

// New builds a watchdog. Add rules with Add before Start; rules registered
// while ticking are picked up on the next tick.
func New(cfg Config) *Watchdog {
	w := &Watchdog{
		cfg:      cfg,
		interval: cfg.Interval,
		now:      cfg.Now,
		stopCh:   make(chan struct{}),
	}
	if w.interval <= 0 {
		w.interval = DefaultInterval
	}
	if w.now == nil {
		w.now = time.Now
	}
	reg := cfg.Metrics // nil-safe handles throughout
	w.ticks = reg.Counter("watch.ticks")
	w.tickErrs = reg.Counter("watch.tick.errors")
	w.captured = reg.Counter("watch.flights.captured")
	w.captureErrs = reg.Counter("watch.flights.errors")
	w.cpu = readCPUSample(w.now())
	return w
}

// Interval returns the configured tick period.
func (w *Watchdog) Interval() time.Duration { return w.interval }

// Add registers a rule and its watch.alerts{rule=,state=} gauge pair.
func (w *Watchdog) Add(r Rule) {
	rs := &ruleState{rule: r, state: stateOK}
	if reg := w.cfg.Metrics; reg != nil {
		rs.fired = reg.Counter(obs.Labels("watch.alerts.fired", "rule", r.Name))
		for _, st := range []string{statePending, stateFiring} {
			st := st
			reg.GaugeFunc(obs.Labels("watch.alerts", "rule", r.Name, "state", st), func() float64 {
				w.mu.Lock()
				defer w.mu.Unlock()
				if rs.state == st {
					return 1
				}
				return 0
			})
		}
	}
	w.mu.Lock()
	w.rules = append(w.rules, rs)
	w.mu.Unlock()
}

// Start runs the background tick loop until ctx is cancelled or Stop is
// called. Safe to skip entirely — tests drive Tick directly.
func (w *Watchdog) Start(ctx context.Context) {
	w.loopWG.Add(1)
	go func() {
		defer w.loopWG.Done()
		t := time.NewTicker(w.interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-w.stopCh:
				return
			case <-t.C:
				w.Tick()
			}
		}
	}()
}

// Stop ends the background loop (if any) and waits for it to exit — the
// no-goroutine-leak barrier. Safe to call more than once, or without Start.
func (w *Watchdog) Stop() {
	w.stopOnce.Do(func() { close(w.stopCh) })
	w.loopWG.Wait()
}

// transition is one rule's state change collected under the lock and acted
// on outside it.
type transition struct {
	rs    *ruleState
	alert Alert
	fired bool // true: ok/pending→firing; false: firing→ok
}

// Tick evaluates every rule once at the injected clock's current time.
// Exported so fake-clock tests (and the chaos suite) step evaluation
// deterministically; Start's loop calls it on the real clock.
func (w *Watchdog) Tick() {
	now := w.now()
	if err := w.cfg.Faults.Fire(context.Background(), faultinject.WatchTick); err != nil {
		w.tickErrs.Inc()
		return // skipped tick: rules keep their state, hysteresis stands still
	}
	w.ticks.Inc()
	cpuDelta := w.advanceCPU(now)

	// Read signals outside the lock: signal closures reach into other
	// subsystems (SLO engine, lifecycle slots, re-score driver) whose locks
	// must never nest inside w.mu.
	w.mu.Lock()
	rules := make([]*ruleState, len(w.rules))
	copy(rules, w.rules)
	w.mu.Unlock()
	type reading struct {
		v  float64
		ok bool
	}
	vals := make([]reading, len(rules))
	for i, rs := range rules {
		vals[i].v, vals[i].ok = rs.rule.Signal()
	}

	w.mu.Lock()
	var trans []transition
	for i, rs := range rules {
		if tr, changed := w.step(rs, vals[i].v, vals[i].ok, now); changed {
			trans = append(trans, tr)
		}
	}
	w.mu.Unlock()

	// Transitions act outside the lock: captures touch the disk and the
	// profile machinery, actions take their subsystems' locks.
	for _, tr := range trans {
		if tr.fired {
			tr.rs.fired.Inc()
			w.annotate("alert-firing", tr.alert)
			if id := w.capture(tr.rs, tr.alert, cpuDelta); id != "" {
				tr.alert.FlightID = id
				w.mu.Lock()
				if tr.rs.active != nil {
					tr.rs.active.FlightID = id
				}
				w.mu.Unlock()
			}
			if tr.rs.rule.OnFire != nil {
				tr.rs.rule.OnFire(tr.alert)
			}
		} else {
			w.annotate("alert-cleared", tr.alert)
			if tr.rs.rule.OnClear != nil {
				tr.rs.rule.OnClear(tr.alert)
			}
		}
	}
}

// step advances one rule's hysteresis state machine. Caller holds w.mu.
// An unavailable signal (ok=false) counts as clear everywhere: the
// condition's subject — the candidate, the re-score run — no longer exists,
// so a pending breach resets and a firing alert starts its cool-down.
func (w *Watchdog) step(rs *ruleState, v float64, ok bool, now time.Time) (transition, bool) {
	breach := ok && v > rs.rule.Threshold
	if rs.rule.Below {
		breach = ok && v < rs.rule.Threshold
	}
	switch rs.state {
	case stateOK:
		if breach {
			rs.state = statePending
			rs.breachSince = now
			if rs.rule.For <= 0 { // no for-duration: fire on the first breach
				return w.fire(rs, v, now), true
			}
		}
	case statePending:
		switch {
		case !breach:
			rs.state = stateOK
		case now.Sub(rs.breachSince) >= rs.rule.For:
			return w.fire(rs, v, now), true
		}
	case stateFiring:
		if breach {
			rs.clearSince = time.Time{} // still hot: cool-down restarts
			break
		}
		if rs.clearSince.IsZero() {
			rs.clearSince = now
			if rs.rule.CoolDown > 0 {
				break
			}
		}
		if now.Sub(rs.clearSince) >= rs.rule.CoolDown {
			rs.state = stateOK
			rs.clearSince = time.Time{}
			rs.active.State = "cleared"
			rs.active.ClearedAt = now
			a := *rs.active
			rs.active = nil
			return transition{rs: rs, alert: a, fired: false}, true
		}
	}
	return transition{}, false
}

// fire transitions rs to firing and appends the alert to the ring. Caller
// holds w.mu.
func (w *Watchdog) fire(rs *ruleState, v float64, now time.Time) transition {
	rs.state = stateFiring
	rs.clearSince = time.Time{}
	a := &Alert{
		Rule:      rs.rule.Name,
		State:     stateFiring,
		Value:     v,
		Threshold: rs.rule.Threshold,
		FiredAt:   now,
	}
	rs.active = a
	w.ring = append(w.ring, a)
	if len(w.ring) > maxAlerts {
		w.ring = append(w.ring[:0], w.ring[len(w.ring)-maxAlerts:]...)
	}
	return transition{rs: rs, alert: *a, fired: true}
}

func (w *Watchdog) annotate(event string, a Alert) {
	if w.cfg.Annotate == nil {
		return
	}
	w.cfg.Annotate(event, a.Rule)
}

// capture assembles and persists one flight record for rule rs's fired
// alert, returning its ID ("" when capture is off, disabled for the rule, or
// failed — a failed capture never blocks the alert or its action).
func (w *Watchdog) capture(rs *ruleState, a Alert, cpu CPUDelta) string {
	if w.cfg.Flights == nil || !rs.rule.Capture {
		return ""
	}
	if err := w.cfg.Faults.Fire(context.Background(), faultinject.WatchCapture); err != nil {
		w.captureErrs.Inc()
		return ""
	}
	rec := &FlightRecord{
		Rule:      a.Rule,
		Time:      a.FiredAt,
		Value:     a.Value,
		Threshold: a.Threshold,
		CPU:       cpu,
	}
	if w.cfg.Sources.Metrics != nil {
		rec.Metrics = w.cfg.Sources.Metrics()
	}
	if w.cfg.Sources.Traces != nil {
		rec.Traces = w.cfg.Sources.Traces()
	}
	rec.fillProfiles()
	id, err := w.cfg.Flights.Save(rec)
	if err != nil {
		w.captureErrs.Inc()
		return ""
	}
	w.captured.Inc()
	return id
}

// Report is the body of GET /v1/alerts: currently-firing alerts plus the
// bounded history of past transitions, both newest first.
type Report struct {
	Active []Alert `json:"active"`
	Recent []Alert `json:"recent"`
}

// Alerts returns the current report.
func (w *Watchdog) Alerts() Report {
	rep := Report{Active: []Alert{}, Recent: []Alert{}}
	if w == nil {
		return rep
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := len(w.ring) - 1; i >= 0; i-- {
		a := *w.ring[i]
		rep.Recent = append(rep.Recent, a)
		if a.State == stateFiring {
			rep.Active = append(rep.Active, a)
		}
	}
	return rep
}
