// Package slo is the service-level-objective engine of the serving stack
// (DESIGN.md §13): declarative objectives over the request stream, sliding-
// window error-budget accounting, and the multi-window burn-rate signals the
// Google SRE workbook recommends for paging (fast 5m/1h, slow 30m/6h pairs).
//
// The engine consumes one event per request — Record(latency, ok) — and
// classifies it per objective:
//
//   - an availability objective counts ok as good;
//   - a latency objective counts ok-and-under-threshold as good (a failed
//     request can never be "fast enough": errors burn latency budget too).
//
// Counts land in a ring of fixed-width time buckets, so every window the
// engine reports (the burn-rate windows and the error-budget window itself)
// is a sliding sum over recent buckets — no decay approximations, no
// unbounded memory. The wall clock is injectable (WithNow), which makes the
// window math exactly testable: a fake clock pins every event to a known
// bucket and every derived gauge to an exact rational.
//
// Definitions, for window w and objective target T:
//
//	badFraction(w) = bad(w) / (good(w)+bad(w))        (0 when no events)
//	burnRate(w)    = badFraction(w) / (1-T)
//
// A burn rate of 1 spends exactly the error budget the objective allows; a
// burn rate of 14.4 exhausts a 30-day budget in 2 days. BudgetRemaining is
// 1 - burnRate(budget window): the fraction of the window's budget still
// unspent (negative once the objective is blown).
//
// Everything exports through the existing obs.Registry — gauges are
// GaugeFuncs evaluated lazily at snapshot/scrape time, so the engine shows
// up in both the /v1/metrics JSON snapshot and the Prometheus text
// exposition with no extra plumbing, and /v1/slo renders Status() directly.
package slo

import (
	"fmt"
	"sync"
	"time"

	"github.com/sematype/pythagoras/internal/obs"
)

// The burn-rate windows, in the Google SRE multiwindow shape: the short
// window of each pair proves the burn is still happening, the long window
// proves it is sustained.
const (
	FastShortWindow = 5 * time.Minute
	FastLongWindow  = time.Hour
	SlowShortWindow = 30 * time.Minute
	SlowLongWindow  = 6 * time.Hour
)

// Paging thresholds from the SRE workbook, tuned for a 30-day budget window:
// 14.4× consumes 2% of a month's budget in an hour; 6× consumes 5% in six
// hours. They remain sensible alert levels for shorter budget windows — a
// sustained 6× burn is an incident regardless of accounting period.
const (
	FastBurnThreshold = 14.4
	SlowBurnThreshold = 6.0
)

// DefaultBudgetWindow is the error-budget accounting window when an
// Objective leaves Window zero. A day keeps the ring small and makes the
// budget numbers move visibly during a load test; production deployments
// tracking monthly SLOs set Window explicitly.
const DefaultBudgetWindow = 24 * time.Hour

// defaultBucketWidth is the sliding-window resolution: events within the
// same 10-second bucket are indistinguishable to the window sums, which is
// far finer than the shortest (5m) burn window needs.
const defaultBucketWidth = 10 * time.Second

// Objective declares one SLO over the request stream.
type Objective struct {
	// Name identifies the objective in metric names ("slo.<name>.…") and in
	// the /v1/slo report. Conventionally "availability" or "latency".
	Name string
	// Target is the good-event fraction the objective promises, in (0,1) —
	// 0.999 means at most one bad request per thousand.
	Target float64
	// Latency, when non-zero, makes this a latency objective: a request is
	// good only if it succeeded and finished within this threshold.
	Latency time.Duration
	// Window is the error-budget accounting window (DefaultBudgetWindow when
	// zero). Burn-rate windows are fixed; only the budget math uses this.
	Window time.Duration
}

// cell is one time bucket of an objective's ring. idx is the absolute
// bucket index (unix time / width); a slot is valid only when its idx
// matches the index the current time maps it to.
type cell struct {
	idx  int64
	good uint64
	bad  uint64
}

// objective is the engine-internal state of one declared Objective.
type objective struct {
	Objective
	ring      []cell
	goodTotal *obs.Counter // slo.<name>.events.good — lifetime, nil until Register
	badTotal  *obs.Counter
}

// maxAnnotations bounds the lifecycle-event ring: old deploys scroll off,
// the engine never grows without bound.
const maxAnnotations = 64

// Annotation marks a deployment-lifecycle event (model load, promote,
// rollback) on the SLO timeline. Burn-rate excursions are only actionable
// when an operator can line them up with what changed; carrying the events
// in the same report as the budget numbers makes the join trivial.
type Annotation struct {
	Time   time.Time `json:"time"`
	Event  string    `json:"event"`
	Detail string    `json:"detail,omitempty"`
}

// Engine classifies request events against a set of objectives and answers
// window queries. One mutex guards the rings: Record is one lock + two adds
// per objective, far off the inference hot path's allocation-free standards
// but called once per HTTP request, where a mutex is noise.
type Engine struct {
	mu    sync.Mutex
	objs  []*objective
	notes []Annotation // lifecycle events, oldest first, capped
	now   func() time.Time
	width time.Duration
}

// Option configures an Engine.
type Option func(*Engine)

// WithNow injects the clock — the test seam that makes window math exact.
func WithNow(now func() time.Time) Option {
	return func(e *Engine) { e.now = now }
}

// WithBucketWidth overrides the sliding-window bucket width (tests use
// coarse buckets to step a fake clock across window edges precisely).
func WithBucketWidth(d time.Duration) Option {
	return func(e *Engine) {
		if d > 0 {
			e.width = d
		}
	}
}

// New builds an engine over the given objectives. Objectives with a zero
// Window get DefaultBudgetWindow; every ring is sized to cover both its
// budget window and the longest burn window.
func New(objectives []Objective, opts ...Option) *Engine {
	e := &Engine{now: time.Now, width: defaultBucketWidth}
	for _, o := range opts {
		o(e)
	}
	for _, ob := range objectives {
		if ob.Window <= 0 {
			ob.Window = DefaultBudgetWindow
		}
		span := ob.Window
		if span < SlowLongWindow {
			span = SlowLongWindow
		}
		n := int(span/e.width) + 1
		e.objs = append(e.objs, &objective{
			Objective: ob,
			ring:      make([]cell, n),
		})
	}
	return e
}

// DefaultObjectives is the serving default behind `serve -slo-target
// -slo-latency-ms`: one availability objective and one latency objective
// sharing the same target.
func DefaultObjectives(target float64, latency time.Duration) []Objective {
	return []Objective{
		{Name: "availability", Target: target},
		{Name: "latency", Target: target, Latency: latency},
	}
}

// Record classifies one request event against every objective. ok reports
// whether the request counts as served (the server's convention: anything
// but a 5xx or a shed 429; client disconnects are recorded nowhere).
// Nil-safe, like the rest of the obs stack.
func (e *Engine) Record(latency time.Duration, ok bool) {
	if e == nil {
		return
	}
	e.mu.Lock()
	idx := e.now().UnixNano() / int64(e.width)
	for _, o := range e.objs {
		good := ok && (o.Latency == 0 || latency <= o.Latency)
		c := &o.ring[int(idx%int64(len(o.ring)))]
		if c.idx != idx {
			*c = cell{idx: idx}
		}
		if good {
			c.good++
			o.goodTotal.Inc()
		} else {
			c.bad++
			o.badTotal.Inc()
		}
	}
	e.mu.Unlock()
}

// window sums good/bad over the trailing w (the current, partial bucket
// included). Caller holds e.mu.
func (o *objective) window(nowIdx int64, width, w time.Duration) (good, bad uint64) {
	n := int64(w / width)
	if n < 1 {
		n = 1
	}
	lo := nowIdx - n + 1
	for i := range o.ring {
		if c := &o.ring[i]; c.idx >= lo && c.idx <= nowIdx {
			good += c.good
			bad += c.bad
		}
	}
	return good, bad
}

// burnRate converts window counts into a burn rate against target t.
func burnRate(good, bad uint64, t float64) float64 {
	total := good + bad
	if total == 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / (1 - t)
}

// WindowBurn is one burn-rate window of an objective's status.
type WindowBurn struct {
	Window   string  `json:"window"` // "5m", "30m", "1h", "6h"
	Seconds  float64 `json:"seconds"`
	Good     uint64  `json:"good"`
	Bad      uint64  `json:"bad"`
	BurnRate float64 `json:"burn_rate"`
}

// ObjectiveStatus is one objective's entry in the /v1/slo report.
type ObjectiveStatus struct {
	Name               string       `json:"name"`
	Target             float64      `json:"target"`
	LatencyThresholdMs float64      `json:"latency_threshold_ms,omitempty"`
	WindowSeconds      float64      `json:"window_seconds"`
	Good               uint64       `json:"good"` // over the budget window
	Bad                uint64       `json:"bad"`
	BadFraction        float64      `json:"bad_fraction"`
	BudgetRemaining    float64      `json:"budget_remaining"` // 1 = untouched, <0 = blown
	Burn               []WindowBurn `json:"burn"`
	FastBurnAlert      bool         `json:"fast_burn_alert"` // 5m AND 1h over FastBurnThreshold
	SlowBurnAlert      bool         `json:"slow_burn_alert"` // 30m AND 6h over SlowBurnThreshold
}

// Status is the body of GET /v1/slo.
type Status struct {
	Objectives []ObjectiveStatus `json:"objectives"`
	// Events are the lifecycle annotations recorded with Annotate, oldest
	// first — the deploy markers a burn-rate chart is read against.
	Events []Annotation `json:"events,omitempty"`
}

// Annotate records a lifecycle event (timestamped by the engine's clock) on
// the SLO timeline; the most recent maxAnnotations are reported by Status.
// Nil-safe, like Record.
func (e *Engine) Annotate(event, detail string) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.notes = append(e.notes, Annotation{Time: e.now(), Event: event, Detail: detail})
	if len(e.notes) > maxAnnotations {
		e.notes = append(e.notes[:0], e.notes[len(e.notes)-maxAnnotations:]...)
	}
	e.mu.Unlock()
}

// burnWindows pairs the canonical window labels with their durations, in
// report order.
var burnWindows = []struct {
	label string
	d     time.Duration
}{
	{"5m", FastShortWindow},
	{"30m", SlowShortWindow},
	{"1h", FastLongWindow},
	{"6h", SlowLongWindow},
}

// Status reports every objective: budget-window counts, remaining budget,
// and all four burn-rate windows with the two alert pair states.
func (e *Engine) Status() Status {
	var st Status
	if e == nil {
		return st
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	nowIdx := e.now().UnixNano() / int64(e.width)
	for _, o := range e.objs {
		good, bad := o.window(nowIdx, e.width, o.Window)
		os := ObjectiveStatus{
			Name:            o.Name,
			Target:          o.Target,
			WindowSeconds:   o.Window.Seconds(),
			Good:            good,
			Bad:             bad,
			BudgetRemaining: 1 - burnRate(good, bad, o.Target),
		}
		if o.Latency > 0 {
			os.LatencyThresholdMs = float64(o.Latency) / float64(time.Millisecond)
		}
		if total := good + bad; total > 0 {
			os.BadFraction = float64(bad) / float64(total)
		}
		rates := map[string]float64{}
		for _, bw := range burnWindows {
			g, b := o.window(nowIdx, e.width, bw.d)
			r := burnRate(g, b, o.Target)
			rates[bw.label] = r
			os.Burn = append(os.Burn, WindowBurn{
				Window: bw.label, Seconds: bw.d.Seconds(), Good: g, Bad: b, BurnRate: r,
			})
		}
		os.FastBurnAlert = rates["5m"] > FastBurnThreshold && rates["1h"] > FastBurnThreshold
		os.SlowBurnAlert = rates["30m"] > SlowBurnThreshold && rates["6h"] > SlowBurnThreshold
		st.Objectives = append(st.Objectives, os)
	}
	st.Events = append(st.Events, e.notes...)
	return st
}

// BurnAlert is the burn-rate pair state of one objective — the compact
// readout the anomaly watchdog polls every tick.
type BurnAlert struct {
	Objective string  `json:"objective"`
	Fast      bool    `json:"fast"` // 5m AND 1h over FastBurnThreshold
	Slow      bool    `json:"slow"` // 30m AND 6h over SlowBurnThreshold
	Rate5m    float64 `json:"rate_5m"`
	Rate30m   float64 `json:"rate_30m"`
	Rate1h    float64 `json:"rate_1h"`
	Rate6h    float64 `json:"rate_6h"`
}

// Alerts reports every objective's burn-rate pair state at the engine's
// current clock: the rates and pair states of Status, which computes them
// once per objective. Nil-safe (no objectives, no alerts).
func (e *Engine) Alerts() []BurnAlert {
	if e == nil {
		return nil
	}
	objs := e.Status().Objectives
	alerts := make([]BurnAlert, 0, len(objs))
	for _, o := range objs {
		a := BurnAlert{Objective: o.Name, Fast: o.FastBurnAlert, Slow: o.SlowBurnAlert}
		rates := map[string]*float64{"5m": &a.Rate5m, "30m": &a.Rate30m, "1h": &a.Rate1h, "6h": &a.Rate6h}
		for _, w := range o.Burn {
			*rates[w.Window] = w.BurnRate
		}
		alerts = append(alerts, a)
	}
	return alerts
}

// Register exports the engine into a registry:
//
//	slo.<name>.target              gauge, the declared target
//	slo.<name>.events.good         counter, lifetime good events
//	slo.<name>.events.bad          counter, lifetime bad events
//	slo.<name>.budget.remaining    gauge, 1 − burnRate(budget window)
//	slo.<name>.burn_rate.{5m,30m,1h,6h}  gauges
//
// Windowed values are GaugeFuncs evaluated at snapshot/scrape time, so the
// same numbers appear in the JSON snapshot and the Prometheus exposition.
// Nil-safe on both sides.
func (e *Engine) Register(r *obs.Registry) {
	if e == nil || r == nil {
		return
	}
	// Registry calls (r.mu) happen outside e.mu: snapshot-time GaugeFuncs
	// lock r.mu → e.mu, so holding e.mu here would invert the lock order.
	// e.objs itself is immutable after New.
	for _, o := range e.objs {
		o := o
		prefix := "slo." + o.Name
		target := o.Target
		r.GaugeFunc(prefix+".target", func() float64 { return target })
		good, bad := r.Counter(prefix+".events.good"), r.Counter(prefix+".events.bad")
		e.mu.Lock()
		o.goodTotal, o.badTotal = good, bad
		e.mu.Unlock()
		r.GaugeFunc(prefix+".budget.remaining", func() float64 {
			g, b := e.windowCounts(o, o.Window)
			return 1 - burnRate(g, b, target)
		})
		for _, bw := range burnWindows {
			bw := bw
			r.GaugeFunc(fmt.Sprintf("%s.burn_rate.%s", prefix, bw.label), func() float64 {
				g, b := e.windowCounts(o, bw.d)
				return burnRate(g, b, target)
			})
		}
	}
}

// windowCounts is the locked window query behind the registered GaugeFuncs.
func (e *Engine) windowCounts(o *objective, w time.Duration) (good, bad uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return o.window(e.now().UnixNano()/int64(e.width), e.width, w)
}
