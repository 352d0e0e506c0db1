package slo

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/sematype/pythagoras/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// fakeClock is a hand-stepped clock: every window sum computed against it
// is an exact rational over known bucket contents.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	// A fixed, timezone-free origin keeps bucket indices reproducible.
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// testEngine builds an engine with one availability and one latency
// objective on a fake clock with 1-minute buckets.
func testEngine(target float64) (*Engine, *fakeClock) {
	clk := newFakeClock()
	e := New(DefaultObjectives(target, 100*time.Millisecond),
		WithNow(clk.Now), WithBucketWidth(time.Minute))
	return e, clk
}

func objByName(t *testing.T, st Status, name string) ObjectiveStatus {
	t.Helper()
	for _, o := range st.Objectives {
		if o.Name == name {
			return o
		}
	}
	t.Fatalf("objective %q missing from status %+v", name, st)
	return ObjectiveStatus{}
}

func burnByWindow(t *testing.T, o ObjectiveStatus, label string) WindowBurn {
	t.Helper()
	for _, b := range o.Burn {
		if b.Window == label {
			return b
		}
	}
	t.Fatalf("window %q missing from %+v", label, o)
	return WindowBurn{}
}

// TestBurnRateExact pins the core definition: with target 0.5, a stream of
// 6 bad and 2 good events is badFraction 0.75 and burn rate exactly 1.5 on
// every window that covers it.
func TestBurnRateExact(t *testing.T) {
	e, _ := testEngine(0.5)
	for i := 0; i < 6; i++ {
		e.Record(time.Millisecond, false)
	}
	for i := 0; i < 2; i++ {
		e.Record(time.Millisecond, true)
	}
	st := objByName(t, e.Status(), "availability")
	if st.Good != 2 || st.Bad != 6 {
		t.Fatalf("budget window counts = %d good %d bad, want 2/6", st.Good, st.Bad)
	}
	if !almost(st.BadFraction, 0.75) {
		t.Fatalf("bad fraction = %v, want 0.75", st.BadFraction)
	}
	for _, label := range []string{"5m", "30m", "1h", "6h"} {
		if b := burnByWindow(t, st, label); !almost(b.BurnRate, 1.5) {
			t.Fatalf("burn(%s) = %v, want 1.5", label, b.BurnRate)
		}
	}
	if !almost(st.BudgetRemaining, -0.5) {
		t.Fatalf("budget remaining = %v, want -0.5", st.BudgetRemaining)
	}
}

// TestLatencyObjectiveClassification: slow-but-successful requests burn the
// latency budget without touching availability, and failed requests burn
// both.
func TestLatencyObjectiveClassification(t *testing.T) {
	e, _ := testEngine(0.9)
	e.Record(50*time.Millisecond, true)  // fast success: good for both
	e.Record(500*time.Millisecond, true) // slow success: bad for latency only
	e.Record(10*time.Millisecond, false) // fast failure: bad for both
	st := e.Status()
	avail := objByName(t, st, "availability")
	lat := objByName(t, st, "latency")
	if avail.Good != 2 || avail.Bad != 1 {
		t.Fatalf("availability = %d/%d, want 2 good 1 bad", avail.Good, avail.Bad)
	}
	if lat.Good != 1 || lat.Bad != 2 {
		t.Fatalf("latency = %d/%d, want 1 good 2 bad", lat.Good, lat.Bad)
	}
	if lat.LatencyThresholdMs != 100 {
		t.Fatalf("latency threshold = %v ms, want 100", lat.LatencyThresholdMs)
	}
}

// TestWindowsSlide steps the fake clock and checks events age out of each
// burn window at exactly its edge: 5 bad events recorded at t=0 are visible
// at +4m, gone from the 5m window at +6m, gone from 30m at +31m, gone from
// 1h at +61m, and gone from 6h (and everything else) at +6h1m.
func TestWindowsSlide(t *testing.T) {
	e, clk := testEngine(0.5)
	for i := 0; i < 5; i++ {
		e.Record(time.Millisecond, false)
	}
	expect := func(label string, want float64) {
		t.Helper()
		b := burnByWindow(t, objByName(t, e.Status(), "availability"), label)
		if !almost(b.BurnRate, want) {
			t.Fatalf("burn(%s) = %v, want %v (clock %s)", label, b.BurnRate, want, clk.Now())
		}
	}
	expect("5m", 2)
	clk.Advance(4 * time.Minute)
	expect("5m", 2) // still inside the 5m window
	clk.Advance(2 * time.Minute)
	expect("5m", 0) // aged out of 5m...
	expect("30m", 2)
	clk.Advance(25 * time.Minute) // +31m
	expect("30m", 0)
	expect("1h", 2)
	clk.Advance(30 * time.Minute) // +61m
	expect("1h", 0)
	expect("6h", 2)
	clk.Advance(5*time.Hour + time.Minute) // +6h2m
	expect("6h", 0)
}

// TestBudgetWindowSlide: events age out of the budget window too, restoring
// the budget.
func TestBudgetWindowSlide(t *testing.T) {
	clk := newFakeClock()
	e := New([]Objective{{Name: "availability", Target: 0.5}},
		WithNow(clk.Now), WithBucketWidth(time.Minute))
	e.Record(0, false)
	if st := objByName(t, e.Status(), "availability"); !almost(st.BudgetRemaining, -1) {
		t.Fatalf("budget remaining = %v, want -1", st.BudgetRemaining)
	}
	clk.Advance(BudgetWindow + time.Minute)
	st := objByName(t, e.Status(), "availability")
	if st.Good != 0 || st.Bad != 0 || !almost(st.BudgetRemaining, 1) {
		t.Fatalf("after slide: %+v, want empty window and full budget", st)
	}
}

// TestRingReuse wraps the ring more than once and checks stale cells never
// leak into the sums: the ring covers max(BudgetWindow, 6h); events older
// than that are overwritten by bucket reuse.
func TestRingReuse(t *testing.T) {
	clk := newFakeClock()
	e := New([]Objective{{Name: "availability", Target: 0.5}},
		WithNow(clk.Now), WithBucketWidth(time.Hour)) // 25 cells: 24h/1h + 1
	for i := 0; i < 60; i++ {
		e.Record(0, false)
		clk.Advance(time.Hour)
	}
	// The last recorded event is 1h old; only the trailing 6h of events can
	// be visible to the 6h window, and the 24h budget window must hold at
	// most the 24 events in its bucket range.
	st := objByName(t, e.Status(), "availability")
	if b := burnByWindow(t, st, "6h"); b.Bad > 6 {
		t.Fatalf("6h window sees %d bad events, ring leaked stale cells", b.Bad)
	}
	if st.Bad > 24 {
		t.Fatalf("24h budget window sees %d bad events, want ≤24", st.Bad)
	}
}

// TestAlertPairs: both windows of a pair must exceed the threshold before
// the alert state trips.
func TestAlertPairs(t *testing.T) {
	// target 0.99: all-bad traffic burns at 1/0.01 = 100× — over both
	// thresholds on every window it is visible in.
	e, clk := testEngine(0.99)
	e.Record(0, false)
	st := objByName(t, e.Status(), "availability")
	if !st.FastBurnAlert || !st.SlowBurnAlert {
		t.Fatalf("all-bad traffic did not trip both alerts: %+v", st)
	}
	// Age it past 5m and 30m: short windows go quiet, alerts must clear even
	// though the long windows still burn.
	clk.Advance(31 * time.Minute)
	st = objByName(t, e.Status(), "availability")
	if !almost(burnByWindow(t, st, "1h").BurnRate, 100) {
		t.Fatalf("1h window lost the event: %+v", st)
	}
	if st.FastBurnAlert || st.SlowBurnAlert {
		t.Fatalf("alert pair tripped on long window alone: %+v", st)
	}
}

// TestEmptyEngineStatus: no traffic means zero burn and a full budget — not
// NaN from 0/0.
func TestEmptyEngineStatus(t *testing.T) {
	e, _ := testEngine(0.999)
	for _, o := range e.Status().Objectives {
		if !almost(o.BudgetRemaining, 1) {
			t.Fatalf("%s budget = %v, want 1", o.Name, o.BudgetRemaining)
		}
		for _, b := range o.Burn {
			if b.BurnRate != 0 {
				t.Fatalf("%s burn(%s) = %v, want 0", o.Name, b.Window, b.BurnRate)
			}
		}
	}
}

// TestNilEngine: the nil-safety contract of the obs stack extends here.
func TestNilEngine(t *testing.T) {
	var e *Engine
	e.Record(time.Second, true)
	e.Register(obs.NewRegistry())
	if st := e.Status(); len(st.Objectives) != 0 {
		t.Fatalf("nil engine status = %+v", st)
	}
	live, _ := testEngine(0.9)
	live.Register(nil) // nil registry is also a no-op
}

// TestRegisterExportsGauges: the registry snapshot carries target, lifetime
// counters, burn-rate and budget gauges with exact values.
func TestRegisterExportsGauges(t *testing.T) {
	e, _ := testEngine(0.5)
	r := obs.NewRegistry()
	e.Register(r)
	for i := 0; i < 3; i++ {
		e.Record(time.Millisecond, false)
	}
	e.Record(time.Millisecond, true)
	snap := r.Snapshot()
	if got := snap.Counters["slo.availability.events.bad"]; got != 3 {
		t.Fatalf("bad counter = %d, want 3", got)
	}
	if got := snap.Counters["slo.availability.events.good"]; got != 1 {
		t.Fatalf("good counter = %d, want 1", got)
	}
	if got := snap.Gauges["slo.availability.target"]; got != 0.5 {
		t.Fatalf("target gauge = %v", got)
	}
	// badFraction 0.75, burn = 1.5, remaining = -0.5 — on every window.
	for _, w := range []string{"5m", "30m", "1h", "6h"} {
		if got := snap.Gauges["slo.availability.burn_rate."+w]; !almost(got, 1.5) {
			t.Fatalf("burn_rate.%s gauge = %v, want 1.5", w, got)
		}
	}
	if got := snap.Gauges["slo.availability.budget.remaining"]; !almost(got, -0.5) {
		t.Fatalf("budget gauge = %v, want -0.5", got)
	}
	// The latency objective saw 1ms ≤ 100ms, so its only bad events are the
	// failures: same counts as availability here.
	if got := snap.Counters["slo.latency.events.bad"]; got != 3 {
		t.Fatalf("latency bad counter = %d, want 3", got)
	}
}

// TestAnnotateTimeline: lifecycle annotations land on Status in order,
// stamped by the engine clock, the ring stays bounded, and a nil engine
// swallows them — the server calls Annotate unconditionally on swaps.
func TestAnnotateTimeline(t *testing.T) {
	e, clk := testEngine(0.999)
	e.Annotate("load", `candidate "v2"`)
	clk.Advance(time.Minute)
	e.Annotate("promote", `"v2" over "boot"`)
	st := e.Status()
	if len(st.Events) != 2 {
		t.Fatalf("events = %d, want 2: %+v", len(st.Events), st.Events)
	}
	if st.Events[0].Event != "load" || st.Events[1].Event != "promote" {
		t.Fatalf("event order: %+v", st.Events)
	}
	if !st.Events[1].Time.After(st.Events[0].Time) {
		t.Fatalf("annotations not clock-stamped: %v then %v", st.Events[0].Time, st.Events[1].Time)
	}
	if st.Events[1].Detail != `"v2" over "boot"` {
		t.Fatalf("detail lost: %+v", st.Events[1])
	}
	// The ring keeps only the newest maxAnnotations.
	for i := 0; i < maxAnnotations+10; i++ {
		e.Annotate("spam", "")
	}
	if got := len(e.Status().Events); got != maxAnnotations {
		t.Fatalf("ring grew to %d, want cap %d", got, maxAnnotations)
	}
	var nilEng *Engine
	nilEng.Annotate("load", "dropped") // must not panic
	if st := nilEng.Status(); len(st.Events) != 0 {
		t.Fatalf("nil engine recorded events: %+v", st.Events)
	}
}

// TestStatusJSONShape pins the /v1/slo wire shape.
func TestStatusJSONShape(t *testing.T) {
	e, _ := testEngine(0.999)
	e.Record(time.Millisecond, true)
	raw, err := json.Marshal(e.Status())
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	var objs []map[string]json.RawMessage
	if err := json.Unmarshal(top["objectives"], &objs); err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 {
		t.Fatalf("objectives = %d, want 2", len(objs))
	}
	for _, key := range []string{"name", "target", "window_seconds", "good", "bad",
		"bad_fraction", "budget_remaining", "burn", "fast_burn_alert", "slow_burn_alert"} {
		if _, ok := objs[0][key]; !ok {
			t.Fatalf("objective JSON lost key %q: %s", key, raw)
		}
	}
}

// TestConcurrentRecordAndStatus exercises the engine under the race
// detector: Record, Status and registry snapshots (the GaugeFunc path) all
// running concurrently.
func TestConcurrentRecordAndStatus(t *testing.T) {
	e, clk := testEngine(0.99)
	r := obs.NewRegistry()
	e.Register(r)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				e.Record(time.Duration(i)*time.Microsecond, i%7 != 0)
				if i%50 == 0 {
					clk.Advance(time.Second)
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = e.Status()
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	st := objByName(t, e.Status(), "availability")
	if st.Good+st.Bad != 2000 {
		t.Fatalf("events = %d, want 2000", st.Good+st.Bad)
	}
}

// TestWritePrometheusGoldenSLO pins the Prometheus exposition of a
// registered engine byte-for-byte: deterministic fake clock, deterministic
// event stream, byte-stable render.
func TestWritePrometheusGoldenSLO(t *testing.T) {
	e, _ := testEngine(0.9)
	r := obs.NewRegistry()
	e.Register(r)
	for i := 0; i < 8; i++ {
		e.Record(50*time.Millisecond, true)
	}
	e.Record(300*time.Millisecond, true) // slow success
	e.Record(10*time.Millisecond, false) // failure
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "prom.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("SLO exposition diverged from golden.\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
	// And it is byte-stable across renders of the quiescent registry.
	var again bytes.Buffer
	if err := r.WritePrometheus(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("two renders of a quiescent SLO registry differ")
	}
}

// TestAlertsReadout pins the watchdog-facing burn readout in Status:
// per-objective fast/slow flags follow the multi-window pairs exactly, and
// windows age the flags off independently (fast clears when the 5m window
// empties while slow still holds on 30m AND 6h).
func TestAlertsReadout(t *testing.T) {
	clk := newFakeClock()
	e := New(DefaultObjectives(0.99, 100*time.Millisecond),
		WithNow(clk.Now), WithBucketWidth(time.Minute))
	rate := func(o ObjectiveStatus, label string) float64 {
		t.Helper()
		return burnByWindow(t, o, label).BurnRate
	}

	objs := e.Status().Objectives
	if len(objs) != 2 {
		t.Fatalf("status for 2 objectives = %+v", objs)
	}
	for _, o := range objs {
		if o.FastBurnAlert || o.SlowBurnAlert || rate(o, "5m") != 0 || rate(o, "6h") != 0 {
			t.Fatalf("idle engine status = %+v, want all clear", o)
		}
	}

	// All-bad traffic against a 99% target: burn 100 on every window —
	// both pairs trip.
	for i := 0; i < 10; i++ {
		e.Record(time.Millisecond, false)
	}
	a := objByName(t, e.Status(), "availability")
	if !a.FastBurnAlert || !a.SlowBurnAlert {
		t.Fatalf("saturated engine status = %+v, want fast and slow", a)
	}
	if !almost(rate(a, "5m"), 100) || !almost(rate(a, "1h"), 100) || !almost(rate(a, "30m"), 100) || !almost(rate(a, "6h"), 100) {
		t.Fatalf("rates = %+v, want 100 everywhere", a)
	}

	// +10m: the bad burst has aged out of the 5m window but still dominates
	// 30m/1h/6h — fast clears, slow holds.
	clk.Advance(10 * time.Minute)
	a = objByName(t, e.Status(), "availability")
	if a.FastBurnAlert {
		t.Fatalf("fast still set after 5m window emptied: %+v", a)
	}
	if !a.SlowBurnAlert {
		t.Fatalf("slow cleared early: %+v", a)
	}
	if rate(a, "5m") != 0 {
		t.Fatalf("rate5m = %v, want 0", rate(a, "5m"))
	}

	// +7h: everything has aged out.
	clk.Advance(7 * time.Hour)
	a = objByName(t, e.Status(), "availability")
	if a.FastBurnAlert || a.SlowBurnAlert || rate(a, "6h") != 0 {
		t.Fatalf("alert did not age out: %+v", a)
	}
}
