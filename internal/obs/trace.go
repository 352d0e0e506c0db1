// Trace capture: the second observability layer on top of the span
// aggregates (DESIGN.md §11). While span histograms answer "how slow is
// stage X on average", captured traces answer "which request was slow and
// where inside it": every span of a sampled request is kept with its
// SplitMix64-derived IDs, parentage, attributes (request ID, route) and
// error flag, and the finished tree lands in a fixed-size ring buffer the
// server exposes at GET /v1/traces.
//
// Sampling policy: the recorder keeps a configurable fraction of traces
// (deterministically, from a SplitMix64 sequence — no global RNG, no lock),
// and ALWAYS keeps traces that errored or ran longer than the slow
// threshold. That bias is the point: at 1% sampling the ring is a cheap
// rolling census, while the tail — the requests an operator actually hunts —
// is never lost to the dice.
package obs

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SpanData is one finished span of a captured trace, in wire form.
type SpanData struct {
	TraceID    string    `json:"trace_id"`
	SpanID     string    `json:"span_id"`
	ParentID   string    `json:"parent_id,omitempty"`
	Name       string    `json:"name"`
	Path       string    `json:"path"`
	Start      time.Time `json:"start"`
	DurationMs float64   `json:"duration_ms"`
	Error      bool      `json:"error,omitempty"`
	Attrs      []Attr    `json:"attrs,omitempty"`
}

// Trace is one captured request: the root span's identity plus every span
// of its tree, in End order (children before parents, so the root is last).
type Trace struct {
	TraceID    string     `json:"trace_id"`
	Root       string     `json:"root"` // root span name (the route's stage name)
	Start      time.Time  `json:"start"`
	DurationMs float64    `json:"duration_ms"`
	Error      bool       `json:"error,omitempty"`
	Reason     string     `json:"reason"` // why it was kept: "sample", "slow" or "error"
	Spans      []SpanData `json:"spans"`
}

// Attr lookup on a captured span ("" when absent).
func (sd *SpanData) Attr(key string) string {
	for _, a := range sd.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// RootSpan returns the trace's root span record (the one without a parent).
func (t *Trace) RootSpan() *SpanData {
	for i := range t.Spans {
		if t.Spans[i].ParentID == "" {
			return &t.Spans[i]
		}
	}
	return nil
}

// traceBuilder accumulates the spans of one in-flight trace. Spans may End
// from different goroutines, so the slice is lock-protected; the builder is
// reachable only through the spans of its own trace.
type traceBuilder struct {
	rec     *TraceRecorder
	mu      sync.Mutex
	spans   []SpanData
	errored bool
}

func (tb *traceBuilder) add(sd SpanData, errored bool) {
	tb.mu.Lock()
	tb.spans = append(tb.spans, sd)
	tb.errored = tb.errored || errored
	tb.mu.Unlock()
}

// finish is called by the root span's End: it seals the trace and offers it
// to the recorder.
func (tb *traceBuilder) finish(root *Span, d time.Duration) {
	tb.mu.Lock()
	t := Trace{
		TraceID:    formatID(root.traceID),
		Root:       root.name,
		Start:      root.start,
		DurationMs: float64(d) / float64(time.Millisecond),
		Error:      tb.errored,
		Spans:      tb.spans,
	}
	tb.spans = nil
	tb.mu.Unlock()
	tb.rec.offer(t)
}

// TraceConfig configures a TraceRecorder.
type TraceConfig struct {
	// SampleRate is the fraction of traces kept regardless of outcome
	// (clamped to [0, 1]; 0 keeps only errored/slow traces).
	SampleRate float64
	// SlowThreshold force-keeps any trace at least this long (0 disables
	// the slow path — only sampling and errors capture).
	SlowThreshold time.Duration
	// Buffer is the ring capacity in traces (<= 0 selects 256). When full,
	// the oldest trace is overwritten.
	Buffer int
}

// DefaultTraceBuffer is the ring capacity when TraceConfig.Buffer is unset.
const DefaultTraceBuffer = 256

// TraceRecorder samples finished span trees into a fixed-size ring buffer.
// All methods are safe for concurrent use; a nil recorder is inert (spans
// simply do not capture).
type TraceRecorder struct {
	rate float64
	slow time.Duration

	seq atomic.Uint64 // drives both ID minting and sampling decisions

	captured atomic.Uint64 // traces kept (any reason)
	sampled  atomic.Uint64 // kept by the dice alone
	dropped  atomic.Uint64 // finished but not kept

	mu    sync.Mutex
	ring  []Trace
	next  int // ring write cursor
	total int // traces currently buffered (≤ len(ring))
}

// NewTraceRecorder builds a recorder; see TraceConfig for the policy knobs.
func NewTraceRecorder(cfg TraceConfig) *TraceRecorder {
	if cfg.Buffer <= 0 {
		cfg.Buffer = DefaultTraceBuffer
	}
	if cfg.SampleRate < 0 {
		cfg.SampleRate = 0
	}
	if cfg.SampleRate > 1 {
		cfg.SampleRate = 1
	}
	return &TraceRecorder{
		rate: cfg.SampleRate,
		slow: cfg.SlowThreshold,
		ring: make([]Trace, cfg.Buffer),
	}
}

// traceSeed offsets the recorder's counter before mixing, so IDs and
// sampling variates are a fixed sequence for a given order of calls.
const traceSeed = 0x9E3779B97F4A7C15

// splitmix64 is the SplitMix64 finalizer — the same mixer the trainer uses
// for sub-batch seeds. It turns the recorder's sequential counter into
// well-distributed trace/span IDs and sampling variates.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// nextID mints the next trace/span ID. IDs are never zero (zero means "no
// ID" in the span wire format).
func (r *TraceRecorder) nextID() uint64 {
	for {
		if id := splitmix64(traceSeed + r.seq.Add(1)); id != 0 {
			return id
		}
	}
}

// sample draws the next deterministic Bernoulli(rate) variate.
func (r *TraceRecorder) sample() bool {
	if r.rate >= 1 {
		return true
	}
	if r.rate <= 0 {
		return false
	}
	u := float64(splitmix64(traceSeed^0xD1B54A32D192ED03+r.seq.Add(1))>>11) / float64(1<<53)
	return u < r.rate
}

// offer decides a finished trace's fate: errored and slow traces are always
// kept, everything else rolls the sampling dice; kept traces overwrite the
// ring's oldest slot.
func (r *TraceRecorder) offer(t Trace) {
	if r == nil {
		return
	}
	switch {
	case t.Error:
		t.Reason = "error"
	case r.slow > 0 && t.DurationMs >= float64(r.slow)/float64(time.Millisecond):
		t.Reason = "slow"
	case r.sample():
		t.Reason = "sample"
		r.sampled.Add(1)
	default:
		r.dropped.Add(1)
		return
	}
	r.captured.Add(1)
	r.mu.Lock()
	r.ring[r.next] = t
	r.next = (r.next + 1) % len(r.ring)
	if r.total < len(r.ring) {
		r.total++
	}
	r.mu.Unlock()
}

// TraceFilter selects captured traces (zero value = everything).
type TraceFilter struct {
	// MinDuration keeps traces at least this long.
	MinDuration time.Duration
	// Route keeps traces whose root span name, root path, or "route"
	// attribute equals the given value.
	Route string
	// ErrorOnly keeps only errored traces.
	ErrorOnly bool
	// Limit caps the result length (0 = no cap). Newest traces win.
	Limit int
}

// Traces returns the buffered traces matching f, newest first.
func (r *TraceRecorder) Traces(f TraceFilter) []Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	buf := make([]Trace, 0, r.total)
	for i := 0; i < r.total; i++ {
		// next-1 is the newest slot; walk backwards.
		idx := (r.next - 1 - i + 2*len(r.ring)) % len(r.ring)
		buf = append(buf, r.ring[idx])
	}
	r.mu.Unlock()

	out := buf[:0]
	for _, t := range buf {
		if f.MinDuration > 0 && t.DurationMs < float64(f.MinDuration)/float64(time.Millisecond) {
			continue
		}
		if f.ErrorOnly && !t.Error {
			continue
		}
		if f.Route != "" && !t.matchesRoute(f.Route) {
			continue
		}
		out = append(out, t)
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}

func (t *Trace) matchesRoute(route string) bool {
	if t.Root == route || strings.EqualFold(t.Root, route) {
		return true
	}
	if rs := t.RootSpan(); rs != nil && rs.Attr("route") == route {
		return true
	}
	return false
}

// Len reports how many traces are buffered right now.
func (r *TraceRecorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Captured, Sampled and Dropped report the recorder's cumulative decisions.
func (r *TraceRecorder) Captured() uint64 {
	if r == nil {
		return 0
	}
	return r.captured.Load()
}

// Sampled reports traces kept by the sampling dice alone.
func (r *TraceRecorder) Sampled() uint64 {
	if r == nil {
		return 0
	}
	return r.sampled.Load()
}

// Dropped reports finished traces that were not kept.
func (r *TraceRecorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

// Register exports the recorder's own health as gauges: trace.captured,
// trace.sampled, trace.dropped and trace.buffered. Nil-safe on both sides.
func (r *TraceRecorder) Register(reg *Registry) {
	if r == nil || reg == nil {
		return
	}
	reg.GaugeFunc("trace.captured", func() float64 { return float64(r.Captured()) })
	reg.GaugeFunc("trace.sampled", func() float64 { return float64(r.Sampled()) })
	reg.GaugeFunc("trace.dropped", func() float64 { return float64(r.Dropped()) })
	reg.GaugeFunc("trace.buffered", func() float64 { return float64(r.Len()) })
}
