package obs

import (
	"context"
	"fmt"
	"sync"
	"time"
)

type ctxKey int

const (
	registryKey ctxKey = iota
	spanKey
	recorderKey
)

// WithRegistry attaches a registry to the context so spans started below it
// record their timings there.
func WithRegistry(ctx context.Context, r *Registry) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, registryKey, r)
}

// RegistryFrom returns the registry attached by WithRegistry (nil if none —
// and a nil registry is safe to use directly).
func RegistryFrom(ctx context.Context) *Registry {
	r, _ := ctx.Value(registryKey).(*Registry)
	return r
}

// WithRecorder attaches a trace recorder to the context: the next root span
// started below it opens a trace whose finished span tree is offered to the
// recorder (which samples, or force-keeps errored/slow traces — see
// TraceRecorder).
func WithRecorder(ctx context.Context, rec *TraceRecorder) context.Context {
	if rec == nil {
		return ctx
	}
	return context.WithValue(ctx, recorderKey, rec)
}

// RecorderFrom returns the trace recorder attached by WithRecorder (nil if
// none).
func RecorderFrom(ctx context.Context) *TraceRecorder {
	rec, _ := ctx.Value(recorderKey).(*TraceRecorder)
	return rec
}

// Attr is one key/value annotation on a span (request IDs, routes, table
// counts — the correlation keys that tie a trace to logs and metrics).
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed stage of a request. Spans nest through the context:
// a span started under another becomes its child, and its recorded metric
// name is the dot-joined path of stage names, prefixed "span." —
// StartSpan(ctx, "predict") then StartSpan(ctx, "encode") records
// `span.predict` and `span.predict.encode` latency histograms.
//
// Two observability layers hang off the same spans (DESIGN.md §8, §11):
//
//   - Aggregates, always: each End records one observation into the
//     registry's per-path duration histogram. No IDs are needed for this.
//   - Traces, when a TraceRecorder is on the context (WithRecorder): the
//     root span opens a trace with SplitMix64-derived trace/span IDs, every
//     span in the tree contributes a SpanData record (attributes and error
//     flag included), and the root's End offers the finished tree to the
//     recorder, which samples it into its ring buffer (errored or slow
//     traces are always kept).
type Span struct {
	name   string
	path   string
	start  time.Time
	parent *Span
	hist   *Histogram

	// Trace capture state; all zero when no recorder is attached, so the
	// aggregate-only path pays a nil check and nothing else.
	tb       *traceBuilder
	traceID  uint64
	spanID   uint64
	parentID uint64

	mu    sync.Mutex // guards attrs and err (End snapshots them)
	attrs []Attr
	err   bool
}

// StartSpan begins a stage span as a child of the context's current span,
// recording into the context's registry. The returned context carries the
// new span; pass it to nested stages. Always returns a usable span — with
// no registry attached, End simply records nothing. A root span (no parent)
// started under a context carrying a TraceRecorder opens a new trace; child
// spans join their parent's trace.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(spanKey).(*Span)
	s := &Span{name: name, path: name, start: time.Now(), parent: parent}
	if parent != nil {
		s.path = parent.path + "." + name
		if parent.tb != nil {
			s.tb = parent.tb
			s.traceID = parent.traceID
			s.parentID = parent.spanID
			s.spanID = s.tb.rec.nextID()
		}
	} else if rec := RecorderFrom(ctx); rec != nil {
		s.tb = &traceBuilder{rec: rec}
		s.traceID = rec.nextID()
		s.spanID = rec.nextID()
	}
	if r := RegistryFrom(ctx); r != nil {
		s.hist = r.Histogram("span."+s.path, nil)
	}
	return context.WithValue(ctx, spanKey, s), s
}

// Name returns the span's stage name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Path returns the dot-joined stage path from the root span ("" for nil).
func (s *Span) Path() string {
	if s == nil {
		return ""
	}
	return s.path
}

// Parent returns the enclosing span (nil at the root).
func (s *Span) Parent() *Span {
	if s == nil {
		return nil
	}
	return s.parent
}

// TraceID returns the span's trace ID as a 16-hex-digit string, or "" when
// the span is not part of a captured trace (no recorder on the context).
func (s *Span) TraceID() string {
	if s == nil || s.tb == nil {
		return ""
	}
	return formatID(s.traceID)
}

// SpanID returns the span's own ID as a 16-hex-digit string ("" untraced).
func (s *Span) SpanID() string {
	if s == nil || s.tb == nil {
		return ""
	}
	return formatID(s.spanID)
}

// SetAttr annotates the span with a key/value pair (later sets of the same
// key append — attrs are a log, not a map). Nil-safe; attrs are dropped
// unless the span belongs to a captured trace.
func (s *Span) SetAttr(key, value string) {
	if s == nil || s.tb == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// SetError flags the span (and thereby its trace) as failed. An errored
// trace is always captured by the recorder, regardless of the sample rate.
// Nil-safe.
func (s *Span) SetError() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.err = true
	s.mu.Unlock()
}

// End stops the span, records its duration into the registry histogram for
// its stage path, and returns the duration. If the span belongs to a
// captured trace it contributes its SpanData record; ending the root span
// finalizes the trace and offers it to the recorder. Nil-safe.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start)
	if s.hist != nil {
		s.hist.Observe(d.Seconds())
	}
	if s.tb != nil {
		s.mu.Lock()
		sd := SpanData{
			TraceID:    formatID(s.traceID),
			SpanID:     formatID(s.spanID),
			Name:       s.name,
			Path:       s.path,
			Start:      s.start,
			DurationMs: float64(d) / float64(time.Millisecond),
			Error:      s.err,
			Attrs:      s.attrs,
		}
		errored := s.err
		s.mu.Unlock()
		if s.parentID != 0 {
			sd.ParentID = formatID(s.parentID)
		}
		s.tb.add(sd, errored)
		if s.parent == nil {
			s.tb.finish(s, d)
		}
	}
	return d
}

// formatID renders a trace/span ID in the fixed 16-hex-digit wire format.
func formatID(id uint64) string { return fmt.Sprintf("%016x", id) }
