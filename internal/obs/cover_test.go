package obs

import (
	"context"
	"encoding/json"
	"expvar"
	"testing"
	"time"
)

// TestHistogramSince: the stage-timing idiom records elapsed seconds, and a
// nil histogram stays inert.
func TestHistogramSince(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("since.seconds", nil)
	h.Since(time.Now().Add(-10 * time.Millisecond))
	s := h.Snapshot()
	if s.Count != 1 || s.Min < 0.01 {
		t.Fatalf("Since recorded count=%d min=%v", s.Count, s.Min)
	}
	var nilH *Histogram
	nilH.Since(time.Now()) // must not panic
}

// TestNilHandleAccessors: reads on nil handles return zero values.
func TestNilHandleAccessors(t *testing.T) {
	var c *Counter
	var g *Gauge
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil handle values not zero")
	}
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1) // all inert
}

// TestPublishExpvar: the registry snapshot is readable through expvar, and
// a second claim of the same name is a no-op rather than a panic.
func TestPublishExpvar(t *testing.T) {
	r := NewRegistry()
	r.Counter("pub.hits").Inc()
	r.PublishExpvar("obs-test-registry")
	r.PublishExpvar("obs-test-registry") // duplicate: no-op
	(*Registry)(nil).PublishExpvar("obs-test-nil")

	v := expvar.Get("obs-test-registry")
	if v == nil {
		t.Fatal("registry not published")
	}
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal([]byte(v.String()), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["pub.hits"] != 1 {
		t.Fatalf("published snapshot = %+v", snap)
	}
}

// TestUntracedSpanIdentity: spans outside a captured trace have no IDs, and
// nil spans answer every accessor safely.
func TestUntracedSpanIdentity(t *testing.T) {
	ctx, span := StartSpan(context.Background(), "lonely")
	if span.TraceID() != "" || span.SpanID() != "" {
		t.Fatal("untraced span minted IDs")
	}
	if span.Name() != "lonely" || span.Path() != "lonely" || span.Parent() != nil {
		t.Fatalf("span identity: name=%q path=%q", span.Name(), span.Path())
	}
	span.SetAttr("k", "v") // dropped, no trace
	if got, _ := ctx.Value(spanKey).(*Span); got != span {
		t.Fatal("context does not carry the started span")
	}
	span.End()

	var nilSpan *Span
	if nilSpan.Name() != "" || nilSpan.Path() != "" || nilSpan.Parent() != nil ||
		nilSpan.TraceID() != "" || nilSpan.SpanID() != "" {
		t.Fatal("nil span accessors not zero")
	}
	nilSpan.SetError()
	nilSpan.End()
}

// TestWithRecorderNil: attaching a nil recorder leaves the context (and
// sampling) untouched.
func TestWithRecorderNil(t *testing.T) {
	ctx := WithRecorder(context.Background(), nil)
	if RecorderFrom(ctx) != nil {
		t.Fatal("nil recorder stored on context")
	}
}

// TestTraceRecorderConfigClamps: sample rates above 1 clamp, non-positive
// buffers select the default capacity.
func TestTraceRecorderConfigClamps(t *testing.T) {
	rec := NewTraceRecorder(TraceConfig{SampleRate: 7, Buffer: -3})
	ctx := WithRecorder(context.Background(), rec)
	for i := 0; i < 5; i++ {
		_, span := StartSpan(ctx, "clamped")
		span.End()
	}
	if got := rec.Captured(); got != 5 {
		t.Fatalf("rate 7 captured %d/5 — not clamped to always-keep", got)
	}
	if rec.Sampled() != 5 || rec.Dropped() != 0 {
		t.Fatalf("sampled=%d dropped=%d", rec.Sampled(), rec.Dropped())
	}
	if rec.Len() != 5 {
		t.Fatalf("ring len %d with default buffer", rec.Len())
	}
}

// TestTraceLookupHelpers: Attr misses return "", and RootSpan finds the
// parentless record (nil when absent).
func TestTraceLookupHelpers(t *testing.T) {
	rec := NewTraceRecorder(TraceConfig{SampleRate: 1})
	ctx := WithRecorder(context.Background(), rec)
	ctx, root := StartSpan(ctx, "root")
	root.SetAttr("present", "yes")
	_, child := StartSpan(ctx, "child")
	child.End()
	root.End()

	traces := rec.Traces(TraceFilter{})
	if len(traces) != 1 {
		t.Fatalf("traces = %d", len(traces))
	}
	tr := traces[0]
	rs := tr.RootSpan()
	if rs == nil || rs.Name != "root" {
		t.Fatalf("RootSpan = %+v", rs)
	}
	if rs.Attr("present") != "yes" || rs.Attr("absent") != "" {
		t.Fatal("Attr lookup wrong")
	}
	orphan := Trace{Spans: []SpanData{{ParentID: "ff"}}}
	if orphan.RootSpan() != nil {
		t.Fatal("RootSpan on rootless trace not nil")
	}
}

// TestDriftBaselineNormalization: monitors tolerate baselines with missing
// or mis-sized confidence vectors by normalizing them at construction.
func TestDriftBaselineNormalization(t *testing.T) {
	// No bounds at all: defaults to ConfidenceBuckets.
	m := NewDriftMonitor(DriftBaseline{TypeCounts: map[string]uint64{"a": 3}})
	if m == nil {
		t.Fatal("baseline with type counts only should build")
	}
	m.Observe("a", 0.42)
	if s := m.ConfidenceScore(); s < 0 || s > 1 {
		t.Fatalf("confidence score %v out of [0,1]", s)
	}

	// Mis-sized counts vector: padded to len(bounds)+1.
	m2 := NewDriftMonitor(DriftBaseline{
		TypeCounts: map[string]uint64{"a": 1},
		ConfBounds: []float64{0.5},
		ConfCounts: []uint64{9, 9, 9, 9},
	})
	if m2 == nil {
		t.Fatal("mis-sized baseline rejected")
	}
	m2.Observe("a", 0.9) // overflow bucket; must not panic
	if s := m2.ConfidenceScore(); s < 0 || s > 1 {
		t.Fatalf("confidence score %v out of [0,1]", s)
	}
}
