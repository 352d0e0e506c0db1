package main

import "time"

// Span is one timed call into a layer during a traced replay. Spans of one
// operation share Op; Parent is the enclosing span's ID, -1 for the root.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory; they are written out when the run ends.
// It is used from one goroutine only.
type tracer struct {
	t0    time.Time
	spans []Span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID. A nil tracer records nothing, so
// the untraced replay makes the same calls with no tracing cost.
func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.t0)), End: -1})
	return id
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover. Children may overlap; the overlap is
// counted once.
func selfTimes(spans []Span) []int64 {
	children := make(map[int][]interval)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.End - s.Start - covered(children[s.ID], s.Start, s.End)
	}
	return out
}

// opSelf sums self time by span name within each operation: the result maps
// op → name → nanoseconds.
func opSelf(spans []Span) map[int]map[string]int64 {
	self := selfTimes(spans)
	out := map[int]map[string]int64{}
	for i, s := range spans {
		m := out[s.Op]
		if m == nil {
			m = map[string]int64{}
			out[s.Op] = m
		}
		m[s.Name] += self[i]
	}
	return out
}
