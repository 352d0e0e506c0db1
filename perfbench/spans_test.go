package main

import "testing"

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Op: 1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Op: 1, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Op: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 3, Parent: 0, Op: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
		{ID: 4, Parent: 1, Op: 1, Name: "d", Start: 15, End: 25},
		{ID: 5, Parent: 4, Op: 1, Name: "e", Start: 20, End: 22}, // grandchild of a
	}
	want := []int64{
		100 - (60 - 10) - (100 - 90), // 40: children cover [10,60) and [90,100)
		30 - 10,                      // a: d covers 10
		30,
		30,
		10 - 2,
		2,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestOpSelfGroupsByOperation(t *testing.T) {
	tr := newTracer()
	for op := 0; op < 2; op++ {
		root := tr.begin(op, -1, "op")
		s := tr.begin(op, root, "core.forward")
		tr.end(s)
		tr.end(root)
	}
	self := opSelf(tr.spans)
	if len(self) != 2 {
		t.Fatalf("got %d operations, want 2", len(self))
	}
	for op, names := range self {
		if _, ok := names["core.forward"]; !ok {
			t.Errorf("op %d lost its core.forward span", op)
		}
	}
	var nilTracer *tracer
	if id := nilTracer.begin(0, -1, "op"); id != -1 {
		t.Errorf("nil tracer begin = %d, want -1", id)
	}
	nilTracer.end(-1) // must not panic
}
