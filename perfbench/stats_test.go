package main

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // ranks 991..1000 lie beyond
		{999, 0.99, 990, false}, // only 9 beyond
		{40, 0.75, 30, true},
		{39, 0.75, 30, false},
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, p=%g) = %g, %v; want %g, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported as supported")
	}
}

func TestTailFallsBackToSupportedLevel(t *testing.T) {
	if v, level := tail(seq(1000), 0.99); level != 0.99 || v != 990 {
		t.Errorf("tail(1000) = %g at %g, want 990 at 0.99", v, level)
	}
	if v, level := tail(seq(60), 0.99); level != 0.75 || v != 45 {
		t.Errorf("tail(60) = %g at %g, want 45 at 0.75", v, level)
	}
	if _, level := tail(seq(5), 0.75); level != 0.5 {
		t.Errorf("tail(5) level = %g, want the median", level)
	}
	for _, level := range tailLevels {
		n := minTailSamples(level)
		if _, ok := percentile(seq(n), level); !ok {
			t.Errorf("minTailSamples(%g) = %d does not support the level", level, n)
		}
		if _, ok := percentile(seq(n-1), level); ok {
			t.Errorf("minTailSamples(%g) = %d is not the smallest", level, n)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	at1, ops1 := openSchedule(7, 64, 20, 2*time.Second, 100)
	at2, ops2 := openSchedule(7, 64, 20, 2*time.Second, 100)
	if !reflect.DeepEqual(at1, at2) || !reflect.DeepEqual(ops1, ops2) {
		t.Fatal("the same seed gave different open-loop schedules")
	}
	at3, _ := openSchedule(8, 64, 20, 2*time.Second, 100)
	if reflect.DeepEqual(at1, at3) {
		t.Fatal("different seeds gave the same schedule")
	}
	predicts := 0
	for i, op := range ops1 {
		if i > 0 && at1[i] < at1[i-1] {
			t.Fatal("send times are not ordered")
		}
		if op.kind == opPredict {
			predicts++
		}
		for _, tb := range op.tables {
			if tb < 0 || tb >= 64 {
				t.Fatalf("table index %d outside the pool", tb)
			}
		}
	}
	if predicts < 100 || at1[len(at1)-1] < time.Second {
		t.Fatalf("schedule too short: %d predicts over %s", predicts, at1[len(at1)-1])
	}

	a := poissonArrivals(rand.New(rand.NewSource(3)), 100, time.Second, 0)
	b := poissonArrivals(rand.New(rand.NewSource(3)), 100, time.Second, 0)
	if !reflect.DeepEqual(a, b) || len(a) < 50 || len(a) > 150 {
		t.Fatalf("poisson arrivals: %d and %d for rate 100 over 1 s", len(a), len(b))
	}
	z1 := newZipf(rand.New(rand.NewSource(5)), onlineZipfS, onlineZipfV, 64)
	z2 := newZipf(rand.New(rand.NewSource(5)), onlineZipfS, onlineZipfV, 64)
	counts := make([]int, 64)
	for i := 0; i < 10000; i++ {
		x := z1.next()
		if x != z2.next() {
			t.Fatal("zipf draws differ for the same seed")
		}
		counts[x]++
	}
	if counts[0] < 2*counts[63] || counts[0] > 1500 {
		t.Fatalf("zipf skew off: table 0 drawn %d times, table 63 %d times in 10000", counts[0], counts[63])
	}
}

func TestOccupancy(t *testing.T) {
	calls := []interval{{10, 30}, {20, 40}, {60, 70}}
	idle, inflight := occupancy(calls, 0, 100)
	if idle != 0.6 {
		t.Errorf("idle = %g, want 0.6", idle)
	}
	if inflight != 0.5 {
		t.Errorf("mean in flight = %g, want 0.5", inflight)
	}
}
