package obs

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// baselineFrom builds a DriftBaseline by feeding predictions through the
// same bucketing the monitor uses.
func baselineFrom(preds []struct {
	typ  string
	conf float64
}) DriftBaseline {
	b := DriftBaseline{
		TypeCounts: map[string]uint64{},
		ConfCounts: make([]uint64, len(ConfidenceBuckets)+1),
	}
	for _, p := range preds {
		b.TypeCounts[p.typ]++
		b.ConfCounts[ConfidenceBucket(p.conf)]++
	}
	return b
}

type pred = struct {
	typ  string
	conf float64
}

func TestDriftShiftedScoresAboveControl(t *testing.T) {
	var train []pred
	for i := 0; i < 300; i++ {
		train = append(train, pred{"player.age", 0.9})
		train = append(train, pred{"team.score", 0.85})
		train = append(train, pred{"game.attendance", 0.8})
	}
	baseline := baselineFrom(train)

	// Control: serve the same mix the model trained on.
	control := NewDriftMonitor(baseline)
	for i := 0; i < 100; i++ {
		control.Observe("player.age", 0.9)
		control.Observe("team.score", 0.85)
		control.Observe("game.attendance", 0.8)
	}
	// Shifted: one dominant unseen type at low confidence.
	shifted := NewDriftMonitor(baseline)
	for i := 0; i < 300; i++ {
		shifted.Observe("zipcode", 0.2)
	}

	if ctrl, shift := control.TypeScore(), shifted.TypeScore(); shift <= ctrl {
		t.Fatalf("type drift: shifted %v <= control %v", shift, ctrl)
	}
	if ctrl, shift := control.ConfidenceScore(), shifted.ConfidenceScore(); shift <= ctrl {
		t.Fatalf("confidence drift: shifted %v <= control %v", shift, ctrl)
	}
	if s := control.TypeScore(); s > 0.01 {
		t.Fatalf("control type score %v, want ≈0 for identical distributions", s)
	}
	if s := shifted.TypeScore(); s < 0.5 {
		t.Fatalf("shifted type score %v, want large for disjoint support", s)
	}
}

func TestDriftGaugesRegistered(t *testing.T) {
	m := NewDriftMonitor(baselineFrom([]pred{{"a", 0.9}, {"b", 0.8}}))
	r := NewRegistry()
	m.RegisterLabeled(r)
	m.Observe("c", 0.1)
	snap := r.Snapshot()
	if snap.Gauges["drift.observations"] != 1 {
		t.Fatalf("drift.observations = %v, want 1", snap.Gauges["drift.observations"])
	}
	if snap.Gauges["drift.type.score"] <= 0 {
		t.Fatalf("drift.type.score = %v, want > 0 after unseen type", snap.Gauges["drift.type.score"])
	}
	if snap.Gauges["drift.confidence.score"] <= 0 {
		t.Fatalf("drift.confidence.score = %v, want > 0", snap.Gauges["drift.confidence.score"])
	}
}

func TestDriftEmptyBaselineInert(t *testing.T) {
	m := NewDriftMonitor(DriftBaseline{})
	if m != nil {
		t.Fatal("empty baseline should produce a nil (inert) monitor")
	}
	m.Observe("x", 0.5) // nil-safe
	if m.TypeScore() != 0 || m.ConfidenceScore() != 0 || m.Observations() != 0 {
		t.Fatal("nil monitor not inert")
	}
	m.RegisterLabeled(NewRegistry())
}

func TestDriftZeroUntilObserved(t *testing.T) {
	m := NewDriftMonitor(baselineFrom([]pred{{"a", 0.9}}))
	if m.TypeScore() != 0 || m.ConfidenceScore() != 0 {
		t.Fatal("scores nonzero before any observation")
	}
}

func TestDriftConcurrentObserve(t *testing.T) {
	m := NewDriftMonitor(baselineFrom([]pred{{"a", 0.9}, {"b", 0.5}}))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m.Observe("a", float64(i%10)/10)
				_ = m.TypeScore()
			}
		}(w)
	}
	wg.Wait()
	if m.Observations() != 8*200 {
		t.Fatalf("observations = %d, want %d", m.Observations(), 8*200)
	}
}

func TestChiSquareDistanceBounds(t *testing.T) {
	if d := chiSquareDistance([]float64{1, 2, 3}, []float64{2, 4, 6}); d > 1e-12 {
		t.Fatalf("identical (scaled) distributions: d = %v, want 0", d)
	}
	if d := chiSquareDistance([]float64{1, 0}, []float64{0, 1}); d < 0.999 || d > 1.001 {
		t.Fatalf("disjoint distributions: d = %v, want 1", d)
	}
	if d := chiSquareDistance(nil, nil); d != 0 {
		t.Fatalf("empty vs empty: d = %v", d)
	}
	if d := chiSquareDistance([]float64{1}, []float64{0}); d != 0 {
		t.Fatalf("one empty side: d = %v, want 0 (no evidence)", d)
	}
}

// TestTypeScoreReadsSameBits: one monitor state must read the same score
// on every read, whatever order the type maps iterate in.
func TestTypeScoreReadsSameBits(t *testing.T) {
	const types = 40
	name := func(i int) string { return fmt.Sprintf("type.%02d", i) }
	var train []pred
	for i := range types {
		if i%5 != 0 { // every fifth type is only ever served
			for range 7*i + 3 {
				train = append(train, pred{name(i), 0.5})
			}
		}
	}
	m := NewDriftMonitor(baselineFrom(train))
	for i := range types {
		for range (i * 13) % 17 { // some baseline types are never served
			m.Observe(name(i), 0.5)
		}
	}
	first := m.TypeScore()
	for range 100 {
		if got := m.TypeScore(); math.Float64bits(got) != math.Float64bits(first) {
			t.Fatalf("TypeScore read %v, then %v, of one state", first, got)
		}
	}
}
