package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/sematype/pythagoras/internal/data"
	"github.com/sematype/pythagoras/internal/faultinject"
	"github.com/sematype/pythagoras/internal/obs"
	"github.com/sematype/pythagoras/internal/table"
	"github.com/sematype/pythagoras/internal/tensor"
)

// scoredModel trains a tiny model for the offline-scorer tests and returns
// it with its corpus; tables 8 and up were never trained or validated on.
func scoredModel(t *testing.T, tables int) (*Model, *data.Corpus) {
	t.Helper()
	c := tinyCorpus(tables)
	cfg := tinyConfig(tinyEncoder())
	cfg.Epochs = 2
	m, err := TrainCtx(context.Background(), c, []int{0, 1, 2, 3, 4, 5}, []int{6, 7}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, c
}

// serialDriftBaseline is ComputeDriftBaseline as a serial loop, one table
// per forward: the oracle the scorer's windows and union chunks must match.
func serialDriftBaseline(m *Model, tables []*table.Table) obs.DriftBaseline {
	b := obs.DriftBaseline{
		TypeCounts: map[string]uint64{},
		ConfCounts: make([]uint64, len(obs.ConfidenceBuckets)+1),
	}
	for _, t := range tables {
		prep := m.Prepare(t)
		probs, targets := m.InferProbs(prep)
		for _, p := range m.DecodePredictions(prep, probs, targets, 0, len(targets), t) {
			b.TypeCounts[p.Type]++
			i := 0
			for i < len(obs.ConfidenceBuckets) && p.Confidence > obs.ConfidenceBuckets[i] {
				i++
			}
			b.ConfCounts[i]++
		}
	}
	return b
}

// TestComputeDriftBaselineMatchesSerialLoop: the scorer takes 40 tables in
// windows and union chunks (on two CPUs, two windows and four chunks of 16,
// 16, 4 and 4 tables), yet every type count and confidence count must equal
// the serial loop's, at temperature 1 and at a calibrated temperature.
func TestComputeDriftBaselineMatchesSerialLoop(t *testing.T) {
	m, c := scoredModel(t, 48)
	tables := c.Tables[8:]
	for _, temp := range []float64{1, 1.7} {
		m.temperature = temp
		got, want := m.ComputeDriftBaseline(tables), serialDriftBaseline(m, tables)
		if want.Total() == 0 {
			t.Fatal("oracle counted no predictions")
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("temperature %v: baseline %+v, serial loop %+v", temp, got, want)
		}
	}
}

// serialCalibrate is CalibrateTemperature as a serial loop, one table per
// forward, returning the temperature it would store.
func serialCalibrate(m *Model, tables []*table.Table) float64 {
	type sample struct {
		logits []float64
		label  int
	}
	var samples []sample
	for _, tb := range tables {
		p := m.Prepare(tb)
		logits, targets := m.inferLogits(p)
		for i, n := range targets {
			if p.Graph.Labels[n] < 0 {
				continue
			}
			samples = append(samples, sample{
				logits: append([]float64(nil), logits.Row(i)...),
				label:  p.Graph.Labels[n],
			})
		}
	}
	nll := func(temp float64) float64 {
		var total float64
		for _, s := range samples {
			mx := math.Inf(-1)
			for _, v := range s.logits {
				if v/temp > mx {
					mx = v / temp
				}
			}
			var z float64
			for _, v := range s.logits {
				z += math.Exp(v/temp - mx)
			}
			total += -(s.logits[s.label]/temp - mx - math.Log(z))
		}
		return total / float64(len(samples))
	}
	lo, hi := 0.25, 8.0
	const phi = 0.6180339887498949
	a, b := hi-(hi-lo)*phi, lo+(hi-lo)*phi
	fa, fb := nll(a), nll(b)
	for i := 0; i < 60; i++ {
		if fa < fb {
			hi, b, fb = b, a, fa
			a = hi - (hi-lo)*phi
			fa = nll(a)
		} else {
			lo, a, fa = a, b, fb
			b = lo + (hi-lo)*phi
			fb = nll(b)
		}
	}
	temp := (lo + hi) / 2
	if nll(temp) > nll(1) {
		temp = 1
	}
	return temp
}

// TestCalibrateTemperatureMatchesSerialOracle: the temperature fitted from
// the scorer's union forwards carries the same float64 bits as the one the
// serial per-table loop fits.
func TestCalibrateTemperatureMatchesSerialOracle(t *testing.T) {
	m, c := scoredModel(t, 48)
	idx := make([]int, 0, 40)
	for i := 8; i < len(c.Tables); i++ {
		idx = append(idx, i)
	}
	want := serialCalibrate(m, c.Tables[8:])
	got, err := m.CalibrateTemperature(c, idx)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("temperature %v (%#x), serial oracle %v (%#x)", got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestScoreStopsOnCancel: a cancelled context ends the scoring before any
// table is visited, with the context's error.
func TestScoreStopsOnCancel(t *testing.T) {
	m, c := scoredModel(t, 12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	visited := 0
	err := m.score(ctx, 2, 4, StageHooks{}, func(i int) *Prepared { return m.Prepare(c.Tables[8+i]) },
		func(int, *Prepared, []int, *tensor.Matrix) error { visited++; return nil })
	if !errors.Is(err, context.Canceled) || visited != 0 {
		t.Fatalf("score on a cancelled context: err %v, %d tables visited", err, visited)
	}
}

// TestPredictBatchStageGates drives each of the scorer's four stage points
// through PredictBatch on one table: cancellation or an injected error at
// prepare, union, forward or decode ends the batch with that error, fires
// the point once and emits nothing. The stage histograms time the stages
// that ran.
func TestPredictBatchStageGates(t *testing.T) {
	m, c := scoredModel(t, 9)
	boom := errors.New("stage exploded")
	points := []faultinject.Point{
		faultinject.InferPrepare, faultinject.InferUnion, faultinject.InferForward, faultinject.InferDecode,
	}
	for stage, point := range points {
		for _, cancels := range []bool{true, false} {
			ctx, cancel := context.WithCancel(context.Background())
			act, want := faultinject.Err(boom), boom
			if cancels {
				act, want = faultinject.Cancel(cancel), context.Canceled
			}
			reg := obs.NewRegistry()
			hooks := StageHooks{
				Faults:  faultinject.New().On(point, act),
				Prepare: reg.Histogram("prepare", nil),
				Union:   reg.Histogram("union", nil),
				Forward: reg.Histogram("forward", nil),
				Decode:  reg.Histogram("decode", nil),
				Chunk:   reg.Histogram("chunk", nil),
			}
			emitted := 0
			err := m.PredictBatch(ctx, 1, c.Tables[8:9], hooks, func(int, []ColumnPrediction) { emitted++ })
			cancel()
			if !errors.Is(err, want) {
				t.Fatalf("point %s: err = %v, want %v", point, err, want)
			}
			if emitted != 0 {
				t.Fatalf("point %s: aborted batch emitted %d tables", point, emitted)
			}
			if n := hooks.Faults.Fired(point); n != 1 {
				t.Fatalf("point %s fired %d times, want 1", point, n)
			}
			s := reg.Snapshot()
			for i, name := range []string{"prepare", "union", "forward", "decode"} {
				var ran uint64
				if i < stage {
					ran = 1
				}
				if got := s.Histograms[name].Count; got != ran {
					t.Fatalf("point %s: %s observed %d times, want %d", point, name, got, ran)
				}
			}
		}
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, temp := range []float64{1, 0.6} {
		x := tensor.New(5, 7)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		softmaxRows(x, temp)
		for i := 0; i < 5; i++ {
			var s float64
			for _, v := range x.Row(i) {
				if v < 0 {
					t.Fatal("negative probability")
				}
				s += v
			}
			if math.Abs(s-1) > 1e-9 {
				t.Fatalf("temperature %v: row %d sums to %v", temp, i, s)
			}
		}
	}
}
