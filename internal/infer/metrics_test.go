package infer

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/sematype/pythagoras/internal/obs"
	"github.com/sematype/pythagoras/internal/table"
)

// TestMetricsPopulatedByPredictBatch: after one batched call, every stage
// histogram has observations with the expected cardinality — one per table
// for prepare and decode, one per chunk for union/forward.
func TestMetricsPopulatedByPredictBatch(t *testing.T) {
	m, c := trainedModel(t)
	reg := obs.NewRegistry()
	eng := New(m, WithWorkers(4), WithMetrics(reg))
	if eng.Metrics() != reg {
		t.Fatal("Metrics() should return the wired registry")
	}

	tables := c.Tables[:8]
	predict(t, eng, tables)

	s := reg.Snapshot()
	const wantChunks = 4 // 8 tables over 4 workers: four chunks of two
	for name, want := range map[string]uint64{
		"infer.stage.prepare.seconds": uint64(len(tables)),
		"infer.stage.union.seconds":   wantChunks,
		"infer.stage.forward.seconds": wantChunks,
		"infer.stage.decode.seconds":  uint64(len(tables)),
		"infer.chunk.tables":          wantChunks,
		"infer.batch.tables":          1,
	} {
		if got := s.Histograms[name].Count; got != want {
			t.Errorf("%s count = %d, want %d", name, got, want)
		}
	}
	if got := s.Counters["infer.batches"]; got != 1 {
		t.Errorf("infer.batches = %d, want 1", got)
	}
	if got := s.Counters["infer.tables"]; got != uint64(len(tables)) {
		t.Errorf("infer.tables = %d, want %d", got, len(tables))
	}
	// EnableMetrics also registers the encoder cache gauges.
	if _, ok := s.Gauges["lm.cache.text.entries"]; !ok {
		t.Error("encoder cache gauges not registered")
	}
}

// TestMetricsSingleTablePaths: a one-table call is a batch of one — it
// counts as a batch, observes its batch and chunk size, and times its
// (empty) union like any other chunk, so every table is counted once.
func TestMetricsSingleTablePaths(t *testing.T) {
	m, c := trainedModel(t)
	reg := obs.NewRegistry()
	eng := New(m, WithMetrics(reg))

	predict(t, eng, c.Tables[:1])
	predict(t, eng, c.Tables[1:2])

	s := reg.Snapshot()
	for name, got := range map[string]uint64{
		"infer.tables":                s.Counters["infer.tables"],
		"infer.batches":               s.Counters["infer.batches"],
		"infer.batch.tables":          s.Histograms["infer.batch.tables"].Count,
		"infer.chunk.tables":          s.Histograms["infer.chunk.tables"].Count,
		"infer.stage.prepare.seconds": s.Histograms["infer.stage.prepare.seconds"].Count,
		"infer.stage.union.seconds":   s.Histograms["infer.stage.union.seconds"].Count,
		"infer.stage.forward.seconds": s.Histograms["infer.stage.forward.seconds"].Count,
		"infer.stage.decode.seconds":  s.Histograms["infer.stage.decode.seconds"].Count,
	} {
		if got != 2 {
			t.Errorf("%s = %d, want 2", name, got)
		}
	}
}

// TestInstrumentationPreservesOutput: metrics must be observational only —
// instrumented and uninstrumented engines produce identical predictions.
func TestInstrumentationPreservesOutput(t *testing.T) {
	m, c := trainedModel(t)
	plain := New(m, WithWorkers(3))
	inst := New(m, WithWorkers(3), WithMetrics(obs.NewRegistry()))

	tables := c.Tables[:7]
	if !reflect.DeepEqual(predict(t, plain, tables), predict(t, inst, tables)) {
		t.Fatal("instrumented batch diverged from uninstrumented")
	}
	if !reflect.DeepEqual(predict(t, plain, tables[:1]), predict(t, inst, tables[:1])) {
		t.Fatal("instrumented batch of one diverged from uninstrumented")
	}
}

// TestMetricsDefaultOff: without WithMetrics the engine records nothing.
func TestMetricsDefaultOff(t *testing.T) {
	m, c := trainedModel(t)
	eng := New(m)
	if eng.Metrics() != nil {
		t.Fatal("default engine should be uninstrumented")
	}
	predict(t, eng, c.Tables[:3]) // must not panic on nil metric handles
}

// TestMetricsConcurrentPredictBatch hammers a shared instrumented engine
// from many goroutines while snapshots run — the acceptance race test for
// registry snapshots under concurrent PredictBatch load.
func TestMetricsConcurrentPredictBatch(t *testing.T) {
	m, c := trainedModel(t)
	reg := obs.NewRegistry()
	eng := New(m, WithWorkers(2), WithMetrics(reg))

	const callers = 4
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tables := []*table.Table{
				c.Tables[g%len(c.Tables)],
				c.Tables[(g+1)%len(c.Tables)],
				c.Tables[(g+2)%len(c.Tables)],
				c.Tables[(g+3)%len(c.Tables)],
			}
			for rep := 0; rep < 3; rep++ {
				if _, err := eng.PredictBatchCtx(context.Background(), tables); err != nil {
					t.Error(err)
					return
				}
				_ = reg.Snapshot()
			}
		}(g)
	}
	wg.Wait()

	s := reg.Snapshot()
	if got := s.Counters["infer.tables"]; got != callers*3*4 {
		t.Fatalf("infer.tables = %d, want %d", got, callers*3*4)
	}
}

// TestPredictionTelemetry: serving records the confidence histogram, total
// and per-type labeled counters, and the low-confidence band.
func TestPredictionTelemetry(t *testing.T) {
	m, c := trainedModel(t)
	reg := obs.NewRegistry()
	eng := New(m, WithMetrics(reg))

	preds := predict(t, eng, c.Tables[:4])
	var want uint64
	for _, ps := range preds {
		want += uint64(len(ps))
	}
	if want == 0 {
		t.Fatal("no predictions served")
	}
	s := reg.Snapshot()
	if got := s.Counters["infer.predictions"]; got != want {
		t.Fatalf("infer.predictions = %d, want %d", got, want)
	}
	if got := s.Histograms["infer.confidence"].Count; got != want {
		t.Fatalf("infer.confidence count = %d, want %d", got, want)
	}
	var byType uint64
	for name, v := range s.Counters {
		if strings.HasPrefix(name, "infer.predicted{") {
			byType += v
		}
	}
	if byType != want {
		t.Fatalf("per-type counters sum to %d, want %d", byType, want)
	}
	if low := s.Counters["infer.predictions.low_confidence"]; low > want {
		t.Fatalf("low-confidence %d exceeds total %d", low, want)
	}
}

// TestDriftGaugesMove is the acceptance check for drift telemetry: serving
// traffic that matches the baseline keeps the scores near zero; serving a
// shifted distribution drives them above the control.
func TestDriftGaugesMove(t *testing.T) {
	m, c := trainedModel(t)
	baseline := m.ComputeDriftBaseline(c.Tables)
	if baseline.Total() == 0 {
		t.Fatal("empty baseline from training tables")
	}

	// Control: serve the very tables the baseline was computed from.
	ctrlReg := obs.NewRegistry()
	ctrl := New(m, WithMetrics(ctrlReg))
	ctrl.EnableDrift(obs.NewDriftMonitor(baseline))
	predict(t, ctrl, c.Tables)

	// Shifted: tables whose columns are all the same synthetic shape, far
	// from the corpus mix.
	shiftReg := obs.NewRegistry()
	shift := New(m, WithMetrics(shiftReg))
	shift.EnableDrift(obs.NewDriftMonitor(baseline))
	odd := &table.Table{Name: "Odd", ID: "odd", Columns: []*table.Column{
		{Header: "zz9", Kind: table.KindNumeric, NumValues: []float64{1e9, 2e9, 3e9}},
		{Header: "qqq", Kind: table.KindNumeric, NumValues: []float64{-7e8, -8e8, -9e8}},
	}}
	for i := 0; i < 20; i++ {
		predict(t, shift, []*table.Table{odd})
	}

	ctrlScore := ctrl.Drift().TypeScore()
	shiftScore := shift.Drift().TypeScore()
	if shiftScore <= ctrlScore {
		t.Fatalf("shifted type drift %v <= control %v", shiftScore, ctrlScore)
	}
	if obsv := shift.Drift().Observations(); obsv != 40 {
		t.Fatalf("drift.observations = %v, want 40", obsv)
	}
}

// TestEnableDriftNilKeepsAttachedMonitor: attaching a monitor after
// construction, then EnableDrift(nil), leaves the attached monitor in place.
func TestEnableDriftNilKeepsAttachedMonitor(t *testing.T) {
	m, c := trainedModel(t)
	reg := obs.NewRegistry()
	eng := New(m, WithMetrics(reg))
	eng.EnableDrift(obs.NewDriftMonitor(m.ComputeDriftBaseline(c.Tables[:2])))
	predict(t, eng, c.Tables[:1])
	eng.EnableDrift(nil) // must not clear an attached monitor
	if eng.Drift() == nil {
		t.Fatal("EnableDrift(nil) cleared the monitor")
	}
}
