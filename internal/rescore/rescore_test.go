package rescore

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"

	"github.com/sematype/pythagoras/internal/core"
	"github.com/sematype/pythagoras/internal/discovery"
	"github.com/sematype/pythagoras/internal/faultinject"
	"github.com/sematype/pythagoras/internal/obs"
	"github.com/sematype/pythagoras/internal/table"
)

func mkTable(id string, types ...string) *table.Table {
	t := &table.Table{ID: id, Name: "tbl " + id}
	for _, st := range types {
		t.Columns = append(t.Columns, &table.Column{
			Header: "h_" + st, SemanticType: st, Kind: table.KindNumeric,
			NumValues: []float64{1, 2, 3},
		})
	}
	return t
}

// predsFor is the fake model: deterministic per table and column, and
// independent of batch composition — the property the real engine has and
// the oracle comparisons rely on.
func predsFor(t *table.Table) []core.ColumnPrediction {
	preds := make([]core.ColumnPrediction, 0, len(t.Columns))
	for ci, c := range t.Columns {
		preds = append(preds, core.ColumnPrediction{
			ColIndex: ci, Header: c.Header, Kind: c.Kind,
			Type:       c.SemanticType,
			Confidence: 0.5 + float64(ci%4)/8,
		})
	}
	return preds
}

// fakeScorer scores with predsFor, records which tables it was asked to
// score, and optionally runs a hook before answering (to model concurrent
// lake mutations landing mid-batch).
type fakeScorer struct {
	mu     sync.Mutex
	scored []string
	hook   func(ts []*table.Table)
}

func (f *fakeScorer) PredictBatchCtx(ctx context.Context, ts []*table.Table) ([][]core.ColumnPrediction, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if f.hook != nil {
		f.hook(ts)
	}
	out := make([][]core.ColumnPrediction, len(ts))
	f.mu.Lock()
	for i, t := range ts {
		f.scored = append(f.scored, t.ID)
		out[i] = predsFor(t)
	}
	f.mu.Unlock()
	return out, nil
}

func (f *fakeScorer) scoredIDs() map[string]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	m := map[string]int{}
	for _, id := range f.scored {
		m[id]++
	}
	return m
}

// seedLake fills a lake with n tables (t00…) and indexes them in idx with
// stale "old model" confidences so the pre-rescore index is non-empty.
func seedLake(n int) (*Lake, *discovery.SwapIndex) {
	lake := NewLake()
	idx := discovery.NewSwapIndex(0)
	for i := 0; i < n; i++ {
		t := mkTable(tableID(i), "price", "rating")
		lake.Put(t)
		stale := predsFor(t)
		for j := range stale {
			stale[j].Confidence = 0.25 // the old model's view
		}
		idx.AddPredictions(t, stale)
	}
	return lake, idx
}

func tableID(i int) string { return "t" + string(rune('0'+i/10)) + string(rune('0'+i%10)) }

// wantDump is the oracle: the canonical dump of a fresh index holding
// predsFor of every lake table — what any complete re-score must produce.
func wantDump(lake *Lake) []byte {
	ix := discovery.NewTypeIndex(0)
	for _, id := range lake.SnapshotIDs() {
		t := lake.Get(id)
		ix.AddPredictions(t, predsFor(t))
	}
	return ix.CanonicalDump()
}

func TestRunHappyPath(t *testing.T) {
	lake, idx := seedLake(10)
	old := idx.Current()
	sc := &fakeScorer{}
	reg := obs.NewRegistry()
	d := New(lake, sc, idx, Config{ModelID: "m-new", BatchSize: 3, Budget: NewBudget(2), Metrics: reg})

	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	p := d.Progress()
	if p.State != "done" || p.Total != 10 || p.Done != 10 || p.Skipped != 0 {
		t.Fatalf("progress = %+v", p)
	}
	if got := reg.Snapshot().Gauges["rescore.tables.done"]; got != 10 {
		t.Fatalf("rescore.tables.done = %v, want 10", got)
	}
	if idx.Current() == old {
		t.Fatal("index never flipped")
	}
	if got := idx.Current().CanonicalDump(); !bytes.Equal(got, wantDump(lake)) {
		t.Fatalf("rescored index diverges from oracle:\n%s", got)
	}
	// One-shot: a second Run must refuse.
	if err := d.Run(context.Background()); err == nil {
		t.Fatal("second Run succeeded")
	}
}

// TestSwapCrashResume fails the run after the scan finished but before the
// flip: the old index keeps serving, and the next run scores the lake as it
// is then — a table re-indexed in between included — and flips.
func TestSwapCrashResume(t *testing.T) {
	lake, idx := seedLake(6)
	old := idx.Current()
	oldDump := old.CanonicalDump()
	boom := errors.New("crash before flip")

	faults := faultinject.New().On(faultinject.RescoreSwap, faultinject.Times(1, faultinject.Err(boom)))
	d1 := New(lake, &fakeScorer{}, idx, Config{ModelID: "m-new", BatchSize: 2, Faults: faults})
	if err := d1.Run(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("Run = %v", err)
	}
	if p := d1.Progress(); p.State != "failed" || p.Done != 6 {
		t.Fatalf("failed-flip progress = %+v", p)
	}
	if idx.Current() != old || !bytes.Equal(idx.Current().CanonicalDump(), oldDump) || idx.ShadowActive() {
		t.Fatal("failed flip disturbed the serving index")
	}

	// Between the runs, t00 is re-indexed with different columns.
	fresh := mkTable(tableID(0), "team")
	lake.Put(fresh)
	idx.AddPredictions(fresh, predsFor(fresh))

	sc2 := &fakeScorer{}
	d2 := New(lake, sc2, idx, Config{ModelID: "m-new", BatchSize: 2, Faults: faults})
	if err := d2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := len(sc2.scoredIDs()); got != 6 {
		t.Fatalf("next run scored %d tables, want all 6", got)
	}
	if got := idx.Current().CanonicalDump(); !bytes.Equal(got, wantDump(lake)) {
		t.Fatalf("next run's index diverges from the lake:\n%s", got)
	}
}

func TestCancelMidRunLeavesOldIndex(t *testing.T) {
	lake, idx := seedLake(9)
	old := idx.Current()
	oldDump := old.CanonicalDump()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The operator cancels (rollback) while the second batch is on the engine.
	faults := faultinject.New().On(faultinject.RescoreBatch,
		faultinject.After(1, faultinject.Cancel(cancel)))
	d := New(lake, &fakeScorer{}, idx, Config{
		ModelID: "m-new", BatchSize: 3, Budget: NewBudget(1), Faults: faults,
	})
	err := d.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if p := d.Progress(); p.State != "cancelled" {
		t.Fatalf("state = %q, want cancelled", p.State)
	}
	if idx.Current() != old || !bytes.Equal(idx.Current().CanonicalDump(), oldDump) {
		t.Fatal("cancelled run disturbed the serving index")
	}
	if idx.ShadowActive() {
		t.Fatal("shadow leaked after cancellation")
	}
	// The old index still answers queries.
	if cols := idx.Current().Columns("price"); len(cols) != 9 {
		t.Fatalf("old index damaged: %d price columns", len(cols))
	}
}

// TestBatchErrorFailsRun: a scoring error in one batch fails the run, stops
// the scan and leaves the old index serving.
func TestBatchErrorFailsRun(t *testing.T) {
	lake, idx := seedLake(12)
	old := idx.Current()
	boom := errors.New("engine failure")
	faults := faultinject.New().On(faultinject.RescoreBatch,
		faultinject.After(2, faultinject.Err(boom)))
	sc := &fakeScorer{}
	d := New(lake, sc, idx, Config{ModelID: "m-new", BatchSize: 1, Budget: NewBudget(1), Faults: faults})
	if err := d.Run(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want the injected error", err)
	}
	if p := d.Progress(); p.State != "failed" || p.Done != 2 {
		t.Fatalf("progress = %+v, want failed after 2 tables", p)
	}
	if got := len(sc.scoredIDs()); got != 2 {
		t.Fatalf("scan scored %d tables after the failure, want it stopped at 2", got)
	}
	if idx.Current() != old || idx.ShadowActive() {
		t.Fatal("failed run disturbed the serving index")
	}
}

// TestRunBoundsBatchGoroutines: a batch goroutine starts only once it holds
// a budget slot, so however many batches a lake has, at most the budget's
// limit of them are alive at once — plus one that has released its slot and
// is exiting.
func TestRunBoundsBatchGoroutines(t *testing.T) {
	const limit = 2
	lake, idx := seedLake(64)
	base := runtime.NumGoroutine()
	var mu sync.Mutex
	peak := 0
	sc := &fakeScorer{hook: func([]*table.Table) {
		mu.Lock()
		peak = max(peak, runtime.NumGoroutine()-base)
		mu.Unlock()
	}}
	d := New(lake, sc, idx, Config{ModelID: "m-new", BatchSize: 1, Budget: NewBudget(limit)})
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if peak > limit+1 {
		t.Fatalf("%d goroutines above the baseline during the scan, want at most %d", peak, limit+1)
	}
}

// TestLiveRewriteDuringScanWins is the lost-update regression at driver
// level: a live re-add dual-writes newer refs for a table after the scan
// fetched it, so the driver's stale ShadowAdd must be skipped and the live
// view must survive the flip.
func TestLiveRewriteDuringScanWins(t *testing.T) {
	lake, idx := seedLake(6)
	victim := lake.SnapshotIDs()[3]
	sc := &fakeScorer{}
	sc.hook = func(ts []*table.Table) {
		for _, tb := range ts {
			if tb.ID == victim {
				boosted := predsFor(tb)
				for i := range boosted {
					boosted[i].Confidence = 0.95
				}
				idx.AddPredictions(tb, boosted)
			}
		}
	}
	d := New(lake, sc, idx, Config{ModelID: "m-new", BatchSize: 2, Budget: NewBudget(1)})
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if p := d.Progress(); p.State != "done" || p.Skipped != 1 {
		t.Fatalf("progress = %+v, want done with 1 skipped (superseded)", p)
	}
	for _, ref := range idx.Current().Columns("price") {
		if ref.TableID == victim && ref.Confidence != 0.95 {
			t.Fatalf("live update lost: %s indexed at %v, want the live 0.95", victim, ref.Confidence)
		}
	}
}
