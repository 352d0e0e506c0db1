package discovery

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/sematype/pythagoras/internal/core"
	"github.com/sematype/pythagoras/internal/table"
)

func labeledPreds(t *table.Table, conf float64) []core.ColumnPrediction {
	preds := make([]core.ColumnPrediction, 0, len(t.Columns))
	for ci, c := range t.Columns {
		preds = append(preds, core.ColumnPrediction{
			ColIndex: ci, Header: c.Header, Kind: c.Kind,
			Type: c.SemanticType, Confidence: conf,
		})
	}
	return preds
}

// addLive indexes t through the serving path with its gold labels at
// confidence 1.
func addLive(s *SwapIndex, t *table.Table) {
	s.AddPredictions(t, labeledPreds(t, 1))
}

func TestSwapIndexDualWrite(t *testing.T) {
	s := NewSwapIndex(0)
	addLive(s, labeledTable("pre", "price"))

	if err := s.BeginShadow(); err != nil {
		t.Fatal(err)
	}
	if err := s.BeginShadow(); err == nil {
		t.Fatal("second BeginShadow must fail while one is active")
	}
	if !s.ShadowActive() {
		t.Fatal("ShadowActive = false during build")
	}

	// Live add mid-build reaches the current index immediately…
	addLive(s, labeledTable("live", "rating"))
	if got := s.Current().Stats().Tables; got != 2 {
		t.Fatalf("current tables mid-build = %d, want 2", got)
	}
	// …and survives the flip, even though re-score never saw it.
	if !s.CommitShadow() {
		t.Fatal("CommitShadow = false with active build")
	}
	st := s.Current().Stats()
	if st.Tables != 1 {
		t.Fatalf("post-flip tables = %d, want 1 (only the dual-written live add)", st.Tables)
	}
	if cols := s.Current().Columns("rating"); len(cols) != 1 || cols[0].TableID != "live" {
		t.Fatalf("live add lost in flip: %+v", cols)
	}
	// "pre" was never re-scored into the shadow → correctly absent.
	if cols := s.Current().Columns("price"); len(cols) != 0 {
		t.Fatalf("stale table leaked into shadow: %+v", cols)
	}
	if s.CommitShadow() {
		t.Fatal("CommitShadow must report false with no build")
	}
}

// TestSwapIndexTombstones: a live re-add supersedes the scan's copy — the
// table is carried into the shadow by the dual-write, and the driver's later
// ShadowAdd of the version it fetched before the re-add is dropped, not
// applied.
func TestSwapIndexTombstones(t *testing.T) {
	s := NewSwapIndex(0)
	readded := labeledTable("readded", "price")
	addLive(s, readded)

	if err := s.BeginShadow(); err != nil {
		t.Fatal(err)
	}
	addLive(s, readded)
	installed, err := s.ShadowAdd(readded, labeledPreds(readded, 0.9))
	if err != nil || installed {
		t.Fatalf("stale ShadowAdd after a live re-add must skip: installed=%v err=%v", installed, err)
	}
	s.CommitShadow()
	if got := s.Current().Stats().Tables; got != 1 {
		t.Fatalf("re-added table missing post-flip: %d tables", got)
	}
	if cols := s.Current().Columns("price"); len(cols) != 1 || cols[0].Confidence != 1 {
		t.Fatalf("stale scan copy replaced the live re-add: %+v", cols)
	}
}

// TestSwapIndexLiveRewriteNotLost is the lost-update regression: the
// re-score scan fetches a table, a live re-add then dual-writes newer refs
// into the shadow, and the driver's ShadowAdd of the stale fetch lands
// last. The acknowledged live update must survive the flip.
func TestSwapIndexLiveRewriteNotLost(t *testing.T) {
	s := NewSwapIndex(0)
	tb := labeledTable("hot", "price")
	s.AddPredictions(tb, labeledPreds(tb, 0.3))

	if err := s.BeginShadow(); err != nil {
		t.Fatal(err)
	}
	// Scan "fetched" tb with confidence 0.3 here. The live re-add lands
	// first with the newer 0.9 view…
	s.AddPredictions(tb, labeledPreds(tb, 0.9))
	// …then the driver's stale write arrives and must skip.
	installed, err := s.ShadowAdd(tb, labeledPreds(tb, 0.3))
	if err != nil || installed {
		t.Fatalf("stale ShadowAdd overwrote a live update: installed=%v err=%v", installed, err)
	}
	if !s.CommitShadow() {
		t.Fatal("CommitShadow = false")
	}
	cols := s.Current().Columns("price")
	if len(cols) != 1 || cols[0].Confidence != 0.9 {
		t.Fatalf("live update lost at the flip: %+v", cols)
	}
}

func TestSwapIndexAbort(t *testing.T) {
	s := NewSwapIndex(0)
	addLive(s, labeledTable("keep", "price"))
	before := s.Current()

	if err := s.BeginShadow(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ShadowAdd(labeledTable("new", "year"), labeledPreds(labeledTable("new", "year"), 1)); err != nil {
		t.Fatal(err)
	}
	s.AbortShadow()
	if s.Current() != before {
		t.Fatal("abort replaced the current index")
	}
	if s.ShadowActive() {
		t.Fatal("shadow still active after abort")
	}
	// Shadow ops after abort fail cleanly.
	if _, err := s.ShadowAdd(labeledTable("x", "a"), nil); err == nil {
		t.Fatal("ShadowAdd without active build must error")
	}
	// A new build can start after abort.
	if err := s.BeginShadow(); err != nil {
		t.Fatal(err)
	}
	s.AbortShadow()
}

// TestSwapIsolationHammer is the ISSUE's swap-isolation acceptance test:
// concurrent discovery queries pin Current() and must observe only the full
// old or the full new index, never a mix, while re-scores flip the pointer
// under them. Each generation g indexes the same table set with confidence
// tagged by g; a torn view would surface as one query result mixing
// confidences from two generations.
func TestSwapIsolationHammer(t *testing.T) {
	const tables = 8
	mkTable := func(i int) *table.Table {
		return labeledTable(fmt.Sprintf("t%02d", i), "price", "rating")
	}
	conf := func(g int) float64 { return 1 / float64(g) } // exact in float64 for g = 1,2,4…

	s := NewSwapIndex(0)
	for i := 0; i < tables; i++ {
		tb := mkTable(i)
		s.AddPredictions(tb, labeledPreds(tb, conf(1)))
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	// Flipper: build generation after generation and commit each.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for g := 2; g <= 32; g *= 2 {
			if err := s.BeginShadow(); err != nil {
				t.Errorf("BeginShadow(gen %d): %v", g, err)
				return
			}
			for i := 0; i < tables; i++ {
				tb := mkTable(i)
				if _, err := s.ShadowAdd(tb, labeledPreds(tb, conf(g))); err != nil {
					t.Errorf("ShadowAdd(gen %d): %v", g, err)
					return
				}
			}
			if !s.CommitShadow() {
				t.Errorf("CommitShadow(gen %d) = false", g)
				return
			}
		}
		stop.Store(true)
	}()
	// Readers: pin one snapshot, run several queries against it, and verify
	// every ref carries one single generation's confidence.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				ix := s.Current() // the pin — all queries below share it
				cols := ix.Columns("price")
				if len(cols) != tables {
					t.Errorf("snapshot saw %d price columns, want %d", len(cols), tables)
					return
				}
				want := cols[0].Confidence
				for _, c := range append(cols, ix.Columns("rating")...) {
					if c.Confidence != want {
						t.Errorf("torn snapshot: confidences %v and %v in one pinned view", want, c.Confidence)
						return
					}
				}
				if got := ix.Stats(); got.Tables != tables || got.Columns != 2*tables {
					t.Errorf("partial index visible: %+v", got)
					return
				}
				if dump := ix.CanonicalDump(); !bytes.Contains(dump, []byte("t00")) {
					t.Error("dump missing first table")
					return
				}
			}
		}()
	}
	wg.Wait()

	// After the last flip everything is at the final generation.
	for _, c := range s.Current().Columns("price") {
		if c.Confidence != conf(32) {
			t.Fatalf("final index at confidence %v, want %v", c.Confidence, conf(32))
		}
	}
}
