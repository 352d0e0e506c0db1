// Snapshot-isolated index swapping (DESIGN.md §15).
//
// A lake re-score after a model upgrade must not be observable in halves:
// a discovery query that sees table A typed by the new model and table B
// still typed by the old one can return join/union candidates that neither
// model's view of the lake supports. SwapIndex gives the serving layer the
// same isolation discipline PR 8's model lifecycle uses for engines — the
// queryable index lives behind an atomic pointer, a re-score builds a
// private shadow TypeIndex off to the side, and completion flips the
// pointer in one atomic store. Queries pin whichever index the pointer
// held when they started; they never see the shadow mid-build.
//
// A live add during a shadow build dual-writes: it lands in the current
// index (queries must see it now) and in the shadow (the flip must not lose
// it). Every dual-write also marks its table ID as superseded for the rest
// of the build: the live add may have landed after the re-score's scan
// fetched the table, so whatever the scan eventually writes for that ID may
// be stale. A superseded ID makes ShadowAdd a no-op — an acknowledged live
// re-add cannot be overwritten by the older version the scan fetched
// before it landed.
package discovery

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/sematype/pythagoras/internal/core"
	"github.com/sematype/pythagoras/internal/table"
)

// SwapIndex is a TypeIndex holder with snapshot-isolated replacement.
// Queries read the current index via Current (lock-free pointer load);
// mutations go through the SwapIndex so they reach both the current index
// and, while a shadow build is active, the shadow. It is safe for
// concurrent use.
type SwapIndex struct {
	cur           atomic.Pointer[TypeIndex]
	minConfidence float64

	// mu serializes mutations (so current and shadow always apply them in
	// the same order) and guards the shadow build state. Queries never take
	// it — Current is a plain atomic load.
	mu     sync.Mutex
	shadow *TypeIndex
	// superseded holds the IDs every live dual-write touched during the
	// active build. The shadow already carries their newest state, so the
	// re-score driver's writes for them — computed from a fetch that may
	// predate the live add — are dropped, not applied.
	superseded map[string]struct{}
}

// NewSwapIndex returns a SwapIndex serving a fresh empty TypeIndex with the
// given insert-time confidence threshold.
func NewSwapIndex(minConfidence float64) *SwapIndex {
	s := &SwapIndex{minConfidence: minConfidence}
	s.cur.Store(NewTypeIndex(minConfidence))
	return s
}

// Current returns the index queries should read. Callers that issue several
// related queries (a join listing plus a union ranking, say) should pin one
// Current() result and run them all against it — that is the snapshot.
func (s *SwapIndex) Current() *TypeIndex { return s.cur.Load() }

// AddPredictions indexes predictions for t in the current index and, when a
// shadow build is active, in the shadow — a table indexed mid-rescore
// survives the flip. The ID is marked superseded: these refs are newer than
// anything the re-score's scan can produce for it.
func (s *SwapIndex) AddPredictions(t *table.Table, preds []core.ColumnPrediction) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.cur.Load().AddPredictions(t, preds)
	if s.shadow != nil {
		s.shadow.AddPredictions(t, preds)
		s.superseded[t.ID] = struct{}{}
	}
	return n
}

// BeginShadow starts a shadow build: a fresh empty TypeIndex that re-score
// writes (ShadowAdd) and live dual-writes fill until CommitShadow flips it
// in or AbortShadow discards it. Only one build may be active at a time.
func (s *SwapIndex) BeginShadow() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shadow != nil {
		return fmt.Errorf("discovery: a shadow build is already active")
	}
	s.shadow = NewTypeIndex(s.minConfidence)
	s.superseded = map[string]struct{}{}
	return nil
}

// ShadowActive reports whether a shadow build is in progress.
func (s *SwapIndex) ShadowActive() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shadow != nil
}

// ShadowAdd indexes re-scored predictions for t into the shadow only and
// reports whether it installed them. false with a nil error means a live
// dual-write superseded the scan's copy of the table (re-added with newer
// data after the scan fetched it) and the write was deliberately skipped —
// the shadow already holds the authoritative state.
func (s *SwapIndex) ShadowAdd(t *table.Table, preds []core.ColumnPrediction) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shadow == nil {
		return false, fmt.Errorf("discovery: no shadow build active")
	}
	if _, newer := s.superseded[t.ID]; newer {
		return false, nil
	}
	s.shadow.AddPredictions(t, preds)
	return true, nil
}

// CommitShadow atomically publishes the shadow as the current index — the
// one-instruction flip that makes snapshot isolation: every query started
// before the flip finishes on the old index, every query started after sees
// only the new one, and no query ever sees a mix. Returns false when no
// build is active.
func (s *SwapIndex) CommitShadow() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shadow == nil {
		return false
	}
	s.cur.Store(s.shadow)
	s.shadow = nil
	s.superseded = nil
	return true
}

// AbortShadow discards an active shadow build, leaving the current index
// untouched. No-op when none is active.
func (s *SwapIndex) AbortShadow() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shadow = nil
	s.superseded = nil
}
