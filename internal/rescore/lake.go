// Package rescore re-types an already-indexed lake after a model upgrade
// (DESIGN.md §15): one in-memory scan over a frozen snapshot of the lake's
// table IDs, a bounded-concurrency driver that feeds table batches through
// the staged inference engine, and a snapshot-isolated index swap
// (discovery.SwapIndex) so discovery queries never observe a half-rescored
// lake. A crashed or cancelled run leaves the old index serving; the next
// run starts over from the lake.
package rescore

import (
	"sort"
	"sync"

	"github.com/sematype/pythagoras/internal/table"
)

// Lake is the serving layer's retained copy of every indexed table — the
// corpus a re-score walks. The discovery index alone cannot drive a
// re-score: it holds predictions, not the column data a model needs to
// predict again. It only grows: re-indexing a table replaces its copy, and
// nothing removes one. Safe for concurrent use.
type Lake struct {
	mu     sync.RWMutex
	tables map[string]*table.Table
}

// NewLake returns an empty lake store.
func NewLake() *Lake {
	return &Lake{tables: map[string]*table.Table{}}
}

// Put stores (or replaces) a table under its ID. Tables are treated as
// immutable once stored — the serving layer builds a fresh table.Table per
// index request, so no aliasing mutation exists.
func (l *Lake) Put(t *table.Table) {
	if t == nil || t.ID == "" {
		return
	}
	l.mu.Lock()
	l.tables[t.ID] = t
	l.mu.Unlock()
}

// Get returns the stored table, or nil if absent.
func (l *Lake) Get(id string) *table.Table {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.tables[id]
}

// Len reports how many tables the lake holds.
func (l *Lake) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.tables)
}

// SnapshotIDs returns the sorted IDs of every stored table — the frozen
// scan order a re-score walks. Sorting makes the batches independent of
// map iteration order and insertion history.
func (l *Lake) SnapshotIDs() []string {
	l.mu.RLock()
	ids := make([]string, 0, len(l.tables))
	for id := range l.tables {
		ids = append(ids, id)
	}
	l.mu.RUnlock()
	sort.Strings(ids)
	return ids
}
