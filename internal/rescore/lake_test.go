package rescore

import (
	"testing"

	"github.com/sematype/pythagoras/internal/table"
)

func TestLakeBasics(t *testing.T) {
	l := NewLake()
	l.Put(nil)                      // ignored
	l.Put(&table.Table{})           // no ID → ignored
	l.Put(&table.Table{ID: "zeta"}) // unsorted insertion order on purpose
	l.Put(&table.Table{ID: "alpha"})
	l.Put(&table.Table{ID: "mid"})
	if l.Len() != 3 {
		t.Fatalf("Len = %d, want 3", l.Len())
	}
	if l.Get("mid") == nil || l.Get("ghost") != nil {
		t.Fatal("Get misbehaves")
	}

	ids := l.SnapshotIDs()
	if len(ids) != 3 || ids[0] != "alpha" || ids[1] != "mid" || ids[2] != "zeta" {
		t.Fatalf("SnapshotIDs = %v, want sorted [alpha mid zeta]", ids)
	}

	// Put replaces under the same ID.
	l.Put(&table.Table{ID: "mid", Name: "v2"})
	if l.Len() != 3 || l.Get("mid").Name != "v2" {
		t.Fatal("Put did not replace")
	}
}
