package table_test

import (
	"testing"

	"github.com/sematype/pythagoras/internal/data"
	"github.com/sematype/pythagoras/internal/table"
)

// TestSaveLoadDirKeepsGeneratedNumbers: a generated GitTables corpus written
// with SaveDir and read back with LoadDir holds the same numbers, cell for
// cell. `datagen` writes corpora this way and `train -data` reads them, so
// a rounded cell would change the features the model trains on.
func TestSaveLoadDirKeepsGeneratedNumbers(t *testing.T) {
	gc := data.ReducedGitConfig()
	gc.NumTables = 60
	c := data.GenerateGitTables(gc)
	dir := t.TempDir()
	if err := table.SaveDir(dir, c.Tables); err != nil {
		t.Fatal(err)
	}
	loaded, err := table.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[string]*table.Table, len(loaded))
	for _, tb := range loaded {
		byID[tb.ID] = tb
	}
	cells, changed := 0, 0
	for _, want := range c.Tables {
		got := byID[want.ID]
		if got == nil || len(got.Columns) != len(want.Columns) {
			t.Fatalf("table %s did not come back whole", want.ID)
		}
		for j, wc := range want.Columns {
			if got.Columns[j].Kind != wc.Kind {
				t.Fatalf("%s col %d: kind %v → %v", want.ID, j, wc.Kind, got.Columns[j].Kind)
			}
			for r, v := range wc.NumValues {
				cells++
				if g := got.Columns[j].NumValues[r]; g != v {
					if changed == 0 {
						t.Errorf("%s col %d row %d: %v → %v", want.ID, j, r, v, g)
					}
					changed++
				}
			}
		}
	}
	if changed > 0 {
		t.Fatalf("%d of %d numeric cells changed in the round trip", changed, cells)
	}
	if cells == 0 {
		t.Fatal("the corpus has no numeric cells")
	}
}
