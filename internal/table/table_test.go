package table

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func sampleTable() *Table {
	return &Table{
		Name: "NBA Ply Stats",
		ID:   "t1",
		Columns: []*Column{
			{
				Header: "Ply", SemanticType: "basketball.player.name", Kind: KindText,
				TextValues: []string{"Lebron James", "Myles Turner"},
			},
			{
				Header: "AssPG", SyntheticHeader: "APG",
				SemanticType: "basketball.player.assists_per_game", Kind: KindNumeric,
				NumValues: []float64{7.5, 2.1},
			},
			{
				Header: "PPG", SemanticType: "basketball.player.points_per_game", Kind: KindNumeric,
				NumValues: []float64{28, 15},
			},
		},
	}
}

func TestKindString(t *testing.T) {
	if KindText.String() != "text" || KindNumeric.String() != "numeric" {
		t.Fatal("Kind.String wrong")
	}
}

func TestColumnLenAndValueStrings(t *testing.T) {
	tb := sampleTable()
	if tb.Columns[0].Len() != 2 || tb.Columns[1].Len() != 2 {
		t.Fatal("Len wrong")
	}
	vs := tb.Columns[1].ValueStrings(0)
	if !reflect.DeepEqual(vs, []string{"7.5", "2.1"}) {
		t.Fatalf("ValueStrings = %v", vs)
	}
	if got := tb.Columns[0].ValueStrings(1); len(got) != 1 || got[0] != "Lebron James" {
		t.Fatalf("capped ValueStrings = %v", got)
	}
}

func TestFormatNumber(t *testing.T) {
	cases := map[float64]string{
		28:      "28",
		7.5:     "7.5",
		-3:      "-3",
		0:       "0",
		0.33333: "0.33333",
	}
	for in, want := range cases {
		if got := FormatNumber(in); got != want {
			t.Errorf("FormatNumber(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestNumRows(t *testing.T) {
	tb := sampleTable()
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
	empty := &Table{Name: "e", ID: "e"}
	if empty.NumRows() != 0 {
		t.Fatal("empty table NumRows != 0")
	}
}

func TestValidateOK(t *testing.T) {
	if err := sampleTable().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesProblems(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Table)
	}{
		{"empty name", func(tb *Table) { tb.Name = "" }},
		{"missing type", func(tb *Table) { tb.Columns[0].SemanticType = "" }},
		{"ragged rows", func(tb *Table) { tb.Columns[1].NumValues = tb.Columns[1].NumValues[:1] }},
		{"kind mismatch numeric", func(tb *Table) { tb.Columns[1].TextValues = []string{"x", "y"} }},
		{"kind mismatch text", func(tb *Table) { tb.Columns[0].NumValues = []float64{1, 2} }},
	}
	for _, c := range cases {
		tb := sampleTable()
		c.mutate(tb)
		if err := tb.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid table", c.name)
		}
	}
}

func TestSerializeColumnNoHeader(t *testing.T) {
	tb := sampleTable()
	got := SerializeColumn(tb.Columns[1], SerializeOptions{Header: HeaderNone})
	want := "[CLS] 7.5 2.1 [SEP]"
	if got != want {
		t.Fatalf("SerializeColumn = %q, want %q", got, want)
	}
}

func TestSerializeColumnOriginalHeader(t *testing.T) {
	tb := sampleTable()
	got := SerializeColumn(tb.Columns[1], SerializeOptions{Header: HeaderOriginal})
	if !strings.HasPrefix(got, "[CLS] AssPG ") {
		t.Fatalf("SerializeColumn = %q", got)
	}
}

func TestSerializeColumnSyntheticHeader(t *testing.T) {
	tb := sampleTable()
	got := SerializeColumn(tb.Columns[1], SerializeOptions{Header: HeaderSynthetic})
	if !strings.HasPrefix(got, "[CLS] APG ") {
		t.Fatalf("SerializeColumn = %q", got)
	}
	// Column without a synthetic header degrades to no header.
	got = SerializeColumn(tb.Columns[2], SerializeOptions{Header: HeaderSynthetic})
	if !strings.HasPrefix(got, "[CLS] 28") {
		t.Fatalf("SerializeColumn = %q", got)
	}
}

func TestSerializeTableName(t *testing.T) {
	got := SerializeTableName(sampleTable())
	if got != "[CLS] NBA Ply Stats [SEP]" {
		t.Fatalf("SerializeTableName = %q", got)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tb := sampleTable()
	var buf bytes.Buffer
	if err := WriteCSV(tb, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(tb.Name, tb.ID, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Columns) != 3 {
		t.Fatalf("round trip cols = %d", len(got.Columns))
	}
	if got.Columns[0].Kind != KindText || got.Columns[1].Kind != KindNumeric {
		t.Fatal("kind inference failed on round trip")
	}
	if !reflect.DeepEqual(got.Columns[1].NumValues, []float64{7.5, 2.1}) {
		t.Fatalf("values = %v", got.Columns[1].NumValues)
	}
}

func TestReadCSVKindInference(t *testing.T) {
	csvData := "a,b,c\n1,x,\n2,y,3.5\n"
	tb, err := ReadCSV("t", "t", strings.NewReader(csvData))
	if err != nil {
		t.Fatal(err)
	}
	if tb.Columns[0].Kind != KindNumeric {
		t.Fatal("pure ints must infer numeric")
	}
	if tb.Columns[1].Kind != KindText {
		t.Fatal("letters must infer text")
	}
	if tb.Columns[2].Kind != KindNumeric {
		t.Fatal("numeric with empties must infer numeric")
	}
}

func TestReadCSVEmptyColumnIsText(t *testing.T) {
	tb, err := ReadCSV("t", "t", strings.NewReader("a\n\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tb.Columns[0].Kind != KindText {
		t.Fatal("all-empty column should default to text")
	}
}

func TestReadCSVEmptyFile(t *testing.T) {
	if _, err := ReadCSV("t", "t", strings.NewReader("")); err == nil {
		t.Fatal("expected error on empty csv")
	}
}

func TestSaveLoadDir(t *testing.T) {
	dir := t.TempDir()
	tb := sampleTable()
	if err := SaveDir(dir, []*Table{tb}); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 {
		t.Fatalf("loaded %d tables", len(loaded))
	}
	got := loaded[0]
	if got.Name != tb.Name || got.ID != tb.ID {
		t.Fatalf("identity lost: %q %q", got.Name, got.ID)
	}
	if got.Columns[1].SemanticType != "basketball.player.assists_per_game" {
		t.Fatalf("labels lost: %q", got.Columns[1].SemanticType)
	}
	if got.Columns[1].SyntheticHeader != "APG" {
		t.Fatalf("synthetic header lost: %q", got.Columns[1].SyntheticHeader)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteCSVPreservesEmptyRecords: a single-column table whose header or
// a row is the empty string must survive a write→read round trip. A naive
// writer emits a blank line for such records, and CSV readers skip blank
// lines — the fuzzer found exactly this row-loss (see the committed
// FuzzCSVTable corpus); the writer now quotes lone empty fields.
func TestWriteCSVPreservesEmptyRecords(t *testing.T) {
	tb := &Table{Name: "t", ID: "t", Columns: []*Column{
		{Header: "", Kind: KindText, TextValues: []string{"", "x", ""}},
	}}
	var buf strings.Builder
	if err := WriteCSV(tb, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV("t", "t", strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("re-read: %v\ncsv:\n%s", err, buf.String())
	}
	if len(got.Columns) != 1 || got.Columns[0].Header != "" {
		t.Fatalf("header lost: %+v", got.Columns)
	}
	if got.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3\ncsv:\n%s", got.NumRows(), buf.String())
	}
	if got.Columns[0].TextValues[1] != "x" {
		t.Fatalf("values reordered: %v", got.Columns[0].TextValues)
	}
}

func TestLoadDirMissingLabelsStillLoads(t *testing.T) {
	dir := t.TempDir()
	tb := sampleTable()
	if err := SaveDir(dir, []*Table{tb}); err != nil {
		t.Fatal(err)
	}
	// remove the sidecar
	if err := removeFile(filepath.Join(dir, "t1.labels.json")); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded[0].Columns[0].SemanticType != "" {
		t.Fatal("types should be empty without sidecar")
	}
}

func removeFile(path string) error { return os.Remove(path) }

func TestReadCSVRejectsNonFiniteNumbers(t *testing.T) {
	for _, cell := range []string{"NaN", "Inf", "-Infinity", "+inf"} {
		csv := "team,goals\nA,3\nB," + cell + "\nC,4\n"
		_, err := ReadCSV("t", "t1", strings.NewReader(csv))
		if err == nil || !strings.Contains(err.Error(), "row 2") || !strings.Contains(err.Error(), `"goals"`) {
			t.Fatalf("cell %q: err = %v, want one naming row 2 and column \"goals\"", cell, err)
		}
	}
	// A column with a cell that is no number is text; its NaN cell is text.
	tb, err := ReadCSV("t", "t1", strings.NewReader("x\nNaN\nabc\n"))
	if err != nil || tb.Columns[0].Kind != KindText {
		t.Fatalf("text column: err %v, table %+v", err, tb)
	}
	// Finite extremes stay numeric.
	tb, err = ReadCSV("t", "t1", strings.NewReader("x\n-1e308\n1e308\n5e-324\n"))
	if err != nil || tb.Columns[0].Kind != KindNumeric {
		t.Fatalf("finite extremes: err %v, table %+v", err, tb)
	}
}
