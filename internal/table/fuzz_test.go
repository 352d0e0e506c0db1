package table

import (
	"strings"
	"testing"
)

// FuzzReadCSV asserts ReadCSV never panics and that any table it accepts
// passes structural validation after labels are filled.
func FuzzReadCSV(f *testing.F) {
	f.Add("a,b\n1,x\n2,y\n")
	f.Add("h\n\n")
	f.Add("x,y,z\n1,2,3\n")
	f.Add("a\n1e9\n-3.5\n")
	f.Add("q,w\n\"a,b\",2\n")
	f.Fuzz(func(t *testing.T, data string) {
		tb, err := ReadCSV("fuzz", "fuzz", strings.NewReader(data))
		if err != nil {
			return
		}
		for _, c := range tb.Columns {
			c.SemanticType = "t"
		}
		if err := tb.Validate(); err != nil {
			t.Fatalf("accepted table fails validation: %v", err)
		}
		// serialization must always work on accepted tables
		for _, c := range tb.Columns {
			_ = SerializeColumn(c, SerializeOptions{})
		}
	})
}

// FuzzCSVTable asserts the write→read round trip is stable for any table
// ReadCSV accepts: re-reading a written table preserves column count,
// column kinds, row count and every numeric cell's value.
func FuzzCSVTable(f *testing.F) {
	f.Add("a,b\n1,x\n2,y\n")
	f.Add("n\n1.25\n-3e4\n")
	f.Add("h\n\n")
	f.Add("p,q,r\n1,\"a,b\",3\nragged\n")
	f.Add("num\n1,234\n5,678\n")       // thousands separators
	f.Add("mixed\n 1 \nx\n")           // whitespace + text
	f.Add("\"he\"\"ad\"\nNaN\n+Inf\n") // quoted header, special floats
	f.Fuzz(func(t *testing.T, data string) {
		t1, err := ReadCSV("fuzz", "fuzz", strings.NewReader(data))
		if err != nil {
			return
		}
		var buf strings.Builder
		if err := WriteCSV(t1, &buf); err != nil {
			t.Fatalf("write accepted table: %v", err)
		}
		t2, err := ReadCSV("fuzz", "fuzz", strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("re-read written table: %v\ncsv:\n%s", err, buf.String())
		}
		if len(t2.Columns) != len(t1.Columns) {
			t.Fatalf("columns: %d → %d\ncsv:\n%s", len(t1.Columns), len(t2.Columns), buf.String())
		}
		if t2.NumRows() != t1.NumRows() {
			t.Fatalf("rows: %d → %d\ncsv:\n%s", t1.NumRows(), t2.NumRows(), buf.String())
		}
		for i := range t1.Columns {
			if t2.Columns[i].Kind != t1.Columns[i].Kind {
				t.Fatalf("col %d: kind %v → %v\ncsv:\n%s",
					i, t1.Columns[i].Kind, t2.Columns[i].Kind, buf.String())
			}
			for r, v := range t1.Columns[i].NumValues {
				if got := t2.Columns[i].NumValues[r]; got != v {
					t.Fatalf("col %d row %d: %v → %v\ncsv:\n%s", i, r, v, got, buf.String())
				}
			}
		}
	})
}
