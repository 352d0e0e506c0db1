package table

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// WriteCSV writes the table as a standard CSV with a header row. Numeric
// cells are written exactly: ReadCSV reads back the same values.
func WriteCSV(t *Table, w io.Writer) error {
	cw := csv.NewWriter(w)
	// A record that is a single empty field would serialize as a blank line,
	// which CSV readers skip — the row (or the whole header) would vanish on
	// re-read. Force quotes so such records survive the round trip.
	writeRec := func(rec []string) error {
		if len(rec) == 1 && rec[0] == "" {
			cw.Flush()
			if err := cw.Error(); err != nil {
				return err
			}
			_, err := io.WriteString(w, "\"\"\n")
			return err
		}
		return cw.Write(rec)
	}
	headers := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		headers[i] = c.Header
	}
	if err := writeRec(headers); err != nil {
		return err
	}
	rows := t.NumRows()
	rec := make([]string, len(t.Columns))
	for r := 0; r < rows; r++ {
		for i, c := range t.Columns {
			if c.Kind == KindNumeric {
				rec[i] = csvNumber(c.NumValues[r])
			} else {
				rec[i] = c.TextValues[r]
			}
		}
		if err := writeRec(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// csvNumber renders a numeric cell so that ReadCSV parses back the same
// float64: integers in FormatNumber's plain digits, anything else in the
// shortest exact form. FormatNumber itself keeps 5 significant digits of a
// non-integer, which suits the encoder's node text but not a file.
func csvNumber(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return FormatNumber(v)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ReadCSV parses a CSV (first row = headers) into a Table, inferring the
// kind of each column: a column is numeric when every non-empty cell parses
// as a float and at least one cell is non-empty.
func ReadCSV(name, id string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("table: read csv %q: %w", id, err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("table: csv %q is empty", id)
	}
	headers := records[0]
	t := &Table{Name: name, ID: id}
	for j, h := range headers {
		col := &Column{Header: h}
		numeric := true
		nonEmpty := 0
		nonFinite := -1 // the first row whose cell parses to NaN or ±Inf
		var nums []float64
		var texts []string
		for r, rec := range records[1:] {
			cell := ""
			if j < len(rec) {
				cell = strings.TrimSpace(rec[j])
			}
			texts = append(texts, cell)
			if cell == "" {
				nums = append(nums, 0)
				continue
			}
			nonEmpty++
			v, perr := strconv.ParseFloat(strings.ReplaceAll(cell, ",", ""), 64)
			if perr != nil {
				numeric = false
			} else {
				nums = append(nums, v)
				if nonFinite < 0 && (math.IsNaN(v) || math.IsInf(v, 0)) {
					nonFinite = r
				}
			}
		}
		if numeric && nonEmpty > 0 && nonFinite >= 0 {
			return nil, fmt.Errorf("table: csv %q row %d column %d (%q): %q is not a finite number",
				id, nonFinite+1, j, h, texts[nonFinite])
		}
		if numeric && nonEmpty > 0 {
			col.Kind = KindNumeric
			col.NumValues = nums
		} else {
			col.Kind = KindText
			col.TextValues = texts
		}
		t.Columns = append(t.Columns, col)
	}
	return t, nil
}

// labelFile is the JSON sidecar mapping column headers to semantic types
// for a persisted corpus.
type labelFile struct {
	TableName string            `json:"table_name"`
	Types     map[string]string `json:"types"`     // header -> semantic type
	Synthetic map[string]string `json:"synthetic"` // header -> synthetic header
}

// SaveDir persists tables as <dir>/<id>.csv plus <dir>/<id>.labels.json.
func SaveDir(dir string, tables []*Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, t := range tables {
		f, err := os.Create(filepath.Join(dir, t.ID+".csv"))
		if err != nil {
			return err
		}
		if err := WriteCSV(t, f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		lf := labelFile{TableName: t.Name, Types: map[string]string{}, Synthetic: map[string]string{}}
		for _, c := range t.Columns {
			lf.Types[c.Header] = c.SemanticType
			if c.SyntheticHeader != "" {
				lf.Synthetic[c.Header] = c.SyntheticHeader
			}
		}
		data, err := json.MarshalIndent(lf, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, t.ID+".labels.json"), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// LoadDir loads every <id>.csv (+ optional labels sidecar) from dir, sorted
// by id for determinism.
func LoadDir(dir string) ([]*Table, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".csv") {
			ids = append(ids, strings.TrimSuffix(e.Name(), ".csv"))
		}
	}
	sort.Strings(ids)
	var tables []*Table
	for _, id := range ids {
		f, err := os.Open(filepath.Join(dir, id+".csv"))
		if err != nil {
			return nil, err
		}
		name := id
		var lf labelFile
		if data, lerr := os.ReadFile(filepath.Join(dir, id+".labels.json")); lerr == nil {
			if jerr := json.Unmarshal(data, &lf); jerr != nil {
				f.Close()
				return nil, fmt.Errorf("table: labels for %q: %w", id, jerr)
			}
			if lf.TableName != "" {
				name = lf.TableName
			}
		}
		t, err := ReadCSV(name, id, f)
		f.Close()
		if err != nil {
			return nil, err
		}
		for _, c := range t.Columns {
			if st, ok := lf.Types[c.Header]; ok {
				c.SemanticType = st
			}
			if sh, ok := lf.Synthetic[c.Header]; ok {
				c.SyntheticHeader = sh
			}
		}
		tables = append(tables, t)
	}
	return tables, nil
}
