// Package table defines the relational-table model shared by the corpus
// generators, the graph builder, and every classifier: tables with named,
// semantically-labeled columns of numeric or textual values, plus the
// column serialization formats of the paper (§3.1, §4.2).
package table

import (
	"fmt"
	"strconv"
)

// Kind distinguishes numerical from non-numerical columns — the distinction
// at the heart of the paper.
type Kind int

const (
	// KindText marks non-numerical columns (V_nn nodes).
	KindText Kind = iota
	// KindNumeric marks numerical columns (V_n + V_ncf nodes).
	KindNumeric
)

func (k Kind) String() string {
	if k == KindNumeric {
		return "numeric"
	}
	return "text"
}

// Column is one table column: header, values, gold semantic type, and kind.
type Column struct {
	// Header is the original column header (e.g. "AssPG"). Excluded from
	// serializations by default because gold labels derive from headers
	// (paper §4.2).
	Header string
	// SyntheticHeader is an abbreviated stand-in header used by the
	// Table 4 (lower) serialization experiment.
	SyntheticHeader string
	// SemanticType is the gold label, e.g.
	// "basketball.player.assists_per_game".
	SemanticType string
	Kind         Kind
	// TextValues holds the cell values of text columns.
	TextValues []string
	// NumValues holds the cell values of numeric columns.
	NumValues []float64
}

// Len returns the number of values in the column.
func (c *Column) Len() int {
	if c.Kind == KindNumeric {
		return len(c.NumValues)
	}
	return len(c.TextValues)
}

// ValueStrings renders up to max values as strings (all when max <= 0).
// Numeric values use a compact decimal form so serializations stay short.
func (c *Column) ValueStrings(max int) []string {
	n := c.Len()
	if max > 0 && n > max {
		n = max
	}
	out := make([]string, n)
	if c.Kind == KindNumeric {
		for i := 0; i < n; i++ {
			out[i] = FormatNumber(c.NumValues[i])
		}
	} else {
		copy(out, c.TextValues[:n])
	}
	return out
}

// FormatNumber renders a float the way cells appear in real CSVs: integers
// without a decimal point, others with up to 4 significant decimals.
func FormatNumber(v float64) string {
	var buf [24]byte
	return string(AppendNumber(buf[:0], v))
}

// AppendNumber appends FormatNumber(v) to dst and returns the extended
// slice; it allocates only to grow dst.
func AppendNumber(dst []byte, v float64) []byte {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return strconv.AppendInt(dst, int64(v), 10)
	}
	return strconv.AppendFloat(dst, v, 'g', 5, 64)
}

// Table is a named table with ordered columns.
type Table struct {
	// Name is the table name (e.g. "NBA Ply Stats") — the V_tn node.
	Name string
	// ID uniquely identifies the table within a corpus.
	ID      string
	Columns []*Column
}

// NumRows returns the row count (0 for a table with no columns).
func (t *Table) NumRows() int {
	if len(t.Columns) == 0 {
		return 0
	}
	return t.Columns[0].Len()
}

// Validate checks structural invariants: consistent row counts, labels
// present, kind/value agreement.
func (t *Table) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("table %q: empty name", t.ID)
	}
	rows := -1
	for i, c := range t.Columns {
		if c.SemanticType == "" {
			return fmt.Errorf("table %q col %d: missing semantic type", t.ID, i)
		}
		if c.Kind == KindNumeric && len(c.TextValues) > 0 {
			return fmt.Errorf("table %q col %d: numeric column holds text values", t.ID, i)
		}
		if c.Kind == KindText && len(c.NumValues) > 0 {
			return fmt.Errorf("table %q col %d: text column holds numeric values", t.ID, i)
		}
		if rows == -1 {
			rows = c.Len()
		} else if c.Len() != rows {
			return fmt.Errorf("table %q col %d: %d rows, want %d", t.ID, i, c.Len(), rows)
		}
	}
	return nil
}

// HeaderMode selects which header (if any) a serialization includes.
type HeaderMode int

const (
	// HeaderNone omits headers — the paper's main-experiment setting
	// (gold labels were derived from headers, §4.2).
	HeaderNone HeaderMode = iota
	// HeaderOriginal includes the original header (Table 4, "w/ original c_h").
	HeaderOriginal
	// HeaderSynthetic includes the abbreviated synthetic header
	// (Table 4, "w/ synthesized c_h").
	HeaderSynthetic
)

// SerializeOptions controls column serialization.
type SerializeOptions struct {
	Header HeaderMode
	// MaxValues caps the number of cell values included (0 = all). The
	// paper serializes all values; Doduo's 512-token budget truncates
	// downstream instead.
	MaxValues int
}

// SerializeColumn renders the paper's input sequence for one column:
//
//	[CLS] c_h v1 v2 ... vm [SEP]
//
// with c_h included only per opts.Header.
func SerializeColumn(c *Column, opts SerializeOptions) string {
	return string(AppendColumn(nil, c, opts))
}

// AppendColumn appends SerializeColumn(c, opts) to dst and returns the
// extended slice. Numeric cells render straight into dst, so it allocates
// only to grow dst.
func AppendColumn(dst []byte, c *Column, opts SerializeOptions) []byte {
	dst = append(dst, "[CLS]"...)
	switch opts.Header {
	case HeaderOriginal:
		if c.Header != "" {
			dst = append(append(dst, ' '), c.Header...)
		}
	case HeaderSynthetic:
		if c.SyntheticHeader != "" {
			dst = append(append(dst, ' '), c.SyntheticHeader...)
		}
	}
	n := c.Len()
	if opts.MaxValues > 0 && n > opts.MaxValues {
		n = opts.MaxValues
	}
	for i := 0; i < n; i++ {
		dst = append(dst, ' ')
		if c.Kind == KindNumeric {
			dst = AppendNumber(dst, c.NumValues[i])
		} else {
			dst = append(dst, c.TextValues[i]...)
		}
	}
	return append(dst, " [SEP]"...)
}

// SerializeTableName renders "[CLS] t_n [SEP]" for the table-name node.
func SerializeTableName(t *Table) string {
	return "[CLS] " + t.Name + " [SEP]"
}
