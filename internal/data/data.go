// Package data provides the evaluation corpora of the paper: faithful
// synthetic equivalents of SportsTables [17] and GitTables Numeric [12]
// (see DESIGN.md §2 for the substitution argument), plus corpus-level
// utilities (type vocabularies, Table 1 statistics, minimum-support
// filtering).
package data

import (
	"fmt"
	"sort"

	"github.com/sematype/pythagoras/internal/table"
)

// Corpus is a set of semantically annotated tables with a fixed type
// vocabulary.
type Corpus struct {
	Name   string
	Tables []*table.Table
	// Types is the sorted list of semantic types present.
	Types []string
	// LabelIndex maps a semantic type to its class index in Types.
	LabelIndex map[string]int
}

// BuildVocabulary (re)derives Types and LabelIndex from the tables.
func (c *Corpus) BuildVocabulary() {
	set := map[string]struct{}{}
	for _, t := range c.Tables {
		for _, col := range t.Columns {
			if col.SemanticType != "" {
				set[col.SemanticType] = struct{}{}
			}
		}
	}
	c.Types = make([]string, 0, len(set))
	for st := range set {
		c.Types = append(c.Types, st)
	}
	sort.Strings(c.Types)
	c.LabelIndex = make(map[string]int, len(c.Types))
	for i, st := range c.Types {
		c.LabelIndex[st] = i
	}
}

// Stats holds the Table 1 numbers for a corpus.
type Stats struct {
	NumTables    int
	AvgTextCols  float64
	AvgNumCols   float64
	NumTypes     int
	NumNumTypes  int // types that appear on numerical columns
	NumTextTypes int
	TotalColumns int
	NumericShare float64 // fraction of all columns that are numeric
}

// ComputeStats derives the Table 1 statistics.
func (c *Corpus) ComputeStats() Stats {
	s := Stats{NumTables: len(c.Tables), NumTypes: len(c.Types)}
	numTypes := map[string]struct{}{}
	textTypes := map[string]struct{}{}
	var textCols, numCols int
	for _, t := range c.Tables {
		for _, col := range t.Columns {
			if col.Kind == table.KindNumeric {
				numCols++
				numTypes[col.SemanticType] = struct{}{}
			} else {
				textCols++
				textTypes[col.SemanticType] = struct{}{}
			}
		}
	}
	s.TotalColumns = textCols + numCols
	s.NumNumTypes = len(numTypes)
	s.NumTextTypes = len(textTypes)
	if s.NumTables > 0 {
		s.AvgTextCols = float64(textCols) / float64(s.NumTables)
		s.AvgNumCols = float64(numCols) / float64(s.NumTables)
	}
	if s.TotalColumns > 0 {
		s.NumericShare = float64(numCols) / float64(s.TotalColumns)
	}
	return s
}

// String renders the stats as one Table 1 row.
func (s Stats) String() string {
	return fmt.Sprintf("#Tables=%d  Non-Num.Cols/Table=%.2f  Num.Cols/Table=%.2f  #sem.Types=%d",
		s.NumTables, s.AvgTextCols, s.AvgNumCols, s.NumTypes)
}

// FilterMinSupport removes columns whose semantic type occurs fewer than
// min times in the whole corpus (the GitTables Numeric construction rule),
// then rebuilds the vocabulary. Tables left without columns are dropped.
func (c *Corpus) FilterMinSupport(min int) {
	counts := map[string]int{}
	for _, t := range c.Tables {
		for _, col := range t.Columns {
			counts[col.SemanticType]++
		}
	}
	var kept []*table.Table
	for _, t := range c.Tables {
		var cols []*table.Column
		for _, col := range t.Columns {
			if counts[col.SemanticType] >= min {
				cols = append(cols, col)
			}
		}
		if len(cols) > 0 {
			t.Columns = cols
			kept = append(kept, t)
		}
	}
	c.Tables = kept
	c.BuildVocabulary()
}

// Validate checks every table and the vocabulary coverage.
func (c *Corpus) Validate() error {
	if len(c.Tables) == 0 {
		return fmt.Errorf("data: corpus %q has no tables", c.Name)
	}
	ids := map[string]struct{}{}
	for _, t := range c.Tables {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("data: corpus %q: %w", c.Name, err)
		}
		if _, dup := ids[t.ID]; dup {
			return fmt.Errorf("data: corpus %q: duplicate table id %q", c.Name, t.ID)
		}
		ids[t.ID] = struct{}{}
		for _, col := range t.Columns {
			if _, ok := c.LabelIndex[col.SemanticType]; !ok {
				return fmt.Errorf("data: corpus %q: type %q missing from vocabulary", c.Name, col.SemanticType)
			}
		}
	}
	return nil
}
