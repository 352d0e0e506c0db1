package core

import (
	"math"
	"strconv"
	"testing"

	"github.com/sematype/pythagoras/internal/colfeat"
	"github.com/sematype/pythagoras/internal/data"
	"github.com/sematype/pythagoras/internal/features"
	"github.com/sematype/pythagoras/internal/graph"
	"github.com/sematype/pythagoras/internal/lm"
	"github.com/sematype/pythagoras/internal/table"
)

// refValueStrings renders a column's cells one string per cell, the way
// the prepare stage did before it rendered them into reused buffers.
func refValueStrings(c *table.Column) []string {
	if c.Kind != table.KindNumeric {
		return append([]string(nil), c.TextValues...)
	}
	out := make([]string, len(c.NumValues))
	for i, v := range c.NumValues {
		if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
			out[i] = strconv.FormatInt(int64(v), 10)
		} else {
			out[i] = strconv.FormatFloat(v, 'g', 5, 64)
		}
	}
	return out
}

// refNodeText is the per-cell serialization of a column node's text.
func refNodeText(c *table.Column, opts table.SerializeOptions) string {
	s := "[CLS]"
	switch {
	case opts.Header == table.HeaderOriginal && c.Header != "":
		s += " " + c.Header
	case opts.Header == table.HeaderSynthetic && c.SyntheticHeader != "":
		s += " " + c.SyntheticHeader
	}
	vals := refValueStrings(c)
	if opts.MaxValues > 0 && len(vals) > opts.MaxValues {
		vals = vals[:opts.MaxValues]
	}
	for _, v := range vals {
		s += " " + v
	}
	return s + " [SEP]"
}

// TestPrepareMatchesPerCellPath holds the prepare stage to the path it
// replaced, on every table of a SportsTables and a GitTables corpus: node
// texts equal the per-cell serialization, V_ncf rows equal
// features.ExtractNormalized of their column, and every node's initial
// state — CLS vector, character profile and mean token embedding — equals
// the one built from per-cell strings and per-cell Tokenize, bit for bit.
func TestPrepareMatchesPerCellPath(t *testing.T) {
	sc := data.ReducedSportsConfig()
	sc.NumTables = 60
	gc := data.ReducedGitConfig()
	gc.NumTables = 60
	enc := lm.NewEncoder(lm.Config{Dim: 16, Layers: 1, Heads: 2, FFNDim: 32, MaxLen: 128, Buckets: 1 << 12, Seed: 5})
	for _, c := range []*data.Corpus{data.GenerateSportsTables(sc), data.GenerateGitTables(gc)} {
		for _, opts := range []table.SerializeOptions{{}, {Header: table.HeaderOriginal, MaxValues: 5}} {
			cfg := DefaultConfig(enc)
			cfg.Graph.Serialization = opts
			m := newModel(cfg, c.Types)
			for _, tb := range c.Tables {
				requirePerCellPrepare(t, m, tb, opts)
			}
		}
	}
}

func requirePerCellPrepare(t *testing.T, m *Model, tb *table.Table, opts table.SerializeOptions) {
	t.Helper()
	p := m.Prepare(tb)
	g := p.Graph
	enc := m.enc
	dim := enc.Dim()
	ncf := 0
	for i, nt := range g.Types {
		ci := g.Meta[i].ColIndex
		if nt == graph.NodeNumericFeatures {
			want := features.ExtractNormalized(tb.Columns[ci].NumValues)
			for j, v := range p.FeatRows.Row(ncf) {
				if math.Float64bits(v) != math.Float64bits(want[j]) || math.Float64bits(g.Feats[i][j]) != math.Float64bits(want[j]) {
					t.Fatalf("%s col %d: feature %d = %v (graph %v), want %v", tb.ID, ci, j, v, g.Feats[i][j], want[j])
				}
			}
			ncf++
			continue
		}
		var vals []string
		wantText := "[CLS] " + tb.Name + " [SEP]"
		if ci >= 0 {
			vals = refValueStrings(tb.Columns[ci])
			wantText = refNodeText(tb.Columns[ci], opts)
		} else {
			vals = []string{tb.Name}
		}
		if g.Texts[i] != wantText {
			t.Fatalf("%s node %d: text %q, want %q", tb.ID, i, g.Texts[i], wantText)
		}
		want := make([]float64, m.stateDim())
		for j, x := range enc.Encode(wantText) {
			want[j] = float64(x)
		}
		copy(want[dim:], colfeat.CharProfile(vals))
		mean := want[dim+colfeat.CharProfileDim:]
		count := 0
		for _, v := range vals {
			for _, tok := range enc.Tokenize(v) {
				for j, x := range enc.TokenEmbedding(tok) {
					mean[j] += float64(x)
				}
				count++
			}
		}
		if count > 0 {
			inv := 1 / float64(count)
			for j := range mean {
				mean[j] *= inv
			}
		}
		for j, v := range p.LMStates.Row(i) {
			if math.Float64bits(v) != math.Float64bits(want[j]) {
				t.Fatalf("%s node %d: state %d = %v, want %v", tb.ID, i, j, v, want[j])
			}
		}
	}
	if ncf != p.FeatRows.Rows || ncf != len(p.NCFIdx) {
		t.Fatalf("%s: %d V_ncf nodes, %d feature rows, %d indices", tb.ID, ncf, p.FeatRows.Rows, len(p.NCFIdx))
	}
}

// raceEnabled is set under the race detector (race_test.go), whose
// sync.Pool drops a random quarter of its Puts, so pooled scratch is
// allocated afresh and allocation counts mean nothing.
var raceEnabled bool

// TestEncodeAllocatesPerColumnNotPerCell bounds the prepare stage's
// allocations with a warm encoder: a fixed few per table and per node plus
// one per numeric column, whatever the row count.
func TestEncodeAllocatesPerColumnNotPerCell(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	c := data.GenerateSportsTables(data.SportsConfig{NumTables: 4, Seed: 3, MinRows: 40, MaxRows: 40, Domains: 2})
	enc := lm.NewEncoder(lm.Config{Dim: 16, Layers: 1, Heads: 2, FFNDim: 32, MaxLen: 512, Buckets: 1 << 12, Seed: 5})
	m := newModel(DefaultConfig(enc), c.Types)
	tb := c.Tables[0]
	g := m.BuildGraph(tb)
	m.Encode(tb, g) // warm the encoder's caches
	numeric := 0
	for _, col := range tb.Columns {
		if col.Kind == table.KindNumeric {
			numeric++
		}
	}
	encodeAllocs := testing.AllocsPerRun(20, func() { m.Encode(tb, g) })
	buildAllocs := testing.AllocsPerRun(20, func() { m.BuildGraph(tb) })
	// Encode: the Prepared, its two matrices and NCFIdx, plus one string
	// per numeric column. BuildGraph: the graph's arrays and edge lists,
	// the text buffer's growth, one text per node and one feature array.
	if limit := float64(8 + numeric); encodeAllocs > limit {
		t.Errorf("Encode: %v allocations for %d rows × %d columns, want at most %v",
			encodeAllocs, tb.NumRows(), len(tb.Columns), limit)
	}
	if limit := float64(30 + len(tb.Columns)); buildAllocs > limit {
		t.Errorf("BuildGraph: %v allocations for %d rows × %d columns, want at most %v",
			buildAllocs, tb.NumRows(), len(tb.Columns), limit)
	}
}
