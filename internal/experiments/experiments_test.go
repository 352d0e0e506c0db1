package experiments

import (
	"bytes"
	"strings"
	"testing"

	"github.com/sematype/pythagoras/internal/data"
	"github.com/sematype/pythagoras/internal/eval"
	"github.com/sematype/pythagoras/internal/lm"
)

// smokeScale is deliberately minuscule: it verifies plumbing, not scores.
func smokeScale() Scale {
	s := QuickScale()
	s.Sports = data.SportsConfig{NumTables: 40, Seed: 17, MinRows: 6, MaxRows: 9, WeakNameProb: 0.1, Domains: 3}
	s.Git = data.GitConfig{NumTables: 50, Seed: 23, MinRows: 6, MaxRows: 9, NameHintProb: 0.55, MinSupport: 2}
	s.Encoder = lm.Config{Dim: 32, Layers: 1, Heads: 2, FFNDim: 64, MaxLen: 256, Buckets: 1 << 12, Seed: 1}
	s.Pythagoras.Epochs = 8
	s.Pythagoras.Patience = 8
	s.Baseline.Epochs = 8
	s.Baseline.Patience = 8
	s.Sato.TrainOpts = s.Baseline
	s.Sato.Topics = 6
	return s
}

func TestTable1Statistics(t *testing.T) {
	s := smokeScale()
	sp, gt := Table1(s)
	if sp.NumTables != 40 || gt.NumTables == 0 {
		t.Fatalf("table1 stats: %+v %+v", sp, gt)
	}
	var buf bytes.Buffer
	WriteTable1(&buf, s)
	out := buf.String()
	if !strings.Contains(out, "SportsTables") || !strings.Contains(out, "GitTables") {
		t.Fatalf("table1 rendering:\n%s", out)
	}
}

func TestTable2SmokeRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full comparison skipped in -short")
	}
	s := smokeScale()
	res := Table2(s)
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.WeightedAll < 0 || row.WeightedAll > 1 {
			t.Fatalf("row %s out of range: %+v", row.Model, row)
		}
	}
	if res.Rows[5].Model != "Pythagoras" {
		t.Fatal("row order must match the paper")
	}
	// predictions captured for Figure 4
	if len(res.Preds["Pythagoras"]) == 0 || len(res.Preds["Sato"]) == 0 {
		t.Fatal("first-seed predictions missing")
	}

	fig := Figure4(res)
	total := fig.PythagorasWins + fig.Ties + fig.SatoWins
	if total == 0 {
		t.Fatal("figure 4 compared zero types")
	}
	var buf bytes.Buffer
	WriteComparison(&buf, "Table 2", res)
	WriteFigure4(&buf, fig)
	if !strings.Contains(buf.String(), "Pythagoras better") {
		t.Fatal("figure 4 rendering wrong")
	}
}

func TestTable4VariantsComplete(t *testing.T) {
	vs := Table4Variants()
	if len(vs) != 8 {
		t.Fatalf("variants = %d, want 8 (paper rows)", len(vs))
	}
	names := map[string]bool{}
	for _, v := range vs {
		names[v.Name] = true
	}
	for _, want := range []string{
		"Pythagoras", "w/o V_tn", "w/o V_nn", "w/o V_ncf",
		"w/o V_tn, V_nn", "w/o V_tn, V_nn, V_ncf",
		"w/ original c_h", "w/ synthesized c_h",
	} {
		if !names[want] {
			t.Fatalf("missing variant %q", want)
		}
	}
}

func TestScalesConstructible(t *testing.T) {
	for _, s := range []Scale{ReducedScale(), QuickScale(), FullScale()} {
		if s.Sports.NumTables == 0 || s.Git.NumTables == 0 || len(s.Seeds) == 0 {
			t.Fatalf("scale %q incomplete", s.Name)
		}
		if s.Encoder.Dim == 0 || s.Pythagoras.Epochs == 0 {
			t.Fatalf("scale %q incomplete", s.Name)
		}
	}
	full := FullScale()
	if full.Sports.NumTables != 1187 || full.Git.NumTables != 6577 || len(full.Seeds) != 5 {
		t.Fatal("full scale must match Table 1 and the 5-seed protocol")
	}
}

func TestHelperAccessors(t *testing.T) {
	res := &ComparisonResult{Rows: []eval.Row{
		{Model: "Sato", WeightedNum: 0.7},
		{Model: "Pythagoras", WeightedNum: 0.83},
		{Model: "Dosolo", WeightedNum: 0.3},
	}}
	name, best := BestBaselineNumeric(res)
	if name != "Sato" || best != 0.7 {
		t.Fatalf("BestBaselineNumeric = %s %.2f", name, best)
	}
	row, ok := RowByModel(res, "Pythagoras")
	if !ok || row.WeightedNum != 0.83 {
		t.Fatal("RowByModel failed")
	}
	if _, ok := RowByModel(res, "nope"); ok {
		t.Fatal("RowByModel found a ghost")
	}
}
