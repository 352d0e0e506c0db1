// Package experiments is the reproduction harness for every table and
// figure in the paper's evaluation (§4): Table 1 (corpus statistics),
// Tables 2–3 (six models × two corpora), Figure 4 (per-type Pythagoras vs
// Sato comparison) and Table 4 (graph ablations and header serializations).
//
// Experiments run at a configurable Scale; ReducedScale preserves every
// qualitative shape of the paper on a laptop in minutes, FullScale matches
// the corpus sizes of Table 1.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"github.com/sematype/pythagoras/internal/baselines"
	"github.com/sematype/pythagoras/internal/core"
	"github.com/sematype/pythagoras/internal/data"
	"github.com/sematype/pythagoras/internal/eval"
	"github.com/sematype/pythagoras/internal/graph"
	"github.com/sematype/pythagoras/internal/lm"
	"github.com/sematype/pythagoras/internal/table"
)

// Scale bundles every knob of one experiment configuration.
type Scale struct {
	Name    string
	Sports  data.SportsConfig
	Git     data.GitConfig
	Encoder lm.Config
	Seeds   []int64

	Pythagoras core.Config // Encoder/Seed filled per run
	Baseline   baselines.TrainOpts
	Sato       baselines.SatoOpts

	Logf func(format string, args ...any)
}

// ReducedScale is the default: small corpora, small encoder, every
// qualitative claim intact.
func ReducedScale() Scale {
	encCfg := lm.Config{Dim: 64, Layers: 2, Heads: 4, FFNDim: 128, MaxLen: 512, Buckets: 1 << 14, Seed: 20240325}
	s := Scale{
		Name:    "reduced",
		Sports:  data.ReducedSportsConfig(),
		Git:     data.ReducedGitConfig(),
		Encoder: encCfg,
		Seeds:   []int64{1, 2},
	}
	s.Pythagoras = core.Config{
		GNNLayers: 2, HiddenDim: 160, LearningRate: 1e-2, Epochs: 150,
		BatchSize: 8, Patience: 150, Dropout: 0.1,
	}
	s.Baseline = baselines.TrainOpts{
		SubDim: 64, Hidden: 128, LearningRate: 1e-2, Epochs: 80,
		BatchSize: 256, Patience: 15, Dropout: 0.1,
	}
	s.Sato = baselines.SatoOpts{TrainOpts: s.Baseline, Topics: 24, CRFEpochs: 3, CRFRate: 0.05}
	return s
}

// QuickScale is the bench/test configuration: one seed, short training —
// for smoke-testing the full pipeline, not for score fidelity.
func QuickScale() Scale {
	s := ReducedScale()
	s.Name = "quick"
	s.Sports.NumTables = 110
	s.Sports.Domains = 5
	s.Git.NumTables = 120
	s.Seeds = []int64{1}
	s.Encoder = lm.Config{Dim: 48, Layers: 1, Heads: 4, FFNDim: 96, MaxLen: 512, Buckets: 1 << 13, Seed: 20240325}
	s.Pythagoras.Epochs = 60
	s.Pythagoras.Patience = 60
	s.Baseline.Epochs = 40
	s.Baseline.Patience = 40
	s.Sato.TrainOpts = s.Baseline
	return s
}

// FullScale matches the paper's corpus sizes (Table 1) and 5-seed protocol.
// Expect hours of single-core CPU time.
func FullScale() Scale {
	s := ReducedScale()
	s.Name = "full"
	s.Sports = data.DefaultSportsConfig()
	s.Git = data.DefaultGitConfig()
	s.Seeds = []int64{1, 2, 3, 4, 5}
	s.Encoder = lm.Config{Dim: 128, Layers: 2, Heads: 8, FFNDim: 256, MaxLen: 512, Buckets: 1 << 16, Seed: 20240325}
	s.Pythagoras.Epochs = 250
	s.Pythagoras.Patience = 50
	s.Pythagoras.HiddenDim = 256
	s.Baseline.Epochs = 120
	s.Baseline.Patience = 20
	s.Sato.TrainOpts = s.Baseline
	return s
}

func (s *Scale) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// ModelNames lists the six compared models in the paper's row order.
var ModelNames = []string{
	"Sherlock", "Sato", "Dosolo", "Doduo", "GPT-3 (fine-tuned)", "Pythagoras",
}

// ComparisonResult holds one corpus's Table 2/3-style outcome.
type ComparisonResult struct {
	Corpus string
	Rows   []eval.Row
	// Preds holds, per model name, the concatenated test predictions of
	// the first seed (used by Figure 4).
	Preds map[string][]eval.Prediction
}

// Table1 generates both corpora and returns their statistics.
func Table1(s Scale) (sports, git data.Stats) {
	sc := data.GenerateSportsTables(s.Sports)
	gc := data.GenerateGitTables(s.Git)
	return sc.ComputeStats(), gc.ComputeStats()
}

// WriteTable1 renders Table 1.
func WriteTable1(w io.Writer, s Scale) {
	sp, gt := Table1(s)
	fmt.Fprintf(w, "Table 1: Statistics of the datasets (%s scale)\n", s.Name)
	fmt.Fprintf(w, "%-18s %8s %14s %12s %10s\n", "Dataset", "#Tables", "NonNum./Table", "Num./Table", "#sem.Types")
	fmt.Fprintf(w, "%-18s %8d %14.2f %12.2f %10d\n", "SportsTables", sp.NumTables, sp.AvgTextCols, sp.AvgNumCols, sp.NumTypes)
	fmt.Fprintf(w, "%-18s %8d %14.2f %12.2f %10d\n", "GitTables Numeric", gt.NumTables, gt.AvgTextCols, gt.AvgNumCols, gt.NumTypes)
}

// RunComparison trains all six models on the corpus across the scale's
// seeds and aggregates the paper's metrics — the engine behind Tables 2
// and 3.
func RunComparison(c *data.Corpus, s Scale) *ComparisonResult {
	enc := lm.NewEncoder(s.Encoder)
	aggs := map[string]*eval.SeedAggregate{}
	for _, name := range ModelNames {
		aggs[name] = &eval.SeedAggregate{}
	}
	preds := map[string][]eval.Prediction{}

	for si, seed := range s.Seeds {
		rng := rand.New(rand.NewSource(seed))
		train, val, test := eval.TrainValTestSplit(len(c.Tables), rng)
		s.logf("[%s] seed %d: %d train / %d val / %d test tables",
			c.Name, seed, len(train), len(val), len(test))

		bopts := s.Baseline
		bopts.Seed = seed
		run := func(name string, trainEval func() (*eval.Split, []eval.Prediction)) {
			start := time.Now()
			split, p := trainEval()
			aggs[name].Add(split)
			if si == 0 {
				preds[name] = p
			}
			s.logf("[%s] seed %d: %-20s wF1 num=%.3f txt=%.3f all=%.3f (%.0fs)",
				c.Name, seed, name, split.Numeric.WeightedF1,
				split.NonNumeric.WeightedF1, split.Overall.WeightedF1,
				time.Since(start).Seconds())
		}

		run("Sherlock", func() (*eval.Split, []eval.Prediction) {
			m := baselines.TrainSherlock(c, train, val, enc, bopts)
			return m.Evaluate(c, test)
		})
		run("Sato", func() (*eval.Split, []eval.Prediction) {
			sopts := s.Sato
			sopts.TrainOpts = bopts
			m, err := baselines.TrainSato(c, train, val, enc, sopts)
			if err != nil {
				panic(err)
			}
			return m.Evaluate(c, test)
		})
		run("Dosolo", func() (*eval.Split, []eval.Prediction) {
			m := baselines.TrainDosolo(c, train, val, enc, bopts)
			return m.Evaluate(c, test)
		})
		run("Doduo", func() (*eval.Split, []eval.Prediction) {
			m := baselines.TrainDoduo(c, train, val, enc, bopts)
			return m.Evaluate(c, test)
		})
		run("GPT-3 (fine-tuned)", func() (*eval.Split, []eval.Prediction) {
			m := baselines.TrainLLM(c, train, val, enc, bopts)
			return m.Evaluate(c, test)
		})
		run("Pythagoras", func() (*eval.Split, []eval.Prediction) {
			pcfg := s.Pythagoras
			pcfg.Encoder = enc
			pcfg.Seed = seed
			m, err := core.TrainCtx(context.Background(), c, train, val, pcfg)
			if err != nil {
				panic(err)
			}
			return m.Evaluate(c, test)
		})
	}

	res := &ComparisonResult{Corpus: c.Name, Preds: preds}
	for _, name := range ModelNames {
		res.Rows = append(res.Rows, aggs[name].Row(name))
	}
	return res
}

// Table2 runs the SportsTables comparison.
func Table2(s Scale) *ComparisonResult {
	c := data.GenerateSportsTables(s.Sports)
	return RunComparison(c, s)
}

// Table3 runs the GitTables Numeric comparison.
func Table3(s Scale) *ComparisonResult {
	c := data.GenerateGitTables(s.Git)
	return RunComparison(c, s)
}

// WriteComparison renders a Table 2/3-style result.
func WriteComparison(w io.Writer, title string, res *ComparisonResult) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintln(w, eval.TableHeader())
	for _, row := range res.Rows {
		fmt.Fprintln(w, eval.FormatRow(row))
	}
}

// Figure4Result holds the per-type comparison (Pythagoras vs Sato on
// numerical SportsTables columns).
type Figure4Result struct {
	PythagorasWins, Ties, SatoWins int
	PythagorasBox, SatoBox         eval.BoxStats
}

// Figure4 computes the per-type stats from a Table 2 run's predictions.
func Figure4(res *ComparisonResult) Figure4Result {
	d := eval.CompareByType(res.Preds["Pythagoras"], res.Preds["Sato"])
	return Figure4Result{
		PythagorasWins: d.AWins,
		Ties:           d.Ties,
		SatoWins:       d.BWins,
		PythagorasBox:  eval.Box(d.DiffsAWins),
		SatoBox:        eval.Box(d.DiffsBWins),
	}
}

// WriteFigure4 renders the Figure 4 numbers.
func WriteFigure4(w io.Writer, f Figure4Result) {
	total := f.PythagorasWins + f.Ties + f.SatoWins
	fmt.Fprintf(w, "Figure 4: per-numerical-type comparison, Pythagoras vs Sato (%d types)\n", total)
	fmt.Fprintf(w, "  Pythagoras better: %d   equal: %d   Sato better: %d\n",
		f.PythagorasWins, f.Ties, f.SatoWins)
	fmt.Fprintf(w, "  F1 diff where Pythagoras wins: median=%.2f q1=%.2f q3=%.2f max=%.2f\n",
		f.PythagorasBox.Median, f.PythagorasBox.Q1, f.PythagorasBox.Q3, f.PythagorasBox.Max)
	fmt.Fprintf(w, "  F1 diff where Sato wins:       median=%.2f q1=%.2f q3=%.2f max=%.2f\n",
		f.SatoBox.Median, f.SatoBox.Q1, f.SatoBox.Q3, f.SatoBox.Max)
}

// AblationVariant is one row of Table 4.
type AblationVariant struct {
	Name  string
	Graph graph.BuildOptions
}

// Table4Variants returns the paper's eight Table 4 rows.
func Table4Variants() []AblationVariant {
	return []AblationVariant{
		{Name: "Pythagoras", Graph: graph.BuildOptions{}},
		{Name: "w/o V_tn", Graph: graph.BuildOptions{DropTableName: true}},
		{Name: "w/o V_nn", Graph: graph.BuildOptions{DropTextColumns: true}},
		{Name: "w/o V_ncf", Graph: graph.BuildOptions{DropNumericFeatures: true}},
		{Name: "w/o V_tn, V_nn", Graph: graph.BuildOptions{DropTableName: true, DropTextColumns: true}},
		{Name: "w/o V_tn, V_nn, V_ncf", Graph: graph.BuildOptions{
			DropTableName: true, DropTextColumns: true, DropNumericFeatures: true}},
		{Name: "w/ original c_h", Graph: graph.BuildOptions{
			Serialization: table.SerializeOptions{Header: table.HeaderOriginal}}},
		{Name: "w/ synthesized c_h", Graph: graph.BuildOptions{
			Serialization: table.SerializeOptions{Header: table.HeaderSynthetic}}},
	}
}

// AblationRow is one Table 4 result row (numerical columns only).
type AblationRow struct {
	Variant             string
	WeightedF1, MacroF1 float64
}

// Table4 trains the Pythagoras graph variants on SportsTables and reports
// numerical-column F1 — the ablation study of §4.5.
func Table4(s Scale) []AblationRow {
	c := data.GenerateSportsTables(s.Sports)
	enc := lm.NewEncoder(s.Encoder)
	rng := rand.New(rand.NewSource(s.Seeds[0]))
	train, val, test := eval.TrainValTestSplit(len(c.Tables), rng)

	var rows []AblationRow
	for _, v := range Table4Variants() {
		pcfg := s.Pythagoras
		// Ablations compare variants against each other at matched budget;
		// a reduced epoch count keeps the 8-variant sweep tractable without
		// affecting the ordering.
		pcfg.Epochs = pcfg.Epochs * 2 / 5
		if pcfg.Epochs < 40 {
			pcfg.Epochs = 40
		}
		pcfg.Patience = pcfg.Epochs
		pcfg.Encoder = enc
		pcfg.Seed = s.Seeds[0]
		pcfg.Graph = v.Graph
		start := time.Now()
		m, err := core.TrainCtx(context.Background(), c, train, val, pcfg)
		if err != nil {
			panic(err)
		}
		split, _ := m.Evaluate(c, test)
		rows = append(rows, AblationRow{
			Variant:    v.Name,
			WeightedF1: split.Numeric.WeightedF1,
			MacroF1:    split.Numeric.MacroF1,
		})
		s.logf("[ablation] %-24s num wF1=%.3f mF1=%.3f (%.0fs)",
			v.Name, split.Numeric.WeightedF1, split.Numeric.MacroF1,
			time.Since(start).Seconds())
	}
	return rows
}

// WriteTable4 renders the ablation table.
func WriteTable4(w io.Writer, rows []AblationRow) {
	fmt.Fprintln(w, "Table 4: ablation study, numerical columns of SportsTables")
	fmt.Fprintf(w, "%-26s %18s %12s\n", "Variant", "support wtd F1", "macro F1")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %18.3f %12.3f\n", r.Variant, r.WeightedF1, r.MacroF1)
	}
}

// BestBaselineNumeric returns the strongest baseline's numeric weighted F1
// from a comparison (used to verify shape claim 1).
func BestBaselineNumeric(res *ComparisonResult) (string, float64) {
	bestName, best := "", -1.0
	for _, row := range res.Rows {
		if row.Model == "Pythagoras" {
			continue
		}
		if row.WeightedNum > best {
			best, bestName = row.WeightedNum, row.Model
		}
	}
	return bestName, best
}

// RowByModel finds a model's row in a comparison result.
func RowByModel(res *ComparisonResult, model string) (eval.Row, bool) {
	for _, r := range res.Rows {
		if r.Model == model {
			return r, true
		}
	}
	return eval.Row{}, false
}
