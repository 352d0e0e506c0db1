// Command experiments regenerates the paper's evaluation: Table 1 (corpus
// statistics), Table 2 (SportsTables comparison), Table 3 (GitTables
// Numeric comparison), Figure 4 (per-type Pythagoras vs Sato) and Table 4
// (ablations).
//
// Usage:
//
//	experiments -exp all                 # everything at reduced scale
//	experiments -exp table2 -scale full  # one experiment at paper scale
//	experiments -exp table1,table4 -out results.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"os"
	"strings"

	"github.com/sematype/pythagoras/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiments: table1,table2,table3,fig4,table4,all")
	scaleName := flag.String("scale", "reduced", "experiment scale: quick, reduced, full")
	out := flag.String("out", "", "also write results to this file")
	md := flag.String("markdown", "", "write a markdown report (EXPERIMENTS.md section) to this file")
	quiet := flag.Bool("quiet", false, "suppress progress logging")
	logFormat := flag.String("log-format", "text", "progress log format: text or json")
	trainWorkers := flag.Int("train-workers", 0, "worker goroutines per training run (0 = all CPUs; scores are identical at any count)")
	flag.Parse()

	// One log path: progress lines (via slog.NewLogLogger) and fatal errors
	// both go through the handler -log-format picks.
	var h slog.Handler
	switch *logFormat {
	case "text":
		h = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		h = slog.NewJSONHandler(os.Stderr, nil)
	default:
		log.Fatalf("invalid -log-format %q (want text or json)", *logFormat)
	}
	logger := slog.New(h)
	fatal := func(step string, err error) {
		logger.Error(step+" failed", "err", err)
		os.Exit(1)
	}

	var scale experiments.Scale
	switch *scaleName {
	case "quick":
		scale = experiments.QuickScale()
	case "reduced":
		scale = experiments.ReducedScale()
	case "full":
		scale = experiments.FullScale()
	default:
		log.Fatalf("unknown scale %q (want quick, reduced or full)", *scaleName)
	}
	if !*quiet {
		scale.Logf = slog.NewLogLogger(h, slog.LevelInfo).Printf
	}
	scale.Pythagoras.TrainWorkers = *trainWorkers

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal("create output", err)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]

	fmt.Fprintf(w, "Pythagoras reproduction — scale: %s, seeds: %v\n\n", scale.Name, scale.Seeds)

	if all || want["table1"] {
		experiments.WriteTable1(w, scale)
		fmt.Fprintln(w)
	}

	var t2, t3 *experiments.ComparisonResult
	var fig *experiments.Figure4Result
	var t4rows []experiments.AblationRow
	if all || want["table2"] || want["fig4"] {
		t2 = experiments.Table2(scale)
		experiments.WriteComparison(w, "Table 2: Experimental results on the SportsTables corpus", t2)
		name, best := experiments.BestBaselineNumeric(t2)
		if row, ok := experiments.RowByModel(t2, "Pythagoras"); ok && best > 0 {
			fmt.Fprintf(w, "  → Pythagoras vs best baseline (%s) on numeric: %+.1f%% weighted F1\n",
				name, 100*(row.WeightedNum-best)/best)
		}
		fmt.Fprintln(w)
	}

	if all || want["table3"] {
		t3 = experiments.Table3(scale)
		experiments.WriteComparison(w, "Table 3: Experimental results on the GitTables corpus", t3)
		name, best := experiments.BestBaselineNumeric(t3)
		if row, ok := experiments.RowByModel(t3, "Pythagoras"); ok && best > 0 {
			fmt.Fprintf(w, "  → Pythagoras vs best baseline (%s) on numeric: %+.1f%% weighted F1\n",
				name, 100*(row.WeightedNum-best)/best)
		}
		fmt.Fprintln(w)
	}

	if all || want["fig4"] {
		f := experiments.Figure4(t2)
		fig = &f
		experiments.WriteFigure4(w, f)
		fmt.Fprintln(w)
	}

	if all || want["table4"] {
		t4rows = experiments.Table4(scale)
		experiments.WriteTable4(w, t4rows)
		fmt.Fprintln(w)
	}

	if claims := experiments.CheckShapes(t2, t3, fig, t4rows); len(claims) > 0 {
		fmt.Fprintln(w, experiments.FormatShapes(claims))
	}

	if *md != "" {
		f, err := os.Create(*md)
		if err != nil {
			fatal("create markdown report", err)
		}
		experiments.WriteMarkdown(f, scale, t2, t3, fig, t4rows)
		if err := f.Close(); err != nil {
			fatal("write markdown report", err)
		}
	}
}
