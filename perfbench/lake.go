package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"github.com/sematype/pythagoras/internal/core"
	"github.com/sematype/pythagoras/internal/discovery"
	"github.com/sematype/pythagoras/internal/infer"
	"github.com/sematype/pythagoras/internal/rescore"
)

// Lake workload sizes: the served model trains on a GitTables-flavour
// corpus; each re-score run walks a lake of lakeSize unseen tables (16
// batches at the driver's default batch size of 16).
const (
	lakeTrainTables = 160
	lakeSize        = 256
	lakeWarmTables  = 64
	// lakeScoredRuns re-score runs are always completed, and numeric_wf1
	// scores exactly their tables, so it does not depend on how many runs
	// fit in the measured time.
	lakeScoredRuns = 3
)

// lakeRun is one completed rescore.Driver run.
type lakeRun struct {
	wall   time.Duration
	cpu    time.Duration // process CPU time during the run
	lo, hi int64         // the run's window on the scorer's clock
	tables int
	failed int // tables missing from the index, skipped, or of a failed run
	preds  [][]core.ColumnPrediction
}

// rescoreLake puts tables into a fresh lake and re-scores it with the
// driver's defaults (batch 16, concurrency 2) into an empty SwapIndex with
// min-confidence 0, so every column must land in the index. It then reads
// the predictions back out of the index.
func rescoreLake(ctx context.Context, sc *timedScorer, tables []*benchTable, tag string) (*lakeRun, error) {
	lake := rescore.NewLake()
	for _, bt := range tables {
		lake.Put(bt.wire)
	}
	idx := discovery.NewSwapIndex(0)
	d := rescore.New(lake, sc, idx, rescore.Config{ModelID: "perfbench-" + tag})
	run := &lakeRun{tables: len(tables), lo: sc.now()}
	cpu0, t0 := cpuTime(), time.Now()
	err := d.Run(ctx)
	run.wall, run.cpu = time.Since(t0), cpuTime()-cpu0
	run.hi = sc.now()
	p := d.Progress()
	if err != nil || p.State != "done" || p.Done != p.Total || p.Total != len(tables) || p.Skipped != 0 {
		run.failed = len(tables)
		return run, nil
	}
	run.preds, run.failed = readIndex(idx.Current(), tables)
	return run, nil
}

// readIndex collects each table's predictions from the index and counts the
// tables whose columns are not all there exactly once.
func readIndex(ix *discovery.TypeIndex, tables []*benchTable) ([][]core.ColumnPrediction, int) {
	byTable := map[string][]discovery.ColumnRef{}
	for _, st := range ix.Types() {
		for _, ref := range ix.Columns(st) {
			byTable[ref.TableID] = append(byTable[ref.TableID], ref)
		}
	}
	preds := make([][]core.ColumnPrediction, len(tables))
	failed := 0
	for i, bt := range tables {
		refs := byTable[bt.id]
		sort.Slice(refs, func(a, b int) bool { return refs[a].ColIndex < refs[b].ColIndex })
		if len(refs) != len(bt.wire.Columns) {
			failed++
			continue
		}
		for j, r := range refs {
			if r.ColIndex != j {
				failed++
				preds[i] = nil
				break
			}
			preds[i] = append(preds[i], core.ColumnPrediction{
				ColIndex: r.ColIndex, Header: r.Header, Kind: r.Kind, Type: r.Type, Confidence: r.Confidence,
			})
		}
	}
	return preds, failed
}

// lakeTables generates the n unseen tables of one re-score run; run numbers
// select disjoint, seeded table sets.
func lakeTables(seed int64, run, n int) ([]*benchTable, error) {
	c := gitCorpus(subSeed(seed, 100+run), n, 0)
	return benchTables(c.Tables, fmt.Sprintf("lake%03d", run))
}

type lakeEnv struct {
	tr  *trained
	eng *infer.Engine
}

// setupLake trains the served model, builds its engine, and warms the
// pipeline with a re-score of tables the measured lakes never contain.
func setupLake(ctx context.Context, seed int64, traced bool) (*lakeEnv, error) {
	c := gitCorpus(servedCorpusSeed, lakeTrainTables, gitMinSupport)
	trainIdx, valIdx, _ := splitCorpus(c, servedCorpusSeed)
	tr, eng, err := trainServed(ctx, c, trainIdx, valIdx, traced)
	if err != nil {
		return nil, err
	}
	warm, err := lakeTables(seed, -1, lakeWarmTables)
	if err != nil {
		return nil, err
	}
	run, err := rescoreLake(ctx, newTimedScorer(eng), warm, "warmup")
	if err != nil {
		return nil, err
	}
	if run.failed > 0 {
		return nil, fmt.Errorf("warm-up re-score lost %d tables", run.failed)
	}
	return &lakeEnv{tr: tr, eng: eng}, nil
}

func runLake(ctx context.Context, cfg config) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}, details: map[string]any{}}
	var env *lakeEnv
	var setups, trains []float64
	for i := 0; i < setupRepeats(cfg); i++ {
		env = nil
		releaseMemory()
		t0 := time.Now()
		e, err := setupLake(ctx, cfg.seed, cfg.trace)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		trains = append(trains, e.tr.wall.Seconds())
		env = e
	}

	// Measure: fresh lakes until the time is up.
	sc := newTimedScorer(env.eng)
	var runs []*lakeRun
	var wall time.Duration
	var tables int
	var scored []*benchTable
	var scoredPreds [][]core.ColumnPrediction
	var runWalls []float64
	ph := startPhase()
	cache := env.eng.Model().Encoder().CacheStats()
	started := time.Now()
	for run := 0; ; run++ {
		if run >= lakeScoredRuns && time.Since(started) >= cfg.duration() {
			break
		}
		bts, err := lakeTables(cfg.seed, run, lakeSize)
		if err != nil {
			return nil, err
		}
		r, err := rescoreLake(ctx, sc, bts, fmt.Sprint(run))
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
		o.attempted += len(bts)
		o.failed += r.failed
		wall += r.wall
		tables += r.tables
		runWalls = append(runWalls, r.wall.Seconds())
		if run < lakeScoredRuns && r.failed == 0 {
			scored = append(scored, bts...)
			scoredPreds = append(scoredPreds, r.preds...)
		}
	}
	stats := ph.stop(tables)
	o.details["peak_rss_mb"] = stats.peakRSSMB
	o.details["property"] = textHits(cache, env.eng.Model().Encoder().CacheStats())
	batch := sc.batchMs()
	tailMs, tailLevel := tail(batch, 0.99)
	o.details["setup_s"] = setups
	o.details["train_s"] = trains
	o.details["run_wall_s"] = runWalls
	o.details["batches"] = len(batch)
	o.details["tail"] = map[string]float64{"ms": tailMs, "level": tailLevel}
	o.details["tables"] = tables
	o.details["scored_tables"] = len(scored)

	if !cfg.trace {
		o.metrics["setup_s"] = median(setups)
		o.metrics["train_s"] = median(trains)
		o.metrics["p50_ms"] = median(batch)
		o.metrics["ops_per_s"] = float64(tables) / wall.Seconds()
		o.metrics["numeric_wf1"] = numericWF1(env.tr.model, scored, scoredPreds)
		return o, nil
	}

	next := 0
	fresh := func(n int) ([]*benchTable, error) {
		next++
		return lakeTables(cfg.seed, 10_000+next, n)
	}
	probe, err := probeLayers(ctx, probeEnv{
		seed: cfg.seed, model: env.tr.model, eng: env.eng, client: newClient(runtime.NumCPU()),
		fresh: fresh, ops: 8, opTables: 16,
	})
	if err != nil {
		return nil, err
	}
	addDriverLayers(probe.layers, sc, runs)
	return tracedOutcome(o, probe, []*trained{env.tr}, stats, probe.paced), nil
}
