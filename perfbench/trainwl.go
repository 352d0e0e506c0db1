package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/sematype/pythagoras/internal/data"
	"github.com/sematype/pythagoras/internal/infer"
	"github.com/sematype/pythagoras/internal/lm"
)

// Train workload shape: a SportsTables corpus small enough that three full
// TrainCtx runs, each with a cold encoder, fit in one measured run.
const (
	trainTables  = 100
	trainEpochs  = 15
	trainMinRuns = 3
	// scoreTables is how many held-out tables numeric_wf1 is scored on: the
	// test split, topped up with tables of the same generator the model
	// never saw, so the score does not hinge on a 20-table split.
	scoreTables = 128
)

type trainEnv struct {
	corpus           *data.Corpus
	trainIdx, valIdx []int
	scored           []*benchTable
}

func setupTrain(seed int64) (*trainEnv, error) {
	c := sportsCorpus(subSeed(seed, 31), trainTables)
	trainIdx, valIdx, testIdx := splitCorpus(c, subSeed(seed, 32))
	held := pick(c, testIdx)
	held = append(held, sportsCorpus(subSeed(seed, 33), scoreTables-len(held)).Tables...)
	scored, err := benchTables(held, "heldout")
	if err != nil {
		return nil, err
	}
	return &trainEnv{corpus: c, trainIdx: trainIdx, valIdx: valIdx, scored: scored}, nil
}

func runTrain(ctx context.Context, cfg config) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}, details: map[string]any{}}
	var env *trainEnv
	var setups []float64
	for i := 0; i < setupRepeats(cfg); i++ {
		t0 := time.Now()
		e, err := setupTrain(cfg.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		env = e
	}

	// Train again and again: every run starts from a fresh encoder, and
	// training is deterministic, so every run must reach the same numeric
	// wF1 on the held-out tables.
	var runs []*trained
	var walls, epochMs []float64
	var wf1 []float64
	var work float64 // training tables × epochs
	ph := startPhase()
	started := time.Now()
	for len(runs) < trainMinRuns || time.Since(started) < cfg.duration() {
		o.attempted++
		releaseMemory()
		tr, err := train(ctx, env.corpus, env.trainIdx, env.valIdx, trainEpochs, cfg.trace)
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			o.failed++
			continue
		}
		runs = append(runs, tr)
		walls = append(walls, tr.wall.Seconds())
		for _, e := range tr.epochs {
			epochMs = append(epochMs, ms(e))
		}
		work += float64(len(env.trainIdx) * trainEpochs)
		preds, err := infer.New(tr.model).PredictBatchCtx(ctx, wires(env.scored))
		if err != nil {
			return nil, fmt.Errorf("score held-out tables: %w", err)
		}
		wf1 = append(wf1, numericWF1(tr.model, env.scored, preds))
		if wf1[len(wf1)-1] != wf1[0] {
			o.failed++
		}
	}
	stats := ph.stop(int(work))
	o.details["peak_rss_mb"] = stats.peakRSSMB
	o.details["property"] = textHits(lm.CacheStats{}, runs[len(runs)-1].model.Encoder().CacheStats())
	tailMs, tailLevel := tail(epochMs, 0.99)
	o.details["setup_s"] = setups
	o.details["train_s"] = walls
	o.details["epoch_samples"] = len(epochMs)
	o.details["tail"] = map[string]float64{"ms": tailMs, "level": tailLevel}
	o.details["numeric_wf1"] = wf1
	o.details["corpus"] = map[string]any{
		"tables": trainTables, "train": len(env.trainIdx), "val": len(env.valIdx), "scored": len(env.scored), "epochs": trainEpochs,
	}

	if !cfg.trace {
		o.metrics["setup_s"] = median(setups)
		o.metrics["train_s"] = median(walls)
		o.metrics["p50_ms"] = median(epochMs)
		o.metrics["ops_per_s"] = work / sum(walls)
		o.metrics["numeric_wf1"] = wf1[0]
		return o, nil
	}

	last := runs[len(runs)-1]
	next := 0
	fresh := func(n int) ([]*benchTable, error) {
		next++
		c := sportsCorpus(subSeed(cfg.seed, 1000+next), n)
		return benchTables(c.Tables, fmt.Sprintf("fresh%03d", next))
	}
	probe, err := probeLayers(ctx, probeEnv{
		seed: cfg.seed, model: last.model, eng: infer.New(last.model), client: newClient(runtime.NumCPU()),
		fresh: fresh, ops: 12, opTables: 8, driver: true,
	})
	if err != nil {
		return nil, err
	}
	return tracedOutcome(o, probe, runs, stats, probe.paced), nil
}
