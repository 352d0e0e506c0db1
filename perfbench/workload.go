package main

import (
	"math"
	"runtime"
	"time"

	"github.com/sematype/pythagoras/internal/lm"
)

// setupEpochs is how long set-up trains the served model on online and
// lake: enough for a numeric wF1 well clear of chance, few enough that
// three set-ups leave time to measure.
const setupEpochs = 12

// setupRepeats is how many complete set-ups a run makes; setup_s is their
// median. A traced run reports no setup_s and sets up once.
func setupRepeats(cfg config) int {
	if cfg.trace {
		return 1
	}
	return 3
}

// minTailSamples is the smallest sample count whose level-percentile has
// minBeyond samples beyond it.
func minTailSamples(level float64) int {
	return int(math.Ceil(minBeyond/(1-level) - 1e-9))
}

// openSamples are the latencies of an open-loop schedule, from each
// request's scheduled send, and how late each send went out.
type openSamples struct {
	latencyMs, lateMs []float64
}

// tracedOutcome fills a traced run's per-layer metrics: the replay's layers,
// the trainer's own telemetry, the runtime over the measured phase, and the
// p99 and send lateness of an open-loop schedule.
func tracedOutcome(o *outcome, p *probeOut, trs []*trained, st phaseStats, open openSamples) *outcome {
	for k, v := range p.layers {
		o.metrics[k] = v
	}
	var prepare, epochs []float64
	sums := map[string]float64{}
	counts := map[string]uint64{}
	for _, tr := range trs {
		prepare = append(prepare, tr.prepare.Seconds())
		for _, e := range tr.epochs {
			epochs = append(epochs, e.Seconds())
		}
		snap := tr.reg.Snapshot()
		for _, h := range []string{"train.fb.seconds", "train.merge.seconds", "train.val.seconds"} {
			sums[h] += snap.Histograms[h].Sum
			counts[h] += snap.Histograms[h].Count
		}
	}
	meanMs := func(h string) float64 {
		if counts[h] == 0 {
			return 0
		}
		return sums[h] / float64(counts[h]) * 1e3
	}
	o.metrics["train.prepare_s"] = median(prepare)
	o.metrics["train.epoch_s"] = median(epochs)
	o.metrics["train.fb_ms"] = meanMs("train.fb.seconds")
	o.metrics["train.merge_ms"] = meanMs("train.merge.seconds")
	o.metrics["train.val_ms"] = meanMs("train.val.seconds")
	o.metrics["runtime.allocs_per_table"] = st.allocsPerTable
	o.metrics["runtime.gc_cpu_frac"] = st.gcFrac
	o.metrics["runtime.peak_rss_mb"] = st.peakRSSMB
	p99, level := tail(open.latencyMs, 0.99)
	o.metrics["server.p99_ms"] = p99
	late, lateLevel := tail(open.lateMs, 0.99)
	o.metrics["bench.late_p99_ms"] = late
	o.details["open_loop_tail"] = map[string]any{
		"samples": len(open.latencyMs), "p99_level": level, "lateness_level": lateLevel,
	}
	// Forward/backward runs on all workers at once, so its summed time is
	// spread over GOMAXPROCS when stages are compared.
	stages := map[string]float64{
		"train.prepare": sum(prepare), "train.fb": sums["train.fb.seconds"] / float64(runtime.GOMAXPROCS(0)),
		"train.merge": sums["train.merge.seconds"], "train.val": sums["train.val.seconds"],
	}
	bestStage := ""
	for name, v := range stages {
		if bestStage == "" || v > stages[bestStage] {
			bestStage = name
		}
	}
	o.details["train_stages"] = map[string]any{
		"seconds": stages, "largest": bestStage, "steps": counts["train.merge.seconds"],
	}
	for k, v := range p.details {
		o.details[k] = v
	}
	o.spans = p.spans
	o.attempted += p.attempted
	o.failed += p.failed
	return o
}

// duration is how long the run measures.
func (c config) duration() time.Duration { return time.Duration(c.seconds) * time.Second }

// textHits is the share of encoder text lookups that hit the cache between
// two snapshots: the input property the workloads are chosen around (about
// 1 on online, about 0 on lake).
func textHits(before, after lm.CacheStats) map[string]float64 {
	return map[string]float64{"lm.text_hit_ratio": ratio(after.TextHits-before.TextHits, after.TextMisses-before.TextMisses)}
}
