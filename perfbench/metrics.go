package main

// endToEndUnits are the metrics a run reports with tracing off. Every
// workload reports every one; each is defined on each workload's unit of
// work (online: a /v1/predict request; lake: a 16-table re-score batch;
// train: a training epoch):
//
//   - setup_s: median of three complete set-ups in the run.
//   - p50_ms: median latency of the unit of work; on online, open loop,
//     timed from the scheduled send.
//   - ops_per_s: online: closed-loop requests per second that are 2xx,
//     correct and within server.DefaultSLOLatency; lake: tables re-scored
//     per second; train: training tables processed per second
//     (tables × epochs / TrainCtx wall).
//   - train_s: wall time of core.TrainCtx (on online and lake, the set-up's
//     training of the served model).
//   - numeric_wf1: weighted F1 on numeric columns against the gold types the
//     benchmark keeps.
//
// Two metrics are recorded in every run's report and reported per layer,
// but are no end-to-end metrics because they do not repeat within any
// allowed bound: the tail latency (online's open-loop p99, also the
// per-layer server.p99_ms, swung 11–58 ms over ten runs as host stalls came
// and went) and the peak resident set (runtime.peak_rss_mb; on lake it
// swung 2× with the GC cycle catching more or fewer in-flight batches).
var endToEndUnits = map[string]string{
	"setup_s":     "s",
	"p50_ms":      "ms",
	"ops_per_s":   "1/s",
	"train_s":     "s",
	"numeric_wf1": "1",
}

// layerUnits are the per-layer metrics of a traced run. Replayed stage
// times are self times per table, medians over the replayed operations.
var layerUnits = map[string]string{
	"server.roundtrip_ms": "ms",
	"server.p99_ms":       "ms",
	"server.self_ms":      "ms",
	"server.decode_us":    "us",
	"server.encode_us":    "us",

	"infer.predict_ms":   "ms",
	"infer.batch_ms":     "ms",
	"infer.parallel_eff": "1",

	"rescore.idle_frac":     "1",
	"rescore.inflight_mean": "count",

	"graph.build_us":      "us",
	"features.extract_us": "us",
	"graph.nodes":         "count",
	"graph.edges":         "count",
	"graph.allocs":        "count",

	"lm.encode_us":       "us",
	"lm.text_hit_ratio":  "1",
	"lm.token_hit_ratio": "1",
	"lm.tokens_per_text": "count",

	"core.encode_us":      "us",
	"core.union_us":       "us",
	"core.forward_us":     "us",
	"core.decode_us":      "us",
	"core.encode_allocs":  "count",
	"core.forward_allocs": "count",
	"core.forward_mflop":  "Mflop",

	"discovery.index_us":  "us",
	"discovery.search_us": "us",

	"train.prepare_s": "s",
	"train.epoch_s":   "s",
	"train.fb_ms":     "ms",
	"train.merge_ms":  "ms",
	"train.val_ms":    "ms",

	"runtime.allocs_per_table": "count",
	"runtime.gc_cpu_frac":      "1",
	"runtime.peak_rss_mb":      "MB",

	"bench.late_p99_ms":         "ms",
	"bench.trace_residual_frac": "1",
	"bench.trace_overhead_frac": "1",
}

// whyOf records why each workload exists; BENCHMARK.json carries the same
// lines.
var whyOf = map[string]string{
	"online": "warm Zipf-skewed tables over loopback HTTP: open loop of predict/index/search at 180 req/s (about half the closed-loop rate), then nproc closed-loop clients adding 8-table batches",
	"lake":   "unseen numeric-heavy tables re-scored in 16-table batches into a SwapIndex, no server: every node text misses the encoder cache, so the transformer dominates",
	"train":  "fixed-epoch TrainCtx runs with a cold encoder: the only workload with autodiff backward, gradient merge and the Adam step",
}

// layerPrediction states, before measuring, which end-to-end metric a layer
// metric should move and on which workload.
type layerPrediction struct {
	Layer   string `json:"layer"`
	Moves   string `json:"moves"`
	Unmoved string `json:"predicted_unmoved,omitempty"`
}

var layerPredictions = []layerPrediction{
	{"server.*", "p50_ms and ops_per_s on online", "lake, train"},
	{"infer.predict_ms", "p50_ms on online", ""},
	{"infer.batch_ms, infer.parallel_eff", "ops_per_s on lake", ""},
	{"rescore.*", "ops_per_s on lake", "online"},
	{"graph.*, features.*", "p50_ms on online (~18% of engine time); ~2% of lake", ""},
	{"lm.*", "ops_per_s on lake and the prepare share of train_s", "online (text hit ratio ≈ 1)"},
	{"core.forward_us", "p50_ms and ops_per_s on online (~75% of engine time); ~8% of lake", ""},
	{"discovery.*", "server.p99_ms on online", ""},
	{"train.*", "train_s; train.prepare_s also setup_s on online and lake", ""},
	{"runtime.*", "p50_ms and ops_per_s on online, and train_s", ""},
	{"bench.*", "nothing (harness health)", "all"},
}
