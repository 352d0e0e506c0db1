package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sematype/pythagoras/internal/core"
	"github.com/sematype/pythagoras/internal/infer"
	"github.com/sematype/pythagoras/internal/server"
	"github.com/sematype/pythagoras/internal/table"
)

// Traced-run sizes: the paced /v1/predict round trips that time the server
// path (enough for a p99 of send lateness), and the re-score that times the
// batch path on online and train.
const (
	roundTrips      = 1000
	roundTripRate   = 200.0 // requests per second
	predictRepeats  = 3
	probeDriverSize = 64
)

// probeEnv is what the traced replay needs from a workload.
type probeEnv struct {
	seed   int64
	model  *core.Model
	eng    *infer.Engine
	srv    *served // nil: the probe serves eng itself
	client *http.Client
	// fresh returns the next n input tables of the workload: unseen tables
	// on lake and train, pool tables on online.
	fresh    func(n int) ([]*benchTable, error)
	ops      int  // operations replayed traced, and as many untraced
	opTables int  // tables per replayed operation
	driver   bool // run a re-score over fresh tables to time the batch path
}

// probeOut is the traced replay's result.
type probeOut struct {
	layers            map[string]float64
	spans             []Span
	attempted, failed int
	paced             openSamples // the paced round trips
	details           map[string]any
}

// probeLayers replays sampled operations traced and untraced, times the
// server path with paced round trips, and, when asked, runs a re-score
// through a timed scorer.
func probeLayers(ctx context.Context, env probeEnv) (*probeOut, error) {
	out := &probeOut{layers: map[string]float64{}, details: map[string]any{}}
	tr := newTracer()
	rep := newReplayer(env.model, env.eng)
	var counts opCounts
	var tracedPerTable, plainPerTable []float64
	opsByID := map[int][]*benchTable{}
	var seen []*benchTable

	for i := 0; i < env.ops; i++ {
		a, err := env.fresh(env.opTables)
		if err != nil {
			return nil, err
		}
		b, err := env.fresh(env.opTables)
		if err != nil {
			return nil, err
		}
		// Alternate which replay runs first so neither always sees the
		// other's garbage or warm allocator.
		var preds [][]core.ColumnPrediction
		var plain time.Duration
		runTraced := func() error {
			p, err := rep.replay(tr, i, a, &counts)
			preds = p
			return err
		}
		runPlain := func() error {
			t0 := time.Now()
			_, err := rep.replay(nil, i, b, nil)
			plain = time.Since(t0)
			return err
		}
		first, second := runTraced, runPlain
		if i%2 == 1 {
			first, second = runPlain, runTraced
		}
		if err := first(); err != nil {
			return nil, err
		}
		if err := second(); err != nil {
			return nil, err
		}
		plainPerTable = append(plainPerTable, ms(plain)/float64(len(b)))
		opsByID[i] = a
		seen = append(seen, a...)

		// The replay must decode exactly what the engine serves.
		out.attempted += len(a)
		want, err := env.eng.PredictBatchCtx(ctx, wires(a))
		if err != nil {
			return nil, fmt.Errorf("engine on replayed tables: %w", err)
		}
		for j := range a {
			if !slices.Equal(preds[j], want[j]) {
				out.failed++
			}
		}
	}
	out.spans = tr.spans

	byName := map[string][]float64{}
	var residual []float64
	for op, names := range opSelf(tr.spans) {
		n := float64(len(opsByID[op]))
		for span, metric := range replayLayers {
			byName[metric] = append(byName[metric], float64(names[span])/1e3/n)
		}
		var root Span
		for _, s := range tr.spans {
			if s.Op == op && s.Parent < 0 {
				root = s
			}
		}
		dur := float64(root.End - root.Start)
		residual = append(residual, float64(names["op"])/dur)
		tracedPerTable = append(tracedPerTable, dur/1e6/n)
	}
	for metric, vs := range byName {
		out.layers[metric] = median(vs)
	}
	t := float64(counts.tables)
	out.layers["graph.nodes"] = float64(counts.nodes) / t
	out.layers["graph.edges"] = float64(counts.edges) / t
	out.layers["graph.allocs"] = float64(counts.graphAllocs) / t
	out.layers["core.encode_allocs"] = float64(counts.encodeAllocs) / t
	out.layers["core.forward_allocs"] = float64(counts.forwardAllocs) / t
	out.layers["core.forward_mflop"] = counts.flops / t / 1e6
	out.layers["lm.text_hit_ratio"] = ratio(counts.textHits, counts.textMisses)
	out.layers["lm.token_hit_ratio"] = ratio(counts.tokenHits, counts.tokenMisses)
	out.layers["lm.tokens_per_text"] = float64(counts.tokens) / float64(counts.texts)
	out.layers["bench.trace_residual_frac"] = median(residual)
	out.layers["bench.trace_overhead_frac"] = median(tracedPerTable)/median(plainPerTable) - 1
	out.details["replay"] = map[string]any{
		"ops": env.ops, "tables_per_op": env.opTables, "tables": counts.tables,
		"traced_ms_per_table": tracedPerTable, "untraced_ms_per_table": plainPerTable,
		"residual_frac": residual, "largest_self_time": largest(out.layers),
		"note": "graph.build_us includes BuildGraph's own feature extraction; features.extract_us replays it as a child span, which the overhead includes. core.forward_mflop is computed from matrix shapes, not measured.",
	}

	if err := probeServer(ctx, env, seen, out); err != nil {
		return nil, err
	}
	if env.driver {
		tables, err := env.fresh(probeDriverSize)
		if err != nil {
			return nil, err
		}
		sc := newTimedScorer(env.eng)
		run, err := rescoreLake(ctx, sc, tables, "probe")
		if err != nil {
			return nil, err
		}
		out.attempted += len(tables)
		out.failed += run.failed
		addDriverLayers(out.layers, sc, []*lakeRun{run})
	}
	return out, nil
}

// ratio is the share of lookups that hit; 1 when there were no lookups,
// as nothing missed.
func ratio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 1
	}
	return float64(hits) / float64(hits+misses)
}

// largest names the replayed layer with the most self time per table.
func largest(layers map[string]float64) string {
	best, bestV := "", -1.0
	for _, metric := range replayLayers {
		if v := layers[metric]; v > bestV {
			best, bestV = metric, v
		}
	}
	return best
}

// addDriverLayers derives the batch-path metrics from timed re-score runs:
// occupancy is averaged over the runs' windows, weighted by their length,
// and parallel efficiency is the process's CPU time over the runs as a
// share of GOMAXPROCS × their wall time.
func addDriverLayers(layers map[string]float64, sc *timedScorer, runs []*lakeRun) {
	layers["infer.batch_ms"] = median(sc.batchMs())
	var idle, inflight, window float64
	var wall, cpu time.Duration
	for _, r := range runs {
		i, f := occupancy(sc.calls, r.lo, r.hi)
		w := float64(r.hi - r.lo)
		idle, inflight, window = idle+i*w, inflight+f*w, window+w
		wall += r.wall
		cpu += r.cpu
	}
	layers["rescore.idle_frac"] = idle / window
	layers["rescore.inflight_mean"] = inflight / window
	layers["infer.parallel_eff"] = cpu.Seconds() / (wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
}

// probeServer times /v1/predict round trips on already-replayed (so warm)
// tables against the engine's own time on the same table; server.self_ms
// is the difference.
func probeServer(ctx context.Context, env probeEnv, tables []*benchTable, out *probeOut) error {
	srv := env.srv
	if srv == nil {
		s, err := serve(env.eng)
		if err != nil {
			return err
		}
		defer func() { _ = s.stop() }() // a failed shutdown after measuring changes nothing measured
		srv = s
	}
	predictMs := make([]float64, len(tables))
	expected := make([][]core.ColumnPrediction, len(tables))
	for i, bt := range tables {
		var runs []float64
		for r := 0; r < predictRepeats; r++ {
			t0 := time.Now()
			got, err := env.eng.PredictBatchCtx(ctx, []*table.Table{bt.wire})
			runs = append(runs, ms(time.Since(t0)))
			if err != nil {
				return fmt.Errorf("engine predict: %w", err)
			}
			if expected[i] == nil {
				expected[i] = got[0]
			}
		}
		predictMs[i] = median(runs)
	}

	rng := rand.New(rand.NewSource(subSeed(env.seed, 900)))
	sched := poissonArrivals(rng, roundTripRate, 0, roundTrips)
	rtt := make([]float64, len(sched))
	late := make([]float64, len(sched))
	ok := make([]bool, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				if d := time.Until(start.Add(sched[i])); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				late[i] = ms(sent.Sub(start) - sched[i])
				k := i % len(tables)
				resp, err := postPredict(ctx, env.client, srv.url, tables[k].body)
				rtt[i] = ms(time.Since(sent))
				ok[i] = err == nil && sameColumns(resp.Columns, expected[k])
			}
		}()
	}
	wg.Wait()
	var self []float64
	for i := range sched {
		out.attempted++
		if !ok[i] {
			out.failed++
			continue
		}
		self = append(self, rtt[i]-predictMs[i%len(tables)])
	}
	out.layers["server.roundtrip_ms"] = median(rtt)
	out.layers["server.self_ms"] = median(self)
	out.layers["infer.predict_ms"] = median(predictMs)
	lat := make([]float64, len(sched))
	for i := range sched {
		lat[i] = late[i] + rtt[i]
	}
	out.paced = openSamples{latencyMs: lat, lateMs: late}
	out.details["server_probe"] = map[string]any{
		"round_trips": len(sched), "rate_per_s": roundTripRate, "tables": len(tables),
		"senders": runtime.NumCPU(), "predict_repeats": predictRepeats,
	}
	return nil
}

// postPredict sends one /v1/predict request and decodes a 200 response.
func postPredict(ctx context.Context, c *http.Client, url string, body []byte) (*server.PredictResponse, error) {
	raw, status, err := post(ctx, c, url+"/v1/predict", body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d", status)
	}
	var resp server.PredictResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

func post(ctx context.Context, c *http.Client, url string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	return do(c, req)
}

func do(c *http.Client, req *http.Request) ([]byte, int, error) {
	resp, err := c.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return raw, resp.StatusCode, err
}
