package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sematype/pythagoras/internal/core"
	"github.com/sematype/pythagoras/internal/infer"
	"github.com/sematype/pythagoras/internal/server"
)

// Online workload shape. The open-loop rate is about half the closed-loop
// rate measured at the commit that introduced this benchmark on 2 CPUs, so
// the open phase measures latency below saturation; the closed phase
// measures the saturated rate.
const (
	onlineTrainTables = 100
	onlinePoolTables  = 64
	onlineRate        = 180.0 // open-loop requests per second
	onlineOpenShare   = 0.6   // of --seconds; the closed loop gets the rest
	// Zipf skew over the pool: P(k) ∝ (onlineZipfV+k)^-onlineZipfS gives
	// the hottest table about 5% of the requests, so the latency does not
	// hinge on which one table a seed makes hot.
	onlineZipfS = 1.1
	onlineZipfV = 10
	batchTables = 8
	// Request mix: of every mixCycle requests, one is a /v1/index and one a
	// /v1/search, the rest /v1/predict; in the closed loop one more is a
	// /v1/predict-batch. Bulk callers wait for their reply, so batches are
	// closed-loop traffic; the open loop models independent interactive
	// users. A fixed cycle, not a draw per request, so every seed sends the
	// same mix.
	mixCycle = 20
	// The open phase runs until it has the 1000 samples a p99 of
	// /v1/predict needs.
	onlineP99 = 0.99
)

type opKind int

const (
	opPredict opKind = iota
	opBatch
	opIndex
	opSearch
)

var opNames = [...]string{"predict", "predict-batch", "index", "search"}

// onlineOp is one request: the pool tables it carries, or the type it
// searches for.
type onlineOp struct {
	kind   opKind
	tables []int
	search int
}

// opGen draws requests: the mix above, pool tables with Zipf skew, search
// types with Zipf skew over the pool's predicted types.
type opGen struct {
	n            int  // requests drawn so far
	bulk         bool // include /v1/predict-batch
	tables, typs zipf
}

func newOpGen(seed int64, poolSize, types int, bulk bool) *opGen {
	rng := rand.New(rand.NewSource(seed))
	return &opGen{bulk: bulk, tables: newZipf(rng, onlineZipfS, onlineZipfV, poolSize), typs: newZipf(rng, onlineZipfS, onlineZipfV, types)}
}

func (g *opGen) next() onlineOp {
	g.n++
	switch g.n % mixCycle {
	case 0:
		if !g.bulk {
			return onlineOp{kind: opPredict, tables: []int{g.tables.next()}}
		}
		ts := make([]int, batchTables)
		for i := range ts {
			ts[i] = g.tables.next()
		}
		return onlineOp{kind: opBatch, tables: ts}
	case mixCycle / 3:
		return onlineOp{kind: opIndex, tables: []int{g.tables.next()}}
	case 2 * mixCycle / 3:
		return onlineOp{kind: opSearch, search: g.typs.next()}
	default:
		return onlineOp{kind: opPredict, tables: []int{g.tables.next()}}
	}
}

// openSchedule is the open-loop phase: Poisson send times and their
// requests, both from seed. It runs at least dur and until it holds
// minPredicts /v1/predict requests.
func openSchedule(seed int64, poolSize, types int, dur time.Duration, minPredicts int) ([]time.Duration, []onlineOp) {
	// Two of every mixCycle requests are not /v1/predict.
	minCount := (minPredicts*mixCycle + mixCycle - 3) / (mixCycle - 2)
	at := poissonArrivals(rand.New(rand.NewSource(seed)), onlineRate, dur, minCount)
	gen := newOpGen(subSeed(seed, 1), poolSize, types, false)
	ops := make([]onlineOp, len(at))
	for i := range ops {
		ops[i] = gen.next()
	}
	return at, ops
}

type onlineEnv struct {
	tr       *trained
	eng      *infer.Engine
	srv      *served
	client   *http.Client
	pool     []*benchTable
	expected [][]core.ColumnPrediction
	types    []string // predicted types of the pool, most frequent first
	indexBod [][]byte // /v1/index bodies: the request with the table's id
	poolIDs  map[string]bool
}

// setupOnline trains the served model, serves it, computes every pool
// table's expected columns through the engine (which also warms the encoder
// cache for the pool), and sends each pool table once over HTTP.
func setupOnline(ctx context.Context, seed int64, traced bool) (*onlineEnv, error) {
	c := sportsCorpus(servedCorpusSeed, onlineTrainTables)
	trainIdx, valIdx, _ := splitCorpus(c, servedCorpusSeed)
	tr, eng, err := trainServed(ctx, c, trainIdx, valIdx, traced)
	if err != nil {
		return nil, err
	}
	env := &onlineEnv{tr: tr, eng: eng, client: newClient(runtime.NumCPU())}
	if env.pool, err = benchTables(sportsCorpus(subSeed(seed, 3), onlinePoolTables).Tables, "pool"); err != nil {
		return nil, err
	}
	if env.expected, err = env.eng.PredictBatchCtx(ctx, wires(env.pool)); err != nil {
		return nil, fmt.Errorf("expected columns: %w", err)
	}
	freq := map[string]int{}
	env.poolIDs = map[string]bool{}
	for i, bt := range env.pool {
		for _, p := range env.expected[i] {
			freq[p.Type]++
		}
		req := bt.req
		req.ID = bt.id
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		env.indexBod = append(env.indexBod, body)
		env.poolIDs[bt.id] = true
	}
	for st := range freq {
		env.types = append(env.types, st)
	}
	sort.Slice(env.types, func(i, j int) bool {
		if freq[env.types[i]] != freq[env.types[j]] {
			return freq[env.types[i]] > freq[env.types[j]]
		}
		return env.types[i] < env.types[j]
	})
	if env.srv, err = serve(env.eng); err != nil {
		return nil, err
	}
	for i := range env.pool {
		op := onlineOp{kind: opPredict, tables: []int{i}}
		st := env.send(ctx, op)
		env.verify(op, &st)
		if !st.ok {
			env.srv.stop()
			return nil, fmt.Errorf("warm-up request for %s: status %d, %v", env.pool[i].id, st.status, st.err)
		}
	}
	return env, nil
}

// reqStatus is one request's outcome. done is taken when the body has been
// read; the body is checked after the phase, off the senders' path.
type reqStatus struct {
	status int
	err    error
	done   time.Time
	raw    []byte
	ok     bool // 2xx and correct; set by verify
}

// send sends op and reads the response.
func (e *onlineEnv) send(ctx context.Context, op onlineOp) reqStatus {
	var raw []byte
	var code int
	var err error
	switch op.kind {
	case opPredict:
		raw, code, err = post(ctx, e.client, e.srv.url+"/v1/predict", e.pool[op.tables[0]].body)
	case opBatch:
		var b bytes.Buffer
		b.WriteString(`{"tables":[`)
		for i, t := range op.tables {
			if i > 0 {
				b.WriteByte(',')
			}
			b.Write(e.pool[t].body)
		}
		b.WriteString("]}")
		raw, code, err = post(ctx, e.client, e.srv.url+"/v1/predict-batch", b.Bytes())
	case opIndex:
		raw, code, err = post(ctx, e.client, e.srv.url+"/v1/index", e.indexBod[op.tables[0]])
	case opSearch:
		var req *http.Request
		req, err = http.NewRequestWithContext(ctx, http.MethodGet,
			e.srv.url+"/v1/search?type="+url.QueryEscape(e.types[op.search]), nil)
		if err == nil {
			raw, code, err = do(e.client, req)
		}
	}
	return reqStatus{status: code, err: err, done: time.Now(), raw: raw}
}

// verify checks a response against the expected columns and drops its body.
func (e *onlineEnv) verify(op onlineOp, st *reqStatus) {
	st.ok = st.err == nil && st.status/100 == 2 && e.check(op, st.raw)
	st.raw = nil
}

func (e *onlineEnv) check(op onlineOp, raw []byte) bool {
	switch op.kind {
	case opPredict, opIndex:
		var resp server.PredictResponse
		if json.Unmarshal(raw, &resp) != nil {
			return false
		}
		t := op.tables[0]
		if op.kind == opIndex && (!resp.Indexed || resp.Table != e.pool[t].id) {
			return false
		}
		return sameColumns(resp.Columns, e.expected[t])
	case opBatch:
		var resp server.BatchResponse
		if json.Unmarshal(raw, &resp) != nil || len(resp.Results) != len(op.tables) {
			return false
		}
		for i, t := range op.tables {
			if !sameColumns(resp.Results[i].Columns, e.expected[t]) {
				return false
			}
		}
		return true
	default:
		var resp server.SearchResponse
		if json.Unmarshal(raw, &resp) != nil || len(resp.Types) != 1 || resp.Types[0] != e.types[op.search] {
			return false
		}
		for _, id := range resp.Tables {
			if !e.poolIDs[id] {
				return false
			}
		}
		return true
	}
}

// tally counts request outcomes for the report.
type tally struct {
	sent, ok, status2xx, status429, status5xx, other, transport, mismatch int
	byKind                                                                [4]int
}

func (t *tally) add(op onlineOp, st reqStatus) {
	t.sent++
	t.byKind[op.kind]++
	switch {
	case st.err != nil:
		t.transport++
	case st.status == http.StatusTooManyRequests:
		t.status429++
	case st.status >= 500:
		t.status5xx++
	case st.status/100 != 2:
		t.other++
	default:
		t.status2xx++
		if st.ok {
			t.ok++
		} else {
			t.mismatch++
		}
	}
}

func (t *tally) failed() int { return t.sent - t.ok }

func (t *tally) report() map[string]any {
	kinds := map[string]int{}
	for k, n := range t.byKind {
		kinds[opNames[k]] = n
	}
	return map[string]any{
		"sent": t.sent, "ok": t.ok, "2xx": t.status2xx, "429": t.status429, "5xx": t.status5xx,
		"other_status": t.other, "transport_errors": t.transport, "mismatches": t.mismatch, "by_kind": kinds,
	}
}

// openLoop sends the schedule from at most nproc sender goroutines over at
// most nproc connections. Latency runs from the scheduled send, so a stall
// also charges the requests queued behind it; a failed request counts as
// taking the server's full request timeout, over any latency limit.
func (e *onlineEnv) openLoop(ctx context.Context, at []time.Duration, ops []onlineOp) (predictMs, lateMs []float64, t tally, tables int) {
	type rec struct {
		sent time.Time
		st   reqStatus
	}
	recs := make([]rec, len(at))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(at) {
					return
				}
				if d := time.Until(start.Add(at[i])); d > 0 {
					time.Sleep(d)
				}
				recs[i].sent = time.Now()
				recs[i].st = e.send(ctx, ops[i])
			}
		}()
	}
	wg.Wait()
	for i := range recs {
		r := &recs[i]
		e.verify(ops[i], &r.st)
		t.add(ops[i], r.st)
		tables += len(ops[i].tables)
		lateMs = append(lateMs, ms(r.sent.Sub(start)-at[i]))
		if ops[i].kind != opPredict {
			continue
		}
		lat := ms(r.st.done.Sub(start) - at[i])
		if !r.st.ok {
			lat = ms(30 * time.Second)
		}
		predictMs = append(predictMs, lat)
	}
	return predictMs, lateMs, t, tables
}

// closedLoop runs nproc clients, each sending its next request when the
// previous one returns, for dur. It returns the requests per second that
// completed in time, 2xx, correct, and within server.DefaultSLOLatency.
func (e *onlineEnv) closedLoop(ctx context.Context, seed int64, dur time.Duration) (rps float64, t tally, tables int) {
	type rec struct {
		op   onlineOp
		sent time.Time
		st   reqStatus
	}
	gen := newOpGen(seed, len(e.pool), len(e.types), true)
	var mu sync.Mutex // guards gen
	clients := make([][]rec, runtime.NumCPU())
	var wg sync.WaitGroup
	deadline := time.Now().Add(dur)
	for w := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				op := gen.next()
				mu.Unlock()
				sent := time.Now()
				clients[w] = append(clients[w], rec{op: op, sent: sent, st: e.send(ctx, op)})
			}
		}()
	}
	wg.Wait()
	good := 0
	for _, recs := range clients {
		for i := range recs {
			r := &recs[i]
			e.verify(r.op, &r.st)
			t.add(r.op, r.st)
			tables += len(r.op.tables)
			if r.st.ok && !r.st.done.After(deadline) && r.st.done.Sub(r.sent) <= server.DefaultSLOLatency {
				good++
			}
		}
	}
	return float64(good) / dur.Seconds(), t, tables
}

func runOnline(ctx context.Context, cfg config) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}, details: map[string]any{}}
	var env *onlineEnv
	var setups, trains []float64
	for i := 0; i < setupRepeats(cfg); i++ {
		if env != nil {
			if err := env.srv.stop(); err != nil {
				return nil, fmt.Errorf("stop set-up server: %w", err)
			}
			env = nil
		}
		releaseMemory()
		t0 := time.Now()
		e, err := setupOnline(ctx, cfg.seed, cfg.trace)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		trains = append(trains, e.tr.wall.Seconds())
		env = e
	}
	// A failed shutdown after measuring does not change what was measured.
	defer func() { _ = env.srv.stop() }()

	openDur := time.Duration(onlineOpenShare * float64(cfg.duration()))
	at, ops := openSchedule(subSeed(cfg.seed, 4), len(env.pool), len(env.types), openDur,
		minTailSamples(onlineP99))
	ph := startPhase()
	cache := env.eng.Model().Encoder().CacheStats()
	predictMs, lateMs, openT, openTables := env.openLoop(ctx, at, ops)
	rps, closedT, closedTables := env.closedLoop(ctx, subSeed(cfg.seed, 5), cfg.duration()-openDur)
	stats := ph.stop(openTables + closedTables)
	o.details["peak_rss_mb"] = stats.peakRSSMB
	o.details["property"] = textHits(cache, env.eng.Model().Encoder().CacheStats())
	env.client.CloseIdleConnections()

	o.attempted = openT.sent + closedT.sent
	o.failed = openT.failed() + closedT.failed()
	tailMs, tailLevel := tail(predictMs, onlineP99)
	o.details["setup_s"] = setups
	o.details["train_s"] = trains
	o.details["open_loop"] = map[string]any{
		"rate_per_s": onlineRate, "scheduled": len(at), "predict_samples": len(predictMs),
		"tail_ms": tailMs, "tail_level": tailLevel, "p95_ms": p95(predictMs), "requests": openT.report(),
	}
	o.details["closed_loop"] = map[string]any{"clients": runtime.NumCPU(), "requests": closedT.report()}

	if !cfg.trace {
		o.metrics["setup_s"] = median(setups)
		o.metrics["train_s"] = median(trains)
		o.metrics["p50_ms"] = median(predictMs)
		o.metrics["ops_per_s"] = rps
		o.metrics["numeric_wf1"] = numericWF1(env.tr.model, env.pool, env.expected)
		return o, nil
	}

	next := 0
	fresh := func(n int) ([]*benchTable, error) {
		out := make([]*benchTable, n)
		for i := range out {
			out[i] = env.pool[next%len(env.pool)]
			next++
		}
		return out, nil
	}
	probe, err := probeLayers(ctx, probeEnv{
		seed: cfg.seed, model: env.tr.model, eng: env.eng, srv: env.srv, client: env.client,
		fresh: fresh, ops: 48, opTables: 1, driver: true,
	})
	if err != nil {
		return nil, err
	}
	return tracedOutcome(o, probe, []*trained{env.tr}, stats, openSamples{latencyMs: predictMs, lateMs: lateMs}), nil
}

// p95 is recorded next to the gated p99: it has ~70 samples beyond it
// where the p99 has about a dozen.
func p95(xs []float64) float64 {
	v, _ := percentile(xs, 0.95)
	return v
}
