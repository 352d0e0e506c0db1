package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"github.com/sematype/pythagoras/internal/core"
	"github.com/sematype/pythagoras/internal/discovery"
	"github.com/sematype/pythagoras/internal/features"
	"github.com/sematype/pythagoras/internal/graph"
	"github.com/sematype/pythagoras/internal/infer"
	"github.com/sematype/pythagoras/internal/par"
	"github.com/sematype/pythagoras/internal/server"
	"github.com/sematype/pythagoras/internal/table"
)

// The layer spans of a replayed operation. "op" is the root; "bench.probe"
// covers the harness's own reads (allocation and cache counters) so they
// are not charged to a layer.
var replayLayers = map[string]string{
	"server.decode":    "server.decode_us",
	"graph.build":      "graph.build_us",
	"features.extract": "features.extract_us",
	"lm.encode":        "lm.encode_us",
	"core.encode":      "core.encode_us",
	"core.union":       "core.union_us",
	"core.forward":     "core.forward_us",
	"core.decode":      "core.decode_us",
	"server.encode":    "server.encode_us",
	"discovery.index":  "discovery.index_us",
	"discovery.search": "discovery.search_us",
}

// opCounts are the counters a traced replay takes at the layer boundaries.
type opCounts struct {
	tables, nodes, edges                     int
	graphAllocs, encodeAllocs, forwardAllocs uint64
	flops                                    float64
	textHits, textMisses                     uint64
	tokenHits, tokenMisses                   uint64
	texts, tokens                            int
}

// replayer runs one operation's tables through the public stage calls in
// the order the engine and the server make them: JSON decode → BuildGraph
// (features.ExtractNormalized replayed as a child span) → Encode (with
// Encoder.Encode over the node texts as a child span) → UnionPrepared →
// InferProbs → DecodePredictions → JSON encode → index write → search.
type replayer struct {
	model *core.Model
	eng   *infer.Engine
	index *discovery.SwapIndex
	ms    runtime.MemStats
}

func newReplayer(m *core.Model, eng *infer.Engine) *replayer {
	return &replayer{model: m, eng: eng, index: discovery.NewSwapIndex(0.3)}
}

// mallocs reads the process's allocation count under a bench.probe span.
func (r *replayer) mallocs(tr *tracer, op, parent int) uint64 {
	s := tr.begin(op, parent, "bench.probe")
	runtime.ReadMemStats(&r.ms)
	tr.end(s)
	return r.ms.Mallocs
}

// replay runs bts as one operation. With a nil tracer it makes exactly the
// stage calls and nothing else; with a tracer it also records spans and adds
// the boundary counters to c. It returns the decoded predictions per table.
func (r *replayer) replay(tr *tracer, op int, bts []*benchTable, c *opCounts) ([][]core.ColumnPrediction, error) {
	traced := tr != nil
	m, enc := r.model, r.model.Encoder()
	if traced {
		c.tables += len(bts)
	}
	root := tr.begin(op, -1, "op")

	s := tr.begin(op, root, "server.decode")
	reqs := make([]server.TableRequest, len(bts))
	for i, bt := range bts {
		if err := json.Unmarshal(bt.body, &reqs[i]); err != nil {
			return nil, fmt.Errorf("decode %s: %w", bt.id, err)
		}
	}
	tr.end(s)

	ps := make([]*core.Prepared, len(bts))
	for i, bt := range bts {
		gs := tr.begin(op, root, "graph.build")
		var a0 uint64
		if traced {
			f := tr.begin(op, gs, "features.extract")
			for _, col := range bt.wire.Columns {
				if col.Kind == table.KindNumeric {
					features.ExtractNormalized(col.NumValues)
				}
			}
			tr.end(f)
			a0 = r.mallocs(tr, op, gs)
		}
		g := m.BuildGraph(bt.wire)
		if traced {
			c.graphAllocs += r.mallocs(tr, op, gs) - a0
		}
		tr.end(gs)

		es := tr.begin(op, root, "core.encode")
		if traced {
			p := tr.begin(op, es, "bench.probe")
			before := enc.CacheStats()
			tr.end(p)
			ls := tr.begin(op, es, "lm.encode")
			for j, nt := range g.Types {
				if nt != graph.NodeNumericFeatures {
					enc.Encode(g.Texts[j])
				}
			}
			tr.end(ls)
			p = tr.begin(op, es, "bench.probe")
			after := enc.CacheStats()
			for j, nt := range g.Types {
				if nt != graph.NodeNumericFeatures {
					c.texts++
					c.tokens += len(enc.Tokenize(g.Texts[j]))
				}
			}
			tr.end(p)
			c.textHits += after.TextHits - before.TextHits
			c.textMisses += after.TextMisses - before.TextMisses
			c.tokenHits += after.TokenHits - before.TokenHits
			c.tokenMisses += after.TokenMisses - before.TokenMisses
			a0 = r.mallocs(tr, op, es)
		}
		ps[i] = m.Encode(bt.wire, g)
		if traced {
			c.encodeAllocs += r.mallocs(tr, op, es) - a0
			c.nodes += g.NumNodes()
			for et := graph.EdgeType(0); et < graph.NumEdgeTypes; et++ {
				c.edges += g.Edges[et].Len()
			}
		}
		tr.end(es)
	}

	out := make([][]core.ColumnPrediction, len(bts))
	for _, b := range par.Bounds(len(bts), r.eng.Workers(), r.eng.MaxBatch()) {
		lo, hi := b[0], b[1]
		us := tr.begin(op, root, "core.union")
		p := ps[lo]
		if hi-lo > 1 {
			p = core.UnionPrepared(ps[lo:hi])
		}
		tr.end(us)

		fs := tr.begin(op, root, "core.forward")
		var a0 uint64
		if traced {
			a0 = r.mallocs(tr, op, fs)
		}
		probs, targets := m.InferProbs(p)
		if traced {
			c.forwardAllocs += r.mallocs(tr, op, fs) - a0
			c.flops += forwardFlops(m, p, len(targets))
		}
		tr.end(fs)

		ds := tr.begin(op, root, "core.decode")
		row := 0
		for i := lo; i < hi; i++ {
			n := len(ps[i].Graph.TargetNodes())
			out[i] = m.DecodePredictions(p, probs, targets, row, row+n, bts[i].wire)
			row += n
		}
		tr.end(ds)
	}

	s = tr.begin(op, root, "server.encode")
	for i, bt := range bts {
		resp := server.PredictResponse{Table: bt.id}
		for _, p := range out[i] {
			resp.Columns = append(resp.Columns, server.ColumnResponse{
				Header: p.Header, Kind: p.Kind.String(), Type: p.Type, Confidence: p.Confidence,
			})
		}
		if _, err := json.Marshal(resp); err != nil {
			return nil, fmt.Errorf("encode %s: %w", bt.id, err)
		}
	}
	tr.end(s)

	s = tr.begin(op, root, "discovery.index")
	for i, bt := range bts {
		r.index.AddPredictions(bt.wire, out[i])
	}
	tr.end(s)

	s = tr.begin(op, root, "discovery.search")
	for i := range bts {
		if len(out[i]) > 0 {
			r.index.Current().TablesWithAll(out[i][0].Type)
		}
	}
	tr.end(s)
	tr.end(root)
	return out, nil
}

// forwardFlops counts the floating-point operations of one inference
// forward over p from the model's matrix shapes: matrix products at two
// operations per multiply-add, element-wise adds, scales and activations at
// one, softmax at three per logit. It is computed, not measured; a
// parameter it does not find adds nothing.
func forwardFlops(m *core.Model, p *core.Prepared, targets int) float64 {
	params := m.Params()
	n := float64(p.Graph.NumNodes())
	var f float64
	if ncf := float64(len(p.NCFIdx)); ncf > 0 && params.Has("subnet.w") {
		w := params.Get("subnet.w")
		f += 2*ncf*float64(w.Rows*w.Cols) + ncf*float64(w.Cols) + n*float64(w.Cols)
	}
	for l := 0; params.Has(fmt.Sprintf("gnn.conv%d.self.w", l)); l++ {
		w := params.Get(fmt.Sprintf("gnn.conv%d.self.w", l))
		in, out := float64(w.Rows), float64(w.Cols)
		f += 2 * n * in * out
		for et := graph.EdgeType(0); et < graph.NumEdgeTypes; et++ {
			if e := float64(p.Graph.Edges[et].Len()); e > 0 {
				f += 2*n*in*out + e*out + 2*n*out // h×W, scatter, mean scale, sum
			}
		}
		f += 2 * n * out // bias, ReLU
	}
	if params.Has("classifier.w") {
		w := params.Get("classifier.w")
		t := float64(targets)
		f += 2*t*float64(w.Rows*w.Cols) + 5*t*float64(w.Cols) // product, bias, temperature, softmax
	}
	return f
}

// timedScorer is the rescore.Scorer the benchmark hands the driver: the
// engine, with each batch call's interval recorded on a shared clock.
type timedScorer struct {
	eng   *infer.Engine
	t0    time.Time
	mu    sync.Mutex
	calls []interval
}

func newTimedScorer(eng *infer.Engine) *timedScorer {
	return &timedScorer{eng: eng, t0: time.Now()}
}

func (s *timedScorer) now() int64 { return int64(time.Since(s.t0)) }

func (s *timedScorer) PredictBatchCtx(ctx context.Context, ts []*table.Table) ([][]core.ColumnPrediction, error) {
	a := s.now()
	out, err := s.eng.PredictBatchCtx(ctx, ts)
	b := s.now()
	s.mu.Lock()
	s.calls = append(s.calls, interval{a, b})
	s.mu.Unlock()
	return out, err
}

// batchMs returns the durations of the recorded calls in milliseconds.
func (s *timedScorer) batchMs() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]float64, len(s.calls))
	for i, c := range s.calls {
		out[i] = float64(c.hi-c.lo) / float64(time.Millisecond)
	}
	return out
}

// phase measures the runtime over a workload's measured phase: heap
// allocations, the GC's share of CPU time, and the peak resident set.
type phase struct {
	rss             *rssSampler
	mallocs         uint64
	gcCPU, totalCPU float64
}

// phaseStats is what a phase measured.
type phaseStats struct {
	allocsPerTable, gcFrac, peakRSSMB float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() (mallocs uint64, gcCPU, totalCPU float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := append([]metrics.Sample(nil), cpuSamples...)
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		gcCPU, totalCPU = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return ms.Mallocs, gcCPU, totalCPU
}

func startPhase() *phase {
	p := &phase{rss: startRSS()}
	p.mallocs, p.gcCPU, p.totalCPU = readRuntime()
	return p
}

// stop ends the phase, which processed the given number of tables.
func (p *phase) stop(tables int) phaseStats {
	mallocs, gcCPU, totalCPU := readRuntime()
	st := phaseStats{peakRSSMB: p.rss.peakMB()}
	if tables > 0 {
		st.allocsPerTable = float64(mallocs-p.mallocs) / float64(tables)
	}
	if d := totalCPU - p.totalCPU; d > 0 {
		st.gcFrac = (gcCPU - p.gcCPU) / d
	}
	return st
}
