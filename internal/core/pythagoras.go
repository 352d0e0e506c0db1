// Package core implements the Pythagoras model (paper §3): a frozen
// language model producing initial node representations, a subnetwork
// embedding the 192 statistical features of numeric columns, a
// heterogeneous GNN exchanging contextual information along the table
// graph's typed edges, and a final classification layer over the corpus's
// semantic types. Training follows §4.2: Adam with a linear-decay schedule
// and no warm-up, cross-entropy loss, early stopping on validation
// weighted F1, and checkpoint restoration of the best epoch.
package core

import (
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"github.com/sematype/pythagoras/internal/atomicfile"
	"github.com/sematype/pythagoras/internal/autodiff"
	"github.com/sematype/pythagoras/internal/colfeat"
	"github.com/sematype/pythagoras/internal/data"
	"github.com/sematype/pythagoras/internal/eval"
	"github.com/sematype/pythagoras/internal/faultinject"
	"github.com/sematype/pythagoras/internal/features"
	"github.com/sematype/pythagoras/internal/gnn"
	"github.com/sematype/pythagoras/internal/graph"
	"github.com/sematype/pythagoras/internal/lm"
	"github.com/sematype/pythagoras/internal/nn"
	"github.com/sematype/pythagoras/internal/obs"
	"github.com/sematype/pythagoras/internal/par"
	"github.com/sematype/pythagoras/internal/table"
	"github.com/sematype/pythagoras/internal/tensor"
)

// Config controls model geometry and training.
type Config struct {
	// Encoder is the frozen LM shared by all graph nodes. Required for
	// training. Optional for Load, which builds it from the checkpoint's
	// recorded config when nil; a supplied one must match that config.
	Encoder *lm.Encoder
	// GNNLayers stacks that many heterogeneous conv layers (default 2; one
	// layer injects all direct context, the second composes it — e.g. a
	// numeric column seeing a text column that has already absorbed the
	// table name).
	GNNLayers int
	// HiddenDim is the GNN hidden width (0 = the encoder width). Widening
	// it beyond the encoder relieves the classifier bottleneck when the
	// type vocabulary is large.
	HiddenDim int
	// LearningRate is Adam's initial rate, decayed linearly to zero over
	// Epochs with no warm-up (paper: 1e-5 at BERT scale; our default 3e-3
	// suits the smaller default width). TrainCtx requires a positive finite
	// rate and at least one epoch.
	LearningRate float64
	Epochs       int
	// BatchSize is the number of tables whose graphs are unioned per step.
	BatchSize int
	// Patience is the early-stopping patience in epochs (<= 0 selects the
	// default of 30; to disable early stopping set Patience >= Epochs).
	Patience int
	// Dropout is the dropout probability, in [0, 1).
	Dropout float64
	Seed    int64
	// TrainWorkers bounds the trainer's parallelism: the prepare fan-out,
	// each optimizer step's data-parallel forward/backward passes, gradient
	// merge and Adam update, and validation scoring between epochs (0 or
	// negative = NumCPU, 1 = serial). The trained parameters are bit-identical at every worker
	// count — the trainer's decomposition and gradient-merge order do not
	// depend on it (DESIGN.md §10).
	TrainWorkers int
	// Faults, when non-nil, arms fault-injection points at the trainer's
	// stage boundaries (prepare/step/merge/val) — test support for the
	// cancellation chaos suite, never set in production.
	Faults *faultinject.Set
	// Graph carries the ablation switches (Table 4) and serialization
	// options.
	Graph graph.BuildOptions
	// PlainLMStates disables the enriched initial column embeddings
	// (frozen char-profile projection + mean token embedding added to the
	// LM CLS vector). The paper's footnote 3 leaves the initial embedding
	// method open; the enrichment compensates for the pseudo-BERT being a
	// weaker feature extractor than real BERT (DESIGN.md §2).
	PlainLMStates bool
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
	// Metrics, when set, receives per-epoch training telemetry through the
	// same registry the serving path uses (DESIGN.md §8): train.epoch,
	// train.loss and train.val.weighted_f1 gauges, the train.epoch.seconds
	// histogram and the train.steps counter.
	Metrics *obs.Registry
}

// DefaultConfig returns the training configuration used by the experiment
// harness at reduced scale.
func DefaultConfig(enc *lm.Encoder) Config {
	return Config{
		Encoder:      enc,
		GNNLayers:    2,
		LearningRate: 1e-2,
		Epochs:       150,
		BatchSize:    8,
		Patience:     30,
		Dropout:      0.1,
		Seed:         1,
	}
}

// Model is a trained Pythagoras classifier.
type Model struct {
	cfg        Config
	enc        *lm.Encoder
	params     *nn.Params
	subnet     *nn.Linear // features.Dim → hidden (the paper's subnetwork)
	stack      *gnn.Stack
	classifier *nn.Linear
	types      []string
	labelIndex map[string]int
	// featMean/featStd standardize the 192 statistical features, fitted on
	// the training split (and persisted with the model).
	featMean, featStd []float64
	// lmMean/lmStd whiten the frozen initial node states: CLS vectors share
	// a large common component (CLS token + layer-norm geometry) that
	// drowns the discriminative directions; per-dim standardization fitted
	// on the training split restores them. Persisted with the model.
	lmMean, lmStd []float64
	// temperature is the calibrated softmax temperature (0 = uncalibrated,
	// treated as 1). See CalibrateTemperature.
	temperature float64
	// drift is the training-time baseline (SetDriftBaseline). Persisted.
	drift obs.DriftBaseline
	// tapePool recycles tapes (and their op/arena/Var storage) across
	// forwards: a gradient-free forward re-runs the same shapes over and
	// over, so the second call on a pooled tape allocates nothing. Outputs
	// are cloned out of the arena before the tape is returned (see
	// inferTape/releaseTape).
	tapePool sync.Pool
}

// inferTape takes a reusable tape from the pool (or builds a fresh one).
func (m *Model) inferTape() *autodiff.Tape {
	if t, ok := m.tapePool.Get().(*autodiff.Tape); ok {
		return t
	}
	return autodiff.NewTape()
}

// releaseTape recycles the tape's storage and pools it. Every matrix the
// forward produced becomes invalid — callers must have cloned anything they
// return.
func (m *Model) releaseTape(t *autodiff.Tape) {
	t.Reset()
	m.tapePool.Put(t)
}

// stateDim returns the width of initial node states: the LM CLS vector
// alone (PlainLMStates), or CLS ‖ char-profile ‖ mean-token-embedding —
// block concatenation keeps each frozen signal separable for the first GNN
// layer, mirroring Sherlock's grouped subnetworks (DESIGN.md §5).
func (m *Model) stateDim() int {
	if m.cfg.PlainLMStates {
		return m.enc.Dim()
	}
	return 2*m.enc.Dim() + colfeat.CharProfileDim
}

// Types returns the semantic-type vocabulary (class index order).
func (m *Model) Types() []string { return m.types }

// Params exposes the trainable parameters (persistence, inspection).
func (m *Model) Params() *nn.Params { return m.params }

// Encoder exposes the frozen LM encoder (observability: its cache gauges
// are registered alongside the inference engine's stage metrics).
func (m *Model) Encoder() *lm.Encoder { return m.enc }

// newModel builds an untrained model for the vocabulary.
func newModel(cfg Config, types []string) *Model {
	if cfg.Encoder == nil {
		panic("core: Config.Encoder is required")
	}
	if cfg.GNNLayers <= 0 {
		cfg.GNNLayers = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	hidden := cfg.Encoder.Dim()
	p := nn.NewParams()
	m := &Model{
		cfg:    cfg,
		enc:    cfg.Encoder,
		params: p,
		types:  append([]string(nil), types...),
	}
	m.labelIndex = make(map[string]int, len(types))
	for i, st := range m.types {
		m.labelIndex[st] = i
	}
	if cfg.HiddenDim > 0 {
		hidden = cfg.HiddenDim
	}
	stateDim := m.stateDim()
	m.subnet = nn.NewLinear(p, "subnet", features.Dim, stateDim, rng)
	dims := make([]int, cfg.GNNLayers+1)
	dims[0] = stateDim
	for i := 1; i < len(dims); i++ {
		dims[i] = hidden
	}
	m.stack = gnn.NewStack(p, "gnn", dims, rng)
	m.classifier = nn.NewLinear(p, "classifier", hidden, len(types), rng)
	return m
}

// Prepared caches everything per table that does not change across epochs:
// the graph, the frozen-LM states of text-bearing nodes, and the raw
// feature rows of V_ncf nodes. It is the unit of work flowing between the
// staged-inference pipeline's Encode and Forward stages (internal/infer):
// Prepared values are immutable once built and may be unioned into batches.
type Prepared struct {
	Graph *graph.Graph
	// LMStates is NumNodes×stateDim; V_ncf rows are zero (they are filled
	// by the subnetwork inside the tape).
	LMStates *tensor.Matrix
	// FeatRows is len(NCFIdx)×features.Dim.
	FeatRows *tensor.Matrix
	// NCFIdx lists the graph node indices of V_ncf nodes, aligned with
	// FeatRows rows.
	NCFIdx []int
}

// BuildGraph is stage 1 of the inference pipeline: it converts a table into
// the heterogeneous table graph under the model's vocabulary and graph
// options. It is a pure function of its inputs and safe for concurrent use.
func (m *Model) BuildGraph(t *table.Table) *graph.Graph {
	return graph.Build(t, m.labelIndex, m.cfg.Graph)
}

// Encode is stage 2 of the inference pipeline: it fills the frozen-LM node
// states (plus the enriched char-profile/token-mean blocks) and the
// standardized feature rows for a graph built from t. Safe for concurrent
// use — the encoder cache is internally synchronized and the model's fitted
// scalings are read-only after training.
func (m *Model) Encode(t *table.Table, g *graph.Graph) *Prepared {
	nNCF := 0
	for _, nt := range g.Types {
		if nt == graph.NodeNumericFeatures {
			nNCF++
		}
	}
	p := &Prepared{
		Graph:    g,
		LMStates: tensor.New(g.NumNodes(), m.stateDim()),
		FeatRows: tensor.New(nNCF, features.Dim),
		NCFIdx:   make([]int, 0, nNCF),
	}
	cells := cellScratches.Get().(*cellScratch)
	defer cellScratches.Put(cells)
	for i, nt := range g.Types {
		if nt == graph.NodeNumericFeatures {
			copy(p.FeatRows.Row(len(p.NCFIdx)), g.Feats[i])
			p.NCFIdx = append(p.NCFIdx, i)
			continue
		}
		row := p.LMStates.Row(i)
		// The float32→float64 tape boundary: frozen-encoder output widens
		// exactly once, here, as it enters float64 training state.
		for j, x := range m.enc.Encode(g.Texts[i]) {
			row[j] = float64(x)
		}
		if !m.cfg.PlainLMStates {
			m.fillRichBlocks(row, cells.values(t, g.Meta[i].ColIndex), &cells.tokens)
		}
	}
	m.standardize(p.FeatRows)
	m.whitenStates(p)
	return p
}

// cellScratch holds the storage Encode reuses to render a node's cells and
// tokenize them for the rich blocks; it is pooled across calls, so a warm
// Encode allocates nothing per cell.
type cellScratch struct {
	buf    []byte   // one numeric column's cells, rendered back to back
	ends   []int    // the end of each cell in buf
	cells  []string // the cells of the current node
	tokens lm.TokenBuf
}

var cellScratches = sync.Pool{New: func() any { return new(cellScratch) }}

// values returns the cells of column ci as table.Column.ValueStrings(0)
// renders them, or the table name for ci < 0. A numeric column's cells are
// rendered into one string, so a column costs one allocation rather than
// one per cell; the result is valid until the next call.
func (sc *cellScratch) values(t *table.Table, ci int) []string {
	if ci < 0 {
		sc.cells = append(sc.cells[:0], t.Name)
		return sc.cells
	}
	c := t.Columns[ci]
	if c.Kind != table.KindNumeric {
		return c.TextValues
	}
	sc.buf, sc.ends = sc.buf[:0], sc.ends[:0]
	for _, v := range c.NumValues {
		sc.buf = table.AppendNumber(sc.buf, v)
		sc.ends = append(sc.ends, len(sc.buf))
	}
	all := string(sc.buf)
	sc.cells = sc.cells[:0]
	start := 0
	for _, end := range sc.ends {
		sc.cells = append(sc.cells, all[start:end])
		start = end
	}
	return sc.cells
}

// Prepare runs stages 1–2 (BuildGraph + Encode) on one table.
func (m *Model) Prepare(t *table.Table) *Prepared {
	return m.Encode(t, m.BuildGraph(t))
}

// whitenStates applies the fitted node-state standardization in place
// (no-op before fitScalings runs). V_ncf rows stay zero — they are filled
// by the subnetwork inside the tape.
func (m *Model) whitenStates(p *Prepared) {
	if m.lmMean == nil {
		return
	}
	for i, nt := range p.Graph.Types {
		if nt == graph.NodeNumericFeatures {
			continue
		}
		row := p.LMStates.Row(i)
		for j := range row {
			row[j] = (row[j] - m.lmMean[j]) / m.lmStd[j]
		}
	}
}

// fitScalings fits the feature and node-state standardizations on the
// prepared training tables, summing rows in table order, and applies both
// to those tables in place. V_ncf nodes carry no frozen state, so the state
// fit skips their rows.
func (m *Model) fitScalings(ps []*Prepared) {
	m.featMean, m.featStd = nn.FitStandardization(features.Dim, func(visit func([]float64)) {
		for _, p := range ps {
			for i := 0; i < p.FeatRows.Rows; i++ {
				visit(p.FeatRows.Row(i))
			}
		}
	})
	m.lmMean, m.lmStd = nn.FitStandardization(m.stateDim(), func(visit func([]float64)) {
		for _, p := range ps {
			for i, nt := range p.Graph.Types {
				if nt != graph.NodeNumericFeatures {
					visit(p.LMStates.Row(i))
				}
			}
		}
	})
	for _, p := range ps {
		m.standardize(p.FeatRows)
		m.whitenStates(p)
	}
}

// fillRichBlocks writes the char-profile and mean-token-embedding blocks
// of a node's initial state (the CLS block is already in place).
func (m *Model) fillRichBlocks(row []float64, vals []string, tokens *lm.TokenBuf) {
	encDim := m.enc.Dim()
	// block 2: character profile
	colfeat.CharProfileInto(row[encDim:encDim+colfeat.CharProfileDim], vals)
	// block 3: mean token embedding
	meanBlock := row[encDim+colfeat.CharProfileDim:]
	count := 0
	for _, v := range vals {
		count += m.enc.AddTokenEmbeddings(meanBlock, v, tokens)
	}
	if count > 0 {
		inv := 1 / float64(count)
		for i := range meanBlock {
			meanBlock[i] *= inv
		}
	}
}

// standardize applies the fitted feature scaling in place (no-op before
// fitScalings runs).
func (m *Model) standardize(rows *tensor.Matrix) {
	if m.featMean == nil {
		return
	}
	for i := 0; i < rows.Rows; i++ {
		row := rows.Row(i)
		for j := range row {
			row[j] = (row[j] - m.featMean[j]) / m.featStd[j]
		}
	}
}

// UnionPrepared merges prepared tables into one disjoint-union batch — the
// same mechanism the training loop uses to form minibatches, reused by the
// scorer to amortize one forward pass over many tables. Node
// indices (and NCFIdx) of table k are offset by the node counts of tables
// 0..k-1, so per-table slices of the union output can be recovered from the
// inputs' NumNodes.
func UnionPrepared(ps []*Prepared) *Prepared {
	graphs := make([]*graph.Graph, len(ps))
	lms := make([]*tensor.Matrix, len(ps))
	feats := make([]*tensor.Matrix, len(ps))
	out := &Prepared{}
	offset := 0
	for i, p := range ps {
		graphs[i] = p.Graph
		lms[i] = p.LMStates
		feats[i] = p.FeatRows
		for _, idx := range p.NCFIdx {
			out.NCFIdx = append(out.NCFIdx, idx+offset)
		}
		offset += p.Graph.NumNodes()
	}
	out.Graph = graph.Union(graphs...)
	out.LMStates = tensor.ConcatRows(lms...)
	out.FeatRows = tensor.ConcatRows(feats...)
	return out
}

// forward runs the model over a prepared batch, returning target logits and
// the target node list. A nil grads selects inference mode: parameters
// enter the tape as constants, so no gradient buffers are allocated and no
// backward closures are recorded.
func (m *Model) forward(tape *autodiff.Tape, grads *nn.GradSet, p *Prepared, rng *rand.Rand, training bool) (*autodiff.Var, []int) {
	// Initial states: frozen-LM rows plus subnetwork output scattered into
	// the V_ncf rows.
	base := tape.Constant(p.LMStates)
	h := base
	if p.FeatRows.Rows > 0 {
		sw := nn.ParamVar(tape, grads, "subnet.w", m.subnet.W)
		sb := nn.ParamVar(tape, grads, "subnet.b", m.subnet.B)
		sub := tape.AddRow(tape.MatMul(tape.Constant(p.FeatRows), sw), sb)
		h = tape.Add(base, tape.ScatterAddRows(sub, p.NCFIdx, p.Graph.NumNodes()))
	}

	h = m.stack.Apply(tape, grads, h, p.Graph, true)
	h = tape.Dropout(h, m.cfg.Dropout, rng, training)

	targets := p.Graph.TargetNodes()
	ht := tape.GatherRows(h, targets)
	cw := nn.ParamVar(tape, grads, "classifier.w", m.classifier.W)
	cb := nn.ParamVar(tape, grads, "classifier.b", m.classifier.B)
	logits := tape.AddRow(tape.MatMul(ht, cw), cb)
	return logits, targets
}

// inferLogits runs one gradient-free forward pass over a prepared
// (possibly unioned) batch and returns the raw logits (targets×classes) and
// the target node indices into p.Graph. Safe for concurrent use — each call
// checks a private tape out of the model's pool and the parameters are
// read-only. The logits are cloned out of the tape's arena before the tape
// is recycled, so the caller owns them.
func (m *Model) inferLogits(p *Prepared) (*tensor.Matrix, []int) {
	tape := m.inferTape()
	logits, targets := m.forward(tape, nil, p, nil, false)
	out := logits.Value.Clone()
	m.releaseTape(tape)
	return out, targets
}

// InferProbs runs one gradient-free forward pass over a prepared (possibly
// unioned) batch, whose logits a temperature-scaled row softmax turns into
// calibrated probabilities: the forward and softmax PredictBatch runs, for
// a caller that prepares its own batch. It returns the probabilities
// (targets×classes, owned by the caller) and the target node indices into
// p.Graph. Safe for concurrent use.
func (m *Model) InferProbs(p *Prepared) (*tensor.Matrix, []int) {
	probs, targets := m.inferLogits(p)
	softmaxRows(probs, m.Temperature())
	return probs, targets
}

// softmaxRows turns each row of logits into probabilities in place at
// temperature temp, with the arithmetic of the training loss's softmax in
// its order: multiply by 1/temp unless temp is 1, subtract the row max,
// exponentiate, sum, divide.
func softmaxRows(logits *tensor.Matrix, temp float64) {
	if temp != 1 {
		logits.ScaleInPlace(1 / temp)
	}
	for i := 0; i < logits.Rows; i++ {
		row := logits.Row(i)
		mx := math.Inf(-1)
		for _, v := range row {
			if v > mx {
				mx = v
			}
		}
		var z float64
		for j, v := range row {
			e := math.Exp(v - mx)
			row[j] = e
			z += e
		}
		for j := range row {
			row[j] /= z
		}
	}
}

// defaultPatience is applied when Config.Patience is unset: without it a
// zero-value Config handed NewEarlyStopper a patience of 0, which aborts at
// the first non-improving epoch.
const defaultPatience = 30

// MaxBatch caps how many tables one union forward of the scorer holds, on
// every scoring path: served batches and offline scoring alike.
const MaxBatch = 16

// TrainCtx fits Pythagoras on the corpus using the given table index
// splits, with the deterministic data-parallel pipeline (DESIGN.md §10):
//
//   - Prepare of train/val tables fans out over cfg.TrainWorkers workers.
//   - Each optimizer step decomposes its shuffled minibatch into per-table
//     sub-batches, runs forward/backward on each with a private tape,
//     GradSet and dropout RNG (seeded from (Seed, step, sub-index) only),
//     then merges the loss-weighted gradients in fixed sub-index order and
//     applies a single Adam update.
//   - Validation scoring between epochs runs through the scorer (score):
//     chunked union forwards in parallel.
//
// Because no part of the decomposition, RNG seeding or merge order depends
// on the worker count or on scheduling, the trained parameters are
// bit-identical at any TrainWorkers — the training-side counterpart of the
// scorer's union-forward identity.
//
// Cancellation is observed before every stage and before each work item a
// worker claims (partial-work drain, exactly as in serving): a cancelled
// context aborts training and returns the context's error.
func TrainCtx(ctx context.Context, c *data.Corpus, trainIdx, valIdx []int, cfg Config) (*Model, error) {
	if err := cfg.checkTraining(); err != nil {
		return nil, err
	}
	if len(trainIdx) == 0 {
		return nil, fmt.Errorf("core: empty training split")
	}
	m := newModel(cfg, c.Types)
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	workers := cfg.TrainWorkers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	patience := cfg.Patience
	if patience <= 0 {
		patience = defaultPatience
	}

	// Training telemetry flows through the same registry shape the serving
	// path uses; all handles are nil (free no-ops) when cfg.Metrics is unset.
	epochGauge := cfg.Metrics.Gauge("train.epoch")
	lossGauge := cfg.Metrics.Gauge("train.loss")
	valF1Gauge := cfg.Metrics.Gauge("train.val.weighted_f1")
	epochHist := cfg.Metrics.Histogram("train.epoch.seconds", nil)
	stepCounter := cfg.Metrics.Counter("train.steps")
	prepHist := cfg.Metrics.Histogram("train.prepare.seconds", nil)
	fbHist := cfg.Metrics.Histogram("train.fb.seconds", nil)
	mergeHist := cfg.Metrics.Histogram("train.merge.seconds", nil)
	valHist := cfg.Metrics.Histogram("train.val.seconds", nil)

	logf("pythagoras: preparing %d train / %d val tables (%d workers)",
		len(trainIdx), len(valIdx), workers)
	prepare := func(prep []*Prepared, idx []int) error {
		return par.For(ctx, workers, len(idx), func(i int) error {
			if err := cfg.Faults.Fire(ctx, faultinject.TrainPrepare); err != nil {
				return err
			}
			t0 := time.Now()
			prep[i] = m.Prepare(c.Tables[idx[i]])
			prepHist.Since(t0)
			return nil
		})
	}
	trainPrep := make([]*Prepared, len(trainIdx))
	if err := prepare(trainPrep, trainIdx); err != nil {
		return nil, err
	}
	// The scaling fits run serially after the parallel prepare: their
	// accumulation order (table index order) is part of the determinism
	// contract.
	m.fitScalings(trainPrep)
	valPrep := make([]*Prepared, len(valIdx))
	if err := prepare(valPrep, valIdx); err != nil {
		return nil, err
	}

	// The shuffle RNG is dedicated: dropout masks come from per-sub-batch
	// RNGs seeded by (Seed, step, sub-index), so the epoch's table order and
	// the masks are both independent of how work lands on workers.
	shuffleRng := rand.New(rand.NewSource(cfg.Seed))
	opt := nn.NewAdam(cfg.LearningRate)
	stopper := nn.NewEarlyStopper(patience)
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = 16
	}
	totalSteps := cfg.Epochs * ((len(trainPrep) + batch - 1) / batch)
	step := 0

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		epochStart := time.Now()
		shuffleRng.Shuffle(len(trainPrep), func(i, j int) { trainPrep[i], trainPrep[j] = trainPrep[j], trainPrep[i] })
		var epochLoss float64
		var steps int
		for at := 0; at < len(trainPrep); at += batch {
			end := at + batch
			if end > len(trainPrep) {
				end = len(trainPrep)
			}
			if err := gate(ctx, cfg.Faults, faultinject.TrainStep); err != nil {
				return nil, err
			}
			stepLoss, err := m.trainStep(ctx, trainPrep[at:end], opt, cfg, workers, step, totalSteps, fbHist, mergeHist)
			if err != nil {
				return nil, err
			}
			step++
			stepCounter.Inc()
			epochLoss += stepLoss
			steps++
		}
		epochGauge.Set(float64(epoch))
		lossGauge.Set(epochLoss / float64(steps))
		epochHist.Since(epochStart)

		if len(valPrep) > 0 {
			if err := gate(ctx, cfg.Faults, faultinject.TrainVal); err != nil {
				return nil, err
			}
			t0 := time.Now()
			split, _, err := m.evaluate(ctx, workers, len(valPrep), func(i int) *Prepared { return valPrep[i] })
			if err != nil {
				return nil, err
			}
			valHist.Since(t0)
			valF1 := split.Overall.WeightedF1
			valF1Gauge.Set(valF1)
			logf("pythagoras: epoch %d loss=%.4f val-wF1=%.4f", epoch, epochLoss/float64(steps), valF1)
			if stopper.Observe(epoch, valF1, m.params) {
				best, bestEpoch := stopper.Best()
				logf("pythagoras: early stop at epoch %d (best %.4f @ %d)", epoch, best, bestEpoch)
				break
			}
		} else {
			logf("pythagoras: epoch %d loss=%.4f", epoch, epochLoss/float64(steps))
		}
	}
	if len(valPrep) > 0 && !stopper.RestoreBest(m.params) {
		logf("pythagoras: warning: no early-stop snapshot was ever taken "+
			"(validation metric never finite: %d NaN epochs); keeping final-epoch parameters",
			stopper.NaNsSeen())
	}
	return m, nil
}

// checkTraining rejects the settings TrainCtx cannot train with: no epoch
// (which would return the untrained model), a learning rate that is not a
// positive finite number, and a dropout probability outside [0, 1) (at 1
// the tape's Dropout panics, inside a worker goroutine when training runs
// on several).
func (c Config) checkTraining() error {
	switch {
	case c.Epochs < 1:
		return fmt.Errorf("core: Epochs is %d, want at least 1", c.Epochs)
	case !(c.LearningRate > 0) || math.IsInf(c.LearningRate, 1):
		return fmt.Errorf("core: LearningRate is %v, want a positive finite number", c.LearningRate)
	case !(c.Dropout >= 0 && c.Dropout < 1):
		return fmt.Errorf("core: Dropout is %v, want a probability in [0, 1)", c.Dropout)
	}
	return nil
}

// gate is the per-stage interruption check of the trainer and the scorer:
// context first, then any armed fault. Both are one branch each when unset.
func gate(ctx context.Context, fs *faultinject.Set, p faultinject.Point) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return fs.Fire(ctx, p)
}

// trainStep runs one data-parallel optimizer step over the minibatch bp.
//
// Decomposition: each table of the minibatch is its own sub-batch — a unit
// that depends only on the (already deterministic) shuffle, never on the
// worker count. Every sub-batch gets a private tape, GradSet and dropout
// RNG; its loss is scaled on the tape by labeled_k/labeled_total so that
// the summed sub-gradients equal the gradient of the minibatch's pooled
// mean cross-entropy (what the serial union forward computed). The partial
// gradients are then merged in sub-index order, clipped and applied as one
// Adam update by nn.Adam.Step, on the same workers.
//
// It returns the minibatch loss (the weighted sum of sub-losses, summed in
// sub-index order — reproducible to the bit).
func (m *Model) trainStep(ctx context.Context, bp []*Prepared, opt *nn.Adam, cfg Config, workers, step, totalSteps int, fbHist, mergeHist *obs.Histogram) (float64, error) {
	// Per-sub-batch labels and labeled-row counts, computed up front: the
	// loss weights must be in hand before the parallel section starts.
	labels := make([][]int, len(bp))
	totalLabeled := 0
	for si, p := range bp {
		targets := p.Graph.TargetNodes()
		ls := make([]int, len(targets))
		for i, n := range targets {
			ls[i] = p.Graph.Labels[n]
			if ls[i] >= 0 {
				totalLabeled++
			}
		}
		labels[si] = ls
	}
	denom := float64(totalLabeled)
	if totalLabeled == 0 {
		denom = 1 // all-unlabeled minibatch: zero loss, zero gradients
	}

	grads := make([]*nn.GradSet, len(bp))
	losses := make([]float64, len(bp))
	// Each sub-batch checks a recycled tape out of the model pool; par.For
	// hands every index to exactly one goroutine, so tapes[si] has a single
	// writer. The tapes are NOT released inside the loop: the GradSets point
	// at arena-backed gradient matrices, which the optimizer step below
	// reads.
	tapes := make([]*autodiff.Tape, len(bp))
	err := par.For(ctx, workers, len(bp), func(si int) error {
		t0 := time.Now()
		p := bp[si]
		labeled := 0
		for _, l := range labels[si] {
			if l >= 0 {
				labeled++
			}
		}
		tape := m.inferTape()
		tapes[si] = tape
		gs := nn.NewGradSet()
		rng := rand.New(rand.NewSource(subBatchSeed(cfg.Seed, step, si)))
		logits, _ := m.forward(tape, gs, p, rng, true)
		loss := tape.SoftmaxCrossEntropy(logits, labels[si])
		scaled := tape.Scale(loss, float64(labeled)/denom)
		tape.Backward(scaled)
		grads[si] = gs
		losses[si] = scaled.Value.Data[0]
		fbHist.Since(t0)
		return nil
	})
	if err != nil {
		return 0, err
	}
	if err := gate(ctx, cfg.Faults, faultinject.TrainMerge); err != nil {
		return 0, err
	}
	t0 := time.Now()
	opt.SetLR(nn.LinearDecay(cfg.LearningRate, step, totalSteps))
	opt.Step(m.params, grads, 5, workers)
	for _, tp := range tapes {
		m.releaseTape(tp)
	}
	mergeHist.Since(t0)
	var stepLoss float64
	for _, l := range losses {
		stepLoss += l
	}
	return stepLoss, nil
}

// subBatchSeed derives the dropout RNG seed of one sub-batch from the run
// seed, the optimizer step and the sub-batch index — and nothing else, so
// masks are reproducible at any worker count. SplitMix64 finalizer for
// decorrelation between adjacent (step, sub) pairs.
func subBatchSeed(seed int64, step, sub int) int64 {
	h := uint64(seed) ^ 0x9E3779B97F4A7C15*uint64(step+1) ^ 0xBF58476D1CE4E5B9*uint64(sub+1)
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return int64(h)
}

// StageHooks instruments the scorer's stages for the serving engine: Faults
// fires the infer.* injection points at the stage gates, each histogram
// times its stage, and Chunk observes each union's table count. Every field
// is nil-safe, so the zero value, which offline callers pass, leaves the
// context checks as the only gates.
type StageHooks struct {
	Faults                          *faultinject.Set
	Prepare, Union, Forward, Decode *obs.Histogram
	Chunk                           *obs.Histogram
}

// score is the one scoring loop: PredictBatch (behind the serving engine and
// ComputeDriftBaseline), training validation, Evaluate and
// CalibrateTemperature all score through it. It takes n tables from prep
// (table i is prep(i)) in windows of at most workers×MaxBatch, each prepared
// in parallel, so it holds one window at a time. A window is scored by
// gradient-free union forwards of at most MaxBatch tables, fanned out over
// the workers. Then visit receives, in table order and on the calling
// goroutine, each table's prepared form, its target nodes and their logits
// (row k for targets[k]), which are visit's to keep or overwrite. A union
// forward is bit-identical to the per-table forwards it replaces, so
// neither the windows, the chunks nor the worker count change a bit of what
// visit sees — which matters, because the validation F1 feeds the early
// stopper and thereby the trained parameters.
//
// A cancelled ctx, an armed fault or an error from visit stops the scoring
// before the next table, union or forward and returns that error. Workers
// finish the item they are on; nothing new starts.
func (m *Model) score(ctx context.Context, workers, n int, hooks StageHooks, prep func(i int) *Prepared, visit func(i int, p *Prepared, targets []int, logits *tensor.Matrix) error) error {
	window := max(workers, 1) * MaxBatch
	ps := make([]*Prepared, min(n, window))
	for lo := 0; lo < n; lo += window {
		ps = ps[:min(window, n-lo)]
		err := par.For(ctx, workers, len(ps), func(i int) error {
			if err := hooks.Faults.Fire(ctx, faultinject.InferPrepare); err != nil {
				return err
			}
			t0 := time.Now()
			ps[i] = prep(lo + i)
			hooks.Prepare.Since(t0)
			return nil
		})
		if err != nil {
			return err
		}
		bounds := par.Bounds(len(ps), workers, MaxBatch)
		logits := make([]*tensor.Matrix, len(bounds))
		err = par.For(ctx, workers, len(bounds), func(c int) error {
			clo, chi := bounds[c][0], bounds[c][1]
			if err := gate(ctx, hooks.Faults, faultinject.InferUnion); err != nil {
				return err
			}
			t0 := time.Now()
			p := ps[clo]
			if chi-clo > 1 {
				p = UnionPrepared(ps[clo:chi])
			}
			hooks.Union.Since(t0)
			hooks.Chunk.Observe(float64(chi - clo))
			if err := gate(ctx, hooks.Faults, faultinject.InferForward); err != nil {
				return err
			}
			t0 = time.Now()
			logits[c], _ = m.inferLogits(p)
			hooks.Forward.Since(t0)
			return nil
		})
		if err != nil {
			return err
		}
		for c, b := range bounds {
			l, row := logits[c], 0
			for i := b[0]; i < b[1]; i++ {
				targets := ps[i].Graph.TargetNodes()
				next := row + len(targets)
				if err := visit(lo+i, ps[i], targets, &tensor.Matrix{Rows: len(targets), Cols: l.Cols, Data: l.Data[row*l.Cols : next*l.Cols]}); err != nil {
					return err
				}
				row = next
			}
		}
	}
	return nil
}

// PredictBatch predicts the semantic types of every column of ts through
// the scorer on workers goroutines: each table's logits pass the
// temperature softmax and DecodePredictions, and emit receives table i's
// predictions in table order on the calling goroutine. The decode stage is
// gated and timed once per table. Predictions are bit-identical at any
// batch size and worker count. A cancelled ctx or an armed fault stops the
// batch with that error; the tables emitted before it stay emitted.
func (m *Model) PredictBatch(ctx context.Context, workers int, ts []*table.Table, hooks StageHooks, emit func(i int, preds []ColumnPrediction)) error {
	temp := m.Temperature()
	return m.score(ctx, workers, len(ts), hooks, func(i int) *Prepared {
		return m.Prepare(ts[i])
	}, func(i int, p *Prepared, targets []int, logits *tensor.Matrix) error {
		if err := gate(ctx, hooks.Faults, faultinject.InferDecode); err != nil {
			return err
		}
		t0 := time.Now()
		softmaxRows(logits, temp)
		emit(i, m.DecodePredictions(p, logits, targets, 0, len(targets), ts[i]))
		hooks.Decode.Since(t0)
		return nil
	})
}

// evaluate scores n tables through score and returns the paper's per-kind
// metrics and one eval.Prediction per labeled target, in table order and
// ascending node order within a table.
func (m *Model) evaluate(ctx context.Context, workers, n int, prep func(i int) *Prepared) (*eval.Split, []eval.Prediction, error) {
	var preds []eval.Prediction
	err := m.score(ctx, workers, n, StageHooks{}, prep, func(_ int, p *Prepared, targets []int, logits *tensor.Matrix) error {
		for k, node := range targets {
			if p.Graph.Labels[node] >= 0 {
				preds = append(preds, eval.Prediction{
					True:    p.Graph.Labels[node],
					Pred:    logits.ArgMaxRow(k),
					Numeric: p.Graph.Meta[node].Kind == table.KindNumeric,
				})
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return eval.ComputeSplit(preds), preds, nil
}

// Evaluate scores the model on the given tables of a corpus, returning the
// paper's per-kind metrics and the raw predictions in table order. It runs
// the scorer training validation uses, on one worker per CPU;
// neither its windows, its chunks nor the worker count change a bit of the
// result.
func (m *Model) Evaluate(c *data.Corpus, idx []int) (*eval.Split, []eval.Prediction) {
	// score fails only when its context is cancelled, and this one never is.
	split, preds, _ := m.evaluate(context.TODO(), runtime.NumCPU(), len(idx), func(i int) *Prepared {
		return m.Prepare(c.Tables[idx[i]])
	})
	return split, preds
}

// ColumnPrediction is the user-facing prediction for one column.
type ColumnPrediction struct {
	ColIndex   int
	Header     string
	Kind       table.Kind
	Type       string
	Confidence float64
}

// DecodePredictions converts inference probabilities back into per-column
// predictions for one table. probs/targets are the output of InferProbs
// over a prepared batch; [lo,hi) selects the target rows belonging to t
// (0, len(targets) for a single-table batch), and nodeOffset-relative
// metadata is read from p.Graph. A caller holding a union batch uses the
// range form to split it back into per-table results.
func (m *Model) DecodePredictions(p *Prepared, probs *tensor.Matrix, targets []int, lo, hi int, t *table.Table) []ColumnPrediction {
	var out []ColumnPrediction
	for i := lo; i < hi; i++ {
		n := targets[i]
		ci := p.Graph.Meta[n].ColIndex
		cls := probs.ArgMaxRow(i)
		out = append(out, ColumnPrediction{
			ColIndex:   ci,
			Header:     t.Columns[ci].Header,
			Kind:       t.Columns[ci].Kind,
			Type:       m.types[cls],
			Confidence: probs.At(i, cls),
		})
	}
	return out
}

// --- persistence ---

type savedMeta struct {
	Types []string
	// Hidden is the encoder width, the one encoder fact a version-1
	// checkpoint records; Load reads it only from version-1 files.
	Hidden int
	// Encoder is the frozen encoder's full config (version 2 on).
	Encoder           lm.Config
	HiddenDim         int
	GNNLayers         int
	PlainLMStates     bool
	Graph             graph.BuildOptions
	FeatMean, FeatStd []float64
	LMMean, LMStd     []float64
	Temperature       float64
	// The optional drift baseline (putDrift; validateDrift says its shape),
	// absent from files written before checkpoints carried it.
	DriftTypeCounts []uint64
	DriftConfBounds []float64
	DriftConfCounts []uint64
}

// Save writes the trained parameters, vocabulary and drift baseline to w,
// prefixed by the versioned checkpoint header (see CheckpointVersion). The
// frozen encoder's weights are not serialized: they are fully determined by
// its lm.Config, which the checkpoint records and Load rebuilds the encoder
// from. A drift baseline naming a type outside the vocabulary, or shaped so
// Load would reject it, is an error before anything is written.
func (m *Model) Save(w io.Writer) error {
	meta := savedMeta{
		Types: m.types, Encoder: m.enc.Config(), HiddenDim: m.cfg.HiddenDim,
		GNNLayers: m.cfg.GNNLayers, PlainLMStates: m.cfg.PlainLMStates,
		Graph: m.cfg.Graph, FeatMean: m.featMean, FeatStd: m.featStd,
		LMMean: m.lmMean, LMStd: m.lmStd,
		Temperature: m.temperature,
	}
	if err := putDrift(&meta, m.drift, m.labelIndex); err != nil {
		return err
	}
	if err := writeHeader(w, CheckpointVersion); err != nil {
		return fmt.Errorf("core: write checkpoint header: %w", err)
	}
	enc := gob.NewEncoder(w)
	if err := enc.Encode(meta); err != nil {
		return fmt.Errorf("core: encode meta: %w", err)
	}
	return m.params.EncodeGob(enc)
}

// SaveFile saves the model to a file path through atomicfile.Write: a crash
// or failure mid-save leaves any previous checkpoint there intact.
func (m *Model) SaveFile(path string) error {
	return atomicfile.Write(path, 0o644, m.Save)
}

// Geometry ceilings for checkpoint metadata. The per-field ceilings keep
// the parameter count validateMeta derives from overflowing; the count
// ceiling is what keeps a corrupt (or adversarial) header from driving
// newModel into a huge allocation before DecodeGob checks the payload.
// maxLoadModelParams (2^26 float64s, 512 MiB) admits a paper-scale model —
// a 768-wide encoder, 2 GNN layers and 462 types need ≈7.9M parameters —
// and refuses the ~146 GB a header declaring the widest hidden layer asks
// for.
const (
	maxLoadGNNLayers   = 64
	maxLoadHiddenDim   = 1 << 16
	maxLoadTypes       = 1 << 20
	maxLoadModelParams = 1 << 26
)

// modelParams counts the float64 parameters newModel allocates: the subnet
// (features.Dim → state), one HeteroConv per GNN layer (a weight per edge
// type plus the self weight, in·out each, and an out-wide bias), and the
// classifier (hidden → types). A zero hiddenDim or gnnLayers takes
// newModel's default, the encoder width or one layer.
func modelParams(state, encDim, hiddenDim, gnnLayers, types int) int64 {
	if hiddenDim == 0 {
		hiddenDim = encDim
	}
	if gnnLayers == 0 {
		gnnLayers = 1
	}
	s, h, conv := int64(state), int64(hiddenDim), int64(graph.NumEdgeTypes+1)
	return int64(features.Dim)*s + s +
		conv*s*h + h +
		int64(gnnLayers-1)*(conv*h*h+h) +
		h*int64(types) + int64(types)
}

// Ceilings for the encoder config a version-2 checkpoint records.
// lm.NewEncoder allocates Layers·(4·Dim² + 2·Dim·FFNDim) weights plus a
// MaxLen×Dim position table; the per-field ceilings keep that count from
// overflowing, and the weight ceiling (2^27 float32s, 512 MiB) admits
// lm.PaperScaleConfig (~85M weights) while refusing the multi-gigabyte
// encoder a corrupt header could declare.
const (
	maxLoadEncoderLayers  = 64
	maxLoadEncoderWeights = 1 << 27
)

// validateEncoderConfig rejects a recorded encoder config lm.NewEncoder
// would panic on or that would not fit in memory. Seed is any int64.
func validateEncoderConfig(c lm.Config) error {
	switch {
	case c.Dim <= 0 || c.Layers <= 0 || c.Heads <= 0 || c.FFNDim <= 0 || c.MaxLen <= 0 || c.Buckets <= 0:
		return fmt.Errorf("core: checkpoint encoder config %+v has a non-positive size", c)
	case c.Dim%c.Heads != 0:
		return fmt.Errorf("core: checkpoint encoder heads %d do not divide dim %d", c.Heads, c.Dim)
	case c.Dim > maxLoadHiddenDim || c.FFNDim > maxLoadHiddenDim || c.MaxLen > maxLoadHiddenDim ||
		c.Layers > maxLoadEncoderLayers:
		return fmt.Errorf("core: checkpoint encoder config %+v exceeds the load ceilings", c)
	}
	dim, ffn := int64(c.Dim), int64(c.FFNDim)
	if w := int64(c.Layers)*(4*dim*dim+2*dim*ffn) + int64(c.MaxLen)*dim; w > maxLoadEncoderWeights {
		return fmt.Errorf("core: checkpoint encoder config %+v needs %d weights (max %d)", c, w, maxLoadEncoderWeights)
	}
	return nil
}

// validateMeta rejects checkpoint metadata whose declared geometry or
// fitted scalings cannot belong to a model this encoder produces — the
// error-not-panic contract FuzzModelLoad enforces.
func validateMeta(meta *savedMeta, encDim int) error {
	switch {
	case len(meta.Types) == 0:
		return fmt.Errorf("core: checkpoint has no semantic types")
	case len(meta.Types) > maxLoadTypes:
		return fmt.Errorf("core: checkpoint declares %d types (max %d)", len(meta.Types), maxLoadTypes)
	case meta.GNNLayers < 0 || meta.GNNLayers > maxLoadGNNLayers:
		return fmt.Errorf("core: checkpoint declares %d GNN layers (max %d)", meta.GNNLayers, maxLoadGNNLayers)
	case meta.HiddenDim < 0 || meta.HiddenDim > maxLoadHiddenDim:
		return fmt.Errorf("core: checkpoint declares hidden dim %d (max %d)", meta.HiddenDim, maxLoadHiddenDim)
	case math.IsNaN(meta.Temperature) || math.IsInf(meta.Temperature, 0) || meta.Temperature < 0:
		return fmt.Errorf("core: checkpoint temperature %v out of range", meta.Temperature)
	}
	stateDim := 2*encDim + colfeat.CharProfileDim
	if meta.PlainLMStates {
		stateDim = encDim
	}
	if n := modelParams(stateDim, encDim, meta.HiddenDim, meta.GNNLayers, len(meta.Types)); n > maxLoadModelParams {
		return fmt.Errorf("core: checkpoint geometry (hidden dim %d, %d GNN layers, %d types) needs %d parameters (max %d)",
			meta.HiddenDim, meta.GNNLayers, len(meta.Types), n, maxLoadModelParams)
	}
	seen := make(map[string]bool, len(meta.Types))
	for _, st := range meta.Types {
		if seen[st] {
			return fmt.Errorf("core: checkpoint declares duplicate type %q", st)
		}
		seen[st] = true
	}
	if err := validateDrift(meta); err != nil {
		return err
	}
	// The fitted scalings must be absent together or sized together: a
	// half-present pair would silently skip standardization (nil mean) or
	// index out of range inside the hot loops.
	checkPair := func(what string, mean, std []float64, want int) error {
		if len(mean) != len(std) {
			return fmt.Errorf("core: checkpoint %s mean/std lengths differ (%d vs %d)", what, len(mean), len(std))
		}
		if len(mean) != 0 && len(mean) != want {
			return fmt.Errorf("core: checkpoint %s scaling has %d dims, want %d", what, len(mean), want)
		}
		for _, v := range append(append([]float64(nil), mean...), std...) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("core: checkpoint %s scaling holds a non-finite value", what)
			}
		}
		return nil
	}
	if err := checkPair("feature", meta.FeatMean, meta.FeatStd, features.Dim); err != nil {
		return err
	}
	return checkPair("state", meta.LMMean, meta.LMStd, stateDim)
}

// Load reads a model saved by Save. The encoder comes from the checkpoint:
// with cfg.Encoder nil, Load builds it from the recorded lm.Config; a
// supplied encoder (which lets models share one encoder's warm caches)
// must have exactly that config, or Load returns *EncoderMismatchError.
// A version-1 checkpoint records only the encoder width, so it needs a
// supplied encoder of that width. cfg otherwise supplies only runtime
// options; the geometry and the drift baseline (DriftBaseline) come from
// the checkpoint. A truncated, corrupted
// or shape-mismatched checkpoint returns an error — never a panic, and
// never a silently half-loaded model (see FuzzModelLoad). A checkpoint
// written by a newer format version returns *UnsupportedVersionError.
func Load(r io.Reader, cfg Config) (*Model, error) {
	version, err := readHeader(r, CheckpointVersion)
	if err != nil {
		return nil, err
	}
	dec := gob.NewDecoder(r)
	var meta savedMeta
	if err := dec.Decode(&meta); err != nil {
		return nil, fmt.Errorf("core: decode meta: %w", err)
	}
	encCfg := meta.Encoder
	if version == 1 {
		if cfg.Encoder == nil {
			return nil, fmt.Errorf("core: checkpoint format version 1 does not record its encoder config; "+
				"retrain to write version %d, or supply Config.Encoder", CheckpointVersion)
		}
		encCfg = cfg.Encoder.Config()
		if encCfg.Dim != meta.Hidden {
			return nil, fmt.Errorf("core: encoder dim %d != saved hidden %d", encCfg.Dim, meta.Hidden)
		}
	} else {
		if err := validateEncoderConfig(encCfg); err != nil {
			return nil, err
		}
		if cfg.Encoder != nil && cfg.Encoder.Config() != encCfg {
			return nil, &EncoderMismatchError{Saved: encCfg, Supplied: cfg.Encoder.Config()}
		}
	}
	if err := validateMeta(&meta, encCfg.Dim); err != nil {
		return nil, err
	}
	if cfg.Encoder == nil {
		cfg.Encoder = lm.NewEncoder(encCfg)
	}
	cfg.GNNLayers = meta.GNNLayers
	cfg.HiddenDim = meta.HiddenDim
	cfg.PlainLMStates = meta.PlainLMStates
	cfg.Graph = meta.Graph
	m := newModel(cfg, meta.Types)
	m.featMean, m.featStd = meta.FeatMean, meta.FeatStd
	m.lmMean, m.lmStd = meta.LMMean, meta.LMStd
	m.temperature = meta.Temperature
	m.drift = getDrift(&meta)
	if err := m.params.DecodeGob(dec); err != nil {
		return nil, err
	}
	return m, nil
}

// LoadFile loads a model from a file path.
func LoadFile(path string, cfg Config) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f, cfg)
}
