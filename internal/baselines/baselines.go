// Package baselines implements the five state-of-the-art semantic type
// detection models Pythagoras is compared against in the paper's §4:
// Sherlock [13], Sato [30], Dosolo [26], Doduo [26] and a fine-tuned-LLM
// simulator standing in for GPT-3.5 [3] (see DESIGN.md §2).
//
// Every baseline reduces to the same skeleton, one Model: a featurizer turns
// each column into a fixed vector (columnwise models see only the column,
// tablewise models see the whole table), and a classifier maps vectors to
// semantic types. Sherlock/Sato add per-group subnetworks; Sato adds an LDA
// table-topic group and a linear-chain CRF over the column sequence.
package baselines

import (
	"fmt"
	"math/rand"

	"github.com/sematype/pythagoras/internal/autodiff"
	"github.com/sematype/pythagoras/internal/data"
	"github.com/sematype/pythagoras/internal/eval"
	"github.com/sematype/pythagoras/internal/nn"
	"github.com/sematype/pythagoras/internal/table"
	"github.com/sematype/pythagoras/internal/tensor"
)

// Group names a contiguous slice [Lo, Hi) of the feature vector that gets
// its own subnetwork (Sherlock's multi-input architecture).
type Group struct {
	Name   string
	Lo, Hi int
}

// Featurizer converts a table into one feature vector per column.
type Featurizer interface {
	Name() string
	Dim() int
	// Groups returns the subnetwork structure ({one group covering all
	// dims} for single-input models).
	Groups() []Group
	// FeaturizeTable returns one Dim()-long vector per column, in column
	// order.
	FeaturizeTable(t *table.Table) [][]float64
}

// Dataset is a featurized set of columns.
type Dataset struct {
	X       *tensor.Matrix
	Y       []int
	Numeric []bool
	// TableOf[i] is the index (within the dataset's table list) of the
	// table column i belongs to; columns of one table are contiguous and in
	// table order — the chain structure Sato's CRF needs.
	TableOf []int
	Tables  int
}

// BuildDataset featurizes the given tables of a corpus.
func BuildDataset(f Featurizer, c *data.Corpus, idx []int) *Dataset {
	d := &Dataset{}
	var rows [][]float64
	for ti, i := range idx {
		t := c.Tables[i]
		vecs := f.FeaturizeTable(t)
		if len(vecs) != len(t.Columns) {
			panic(fmt.Sprintf("baselines: %s returned %d vectors for %d columns",
				f.Name(), len(vecs), len(t.Columns)))
		}
		for ci, v := range vecs {
			rows = append(rows, v)
			label := -1
			if li, ok := c.LabelIndex[t.Columns[ci].SemanticType]; ok {
				label = li
			}
			d.Y = append(d.Y, label)
			d.Numeric = append(d.Numeric, t.Columns[ci].Kind == table.KindNumeric)
			d.TableOf = append(d.TableOf, ti)
		}
	}
	if len(rows) == 0 {
		d.X = tensor.New(0, f.Dim())
	} else {
		d.X = tensor.FromRows(rows)
	}
	d.Tables = len(idx)
	return d
}

// Model is a trained baseline: a featurizer and the classifier over its
// column vectors. Sherlock, Dosolo, Doduo and the fine-tuned-LLM simulator
// are each a Model; Sato embeds one and adds its CRF.
type Model struct {
	f   Featurizer
	cls *Classifier
}

// trainModel featurizes the training and validation splits with f, in that
// order, and trains the classifier on them. It returns the model and the
// featurized training split.
func trainModel(f Featurizer, c *data.Corpus, trainIdx, valIdx []int, opts TrainOpts) (*Model, *Dataset) {
	train := BuildDataset(f, c, trainIdx)
	val := BuildDataset(f, c, valIdx)
	return &Model{f: f, cls: TrainClassifier(f.Groups(), len(c.Types), train, val, opts)}, train
}

// Evaluate scores the model on the given tables.
func (m *Model) Evaluate(c *data.Corpus, idx []int) (*eval.Split, []eval.Prediction) {
	preds := m.cls.Predict(BuildDataset(m.f, c, idx))
	return eval.ComputeSplit(preds), preds
}

// TrainOpts controls classifier training.
type TrainOpts struct {
	// SubDim is the output width of each group subnetwork (ignored with a
	// single group covering everything when Hidden is set).
	SubDim int
	// Hidden is the main network's hidden layer width (0 = linear head).
	Hidden       int
	LearningRate float64
	Epochs       int
	BatchSize    int
	Patience     int
	Dropout      float64
	Seed         int64
}

// Classifier is a trained columnar model: per-group subnetworks feeding a
// shared MLP head, with train-set feature standardization (none when the
// training split has no columns).
type Classifier struct {
	groups  []Group
	params  *nn.Params
	subnets []*nn.Linear
	head    []*nn.Linear // 1 or 2 layers
	dropout float64
	mean    []float64
	std     []float64
	classes int
}

func newClassifier(groups []Group, classes int, opts TrainOpts, rng *rand.Rand) *Classifier {
	c := &Classifier{groups: groups, params: nn.NewParams(), dropout: opts.Dropout, classes: classes}
	concat := 0
	for gi, g := range groups {
		width := g.Hi - g.Lo
		sub := opts.SubDim
		if sub <= 0 || sub > width {
			sub = width
		}
		c.subnets = append(c.subnets, nn.NewLinear(c.params, fmt.Sprintf("sub%d", gi), width, sub, rng))
		concat += sub
	}
	if opts.Hidden > 0 {
		c.head = append(c.head, nn.NewLinear(c.params, "head0", concat, opts.Hidden, rng))
		c.head = append(c.head, nn.NewLinear(c.params, "head1", opts.Hidden, classes, rng))
	} else {
		c.head = append(c.head, nn.NewLinear(c.params, "head0", concat, classes, rng))
	}
	return c
}

func (c *Classifier) scale(x *tensor.Matrix) *tensor.Matrix {
	if c.mean == nil {
		return x
	}
	out := x.Clone()
	for i := 0; i < out.Rows; i++ {
		row := out.Row(i)
		for j := range row {
			row[j] = (row[j] - c.mean[j]) / c.std[j]
		}
	}
	return out
}

// forward computes logits for (already scaled) inputs.
func (c *Classifier) forward(tape *autodiff.Tape, grads *nn.GradSet, x *autodiff.Var, rng *rand.Rand, training bool) *autodiff.Var {
	var parts []*autodiff.Var
	for gi, g := range c.groups {
		// slice columns [Lo,Hi): implemented via a gather on the transpose
		// is wasteful; instead the dataset builder keeps groups contiguous,
		// so we materialize the block directly.
		block := sliceCols(x.Value, g.Lo, g.Hi)
		in := tape.Constant(block)
		w := grads.Track(fmt.Sprintf("sub%d.w", gi), tape.Param(c.subnets[gi].W))
		b := grads.Track(fmt.Sprintf("sub%d.b", gi), tape.Param(c.subnets[gi].B))
		parts = append(parts, tape.ReLU(tape.AddRow(tape.MatMul(in, w), b)))
	}
	h := parts[0]
	if len(parts) > 1 {
		h = tape.ConcatCols(parts...)
	}
	h = tape.Dropout(h, c.dropout, rng, training)
	for li, l := range c.head {
		w := grads.Track(fmt.Sprintf("head%d.w", li), tape.Param(l.W))
		b := grads.Track(fmt.Sprintf("head%d.b", li), tape.Param(l.B))
		h = tape.AddRow(tape.MatMul(h, w), b)
		if li+1 < len(c.head) {
			h = tape.ReLU(h)
			h = tape.Dropout(h, c.dropout, rng, training)
		}
	}
	return h
}

// Logits returns raw class scores for a dataset (standardized internally).
func (c *Classifier) Logits(d *Dataset) *tensor.Matrix {
	if d.X.Rows == 0 {
		return tensor.New(0, c.classes)
	}
	x := c.scale(d.X)
	tape := autodiff.NewTape()
	out := c.forward(tape, nn.NewGradSet(), tape.Constant(x), nil, false)
	return out.Value
}

// Predict returns eval predictions for a dataset (unknown labels skipped).
func (c *Classifier) Predict(d *Dataset) []eval.Prediction {
	logits := c.Logits(d)
	var preds []eval.Prediction
	for i := 0; i < logits.Rows; i++ {
		if d.Y[i] < 0 {
			continue
		}
		preds = append(preds, eval.Prediction{
			True: d.Y[i], Pred: logits.ArgMaxRow(i), Numeric: d.Numeric[i],
		})
	}
	return preds
}

// TrainClassifier fits the grouped classifier with Adam + linear decay +
// early stopping on validation weighted F1.
func TrainClassifier(groups []Group, classes int, train, val *Dataset, opts TrainOpts) *Classifier {
	rng := rand.New(rand.NewSource(opts.Seed))
	c := newClassifier(groups, classes, opts, rng)
	c.mean, c.std = nn.FitStandardization(train.X.Cols, func(visit func([]float64)) {
		for i := 0; i < train.X.Rows; i++ {
			visit(train.X.Row(i))
		}
	})
	xTrain := c.scale(train.X)
	n := xTrain.Rows
	batch := opts.BatchSize
	if batch <= 0 {
		batch = 256
	}
	opt := nn.NewAdam(opts.LearningRate)
	stopper := nn.NewEarlyStopper(opts.Patience)
	stepsPerEpoch := (n + batch - 1) / batch
	totalSteps := opts.Epochs * stepsPerEpoch
	step := 0
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}

	for epoch := 0; epoch < opts.Epochs; epoch++ {
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for at := 0; at < n; at += batch {
			end := at + batch
			if end > n {
				end = n
			}
			idx := perm[at:end]
			xb := tensor.GatherRows(xTrain, idx)
			yb := make([]int, len(idx))
			for i, r := range idx {
				yb[i] = train.Y[r]
			}
			tape := autodiff.NewTape()
			grads := nn.NewGradSet()
			logits := c.forward(tape, grads, tape.Constant(xb), rng, true)
			tape.Backward(tape.SoftmaxCrossEntropy(logits, yb))
			opt.SetLR(nn.LinearDecay(opts.LearningRate, step, totalSteps))
			opt.Step(c.params, []*nn.GradSet{grads}, 5, 1)
			step++
		}
		if val != nil && val.X.Rows > 0 {
			f1 := eval.ComputeSplit(c.Predict(val)).Overall.WeightedF1
			if stopper.Observe(epoch, f1, c.params) {
				break
			}
		}
	}
	if val != nil && val.X.Rows > 0 {
		stopper.RestoreBest(c.params)
	}
	return c
}

// sliceCols copies columns [lo, hi) of m into a new matrix.
func sliceCols(m *tensor.Matrix, lo, hi int) *tensor.Matrix {
	out := tensor.New(m.Rows, hi-lo)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i), m.Row(i)[lo:hi])
	}
	return out
}

// wholeGroup is the single-group structure for single-input models.
func wholeGroup(dim int) []Group { return []Group{{Name: "all", Lo: 0, Hi: dim}} }

// widenF32 copies a float32 encoder vector into fresh float64 storage —
// the baselines' tape boundary (cf. core.Model.Encode).
func widenF32(v []float32) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	return out
}
