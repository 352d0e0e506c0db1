package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"github.com/sematype/pythagoras/internal/core"
	"github.com/sematype/pythagoras/internal/data"
	"github.com/sematype/pythagoras/internal/eval"
	"github.com/sematype/pythagoras/internal/server"
	"github.com/sematype/pythagoras/internal/table"
)

// Corpus shapes. Three sports domains keep the type vocabulary learnable in
// the few epochs set-up can afford; the GitTables flavour is numeric-heavy
// and long-tailed, like the lakes the paper targets.
const (
	sportsDomains = 3
	gitMinSupport = 3
)

// subSeed derives an independent generator seed for one input stream of a
// run, so adding a stream never shifts another.
func subSeed(seed int64, stream int) int64 { return seed*1_000_003 + int64(stream) }

func sportsCorpus(seed int64, n int) *data.Corpus {
	sc := data.ReducedSportsConfig()
	sc.NumTables, sc.Seed, sc.Domains = n, seed, sportsDomains
	return data.GenerateSportsTables(sc)
}

func gitCorpus(seed int64, n, minSupport int) *data.Corpus {
	gc := data.ReducedGitConfig()
	gc.NumTables, gc.Seed, gc.MinSupport = n, seed, minSupport
	return data.GenerateGitTables(gc)
}

// splitCorpus applies the paper's 60/20/20 table split.
func splitCorpus(c *data.Corpus, seed int64) (train, val, test []int) {
	return eval.TrainValTestSplit(len(c.Tables), rand.New(rand.NewSource(seed)))
}

func pick(c *data.Corpus, idx []int) []*table.Table {
	out := make([]*table.Table, len(idx))
	for i, j := range idx {
		out[i] = c.Tables[j]
	}
	return out
}

// benchTable is one input table as a client holds it: the request body it
// sends, the table the server builds from that body, and the gold types the
// benchmark keeps to itself.
type benchTable struct {
	id   string
	body []byte // TableRequest JSON without an id (/v1/predict)
	req  server.TableRequest
	wire *table.Table
	gold []string // per column
}

// newBenchTable strips the labels from t and renders it as a request.
// Numbers are written with the shortest exact representation, so the
// server parses back the generator's float64 values bit for bit.
func newBenchTable(t *table.Table, id string) (*benchTable, error) {
	req := server.TableRequest{Name: t.Name}
	gold := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		gold[i] = c.SemanticType
		cr := server.ColumnRequest{Header: c.Header}
		if c.Kind == table.KindNumeric {
			for _, v := range c.NumValues {
				cr.Values = append(cr.Values, strconv.FormatFloat(v, 'g', -1, 64))
			}
		} else {
			cr.Values = append(cr.Values, c.TextValues...)
		}
		req.Columns = append(req.Columns, cr)
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("encode table %s: %w", id, err)
	}
	wire, err := wireTable(req, id)
	if err != nil {
		return nil, err
	}
	return &benchTable{id: id, body: body, req: req, wire: wire, gold: gold}, nil
}

// wireTable builds the table the server builds from a request: a column is
// numeric when every value parses as a float, as in the server's request
// conversion. The server's /v1/predict responses are checked against
// predictions made on this table, so a divergence shows up as failed
// requests.
func wireTable(tr server.TableRequest, id string) (*table.Table, error) {
	if len(tr.Columns) == 0 {
		return nil, fmt.Errorf("table %s has no columns", id)
	}
	t := &table.Table{Name: tr.Name, ID: id}
	for _, c := range tr.Columns {
		col := &table.Column{Header: c.Header}
		nums := make([]float64, 0, len(c.Values))
		numeric := len(c.Values) > 0
		for _, v := range c.Values {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				numeric = false
				break
			}
			nums = append(nums, f)
		}
		if numeric {
			col.Kind, col.NumValues = table.KindNumeric, nums
		} else {
			col.Kind, col.TextValues = table.KindText, c.Values
		}
		t.Columns = append(t.Columns, col)
	}
	return t, nil
}

func benchTables(ts []*table.Table, prefix string) ([]*benchTable, error) {
	out := make([]*benchTable, len(ts))
	for i, t := range ts {
		bt, err := newBenchTable(t, fmt.Sprintf("%s_%05d", prefix, i))
		if err != nil {
			return nil, err
		}
		out[i] = bt
	}
	return out, nil
}

func wires(bts []*benchTable) []*table.Table {
	out := make([]*table.Table, len(bts))
	for i, bt := range bts {
		out[i] = bt.wire
	}
	return out
}

// numericWF1 is the paper's support-weighted F1 over numeric columns,
// scored against the gold types the benchmark kept. Columns whose gold type
// is outside the model's vocabulary cannot be predicted and are left out,
// as training leaves them out of the loss.
func numericWF1(m *core.Model, bts []*benchTable, preds [][]core.ColumnPrediction) float64 {
	index := make(map[string]int, len(m.Types()))
	for i, st := range m.Types() {
		index[st] = i
	}
	var ps []eval.Prediction
	for i, bt := range bts {
		for _, p := range preds[i] {
			gold, ok := index[bt.gold[p.ColIndex]]
			if !ok {
				continue
			}
			ps = append(ps, eval.Prediction{True: gold, Pred: index[p.Type], Numeric: p.Kind == table.KindNumeric})
		}
	}
	return eval.ComputeSplit(ps).Numeric.WeightedF1
}

// sameColumns reports whether a response carries exactly the expected
// predictions: header, kind, type and confidence bit for bit.
func sameColumns(got []server.ColumnResponse, want []core.ColumnPrediction) bool {
	if len(got) != len(want) {
		return false
	}
	for i, w := range want {
		g := got[i]
		if g.Header != w.Header || g.Kind != w.Kind.String() || g.Type != w.Type || g.Confidence != w.Confidence {
			return false
		}
	}
	return true
}
