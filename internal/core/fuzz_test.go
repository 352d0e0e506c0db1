package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"testing"

	"github.com/sematype/pythagoras/internal/nn"
	"github.com/sematype/pythagoras/internal/obs"
	"github.com/sematype/pythagoras/internal/table"
	"github.com/sematype/pythagoras/internal/tensor"
)

// fuzzTypes is the vocabulary of the fuzz seeds' untrained models.
var fuzzTypes = []string{"player.age", "player.height", "team.name"}

// fuzzSaveBytes trains nothing: it builds an untrained model on the fuzz
// encoder and serializes it — a structurally valid checkpoint to mutate.
func fuzzSaveBytes(tb testing.TB, cfg Config) []byte {
	tb.Helper()
	return fuzzSaveModel(tb, newModel(cfg, fuzzTypes))
}

func fuzzSaveModel(tb testing.TB, m *Model) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzModelLoad drives core.Load (and through it nn.Params.DecodeGob) with
// arbitrary byte streams: truncations, bit flips, and checkpoints whose
// declared geometry disagrees with their parameter payload. The contract is
// error-not-panic — a corrupt checkpoint must be rejected cleanly, never
// crash the server loading it, and never come back as a silently
// half-loaded model. When a load unexpectedly succeeds, the model must be
// fully usable: we run a prediction to shake out any accepted
// shape-mismatch before it could crash a serving path, and score one
// observation against the drift baseline it carries.
func FuzzModelLoad(f *testing.F) {
	enc := tinyEncoder()
	cfg := Config{Encoder: enc, GNNLayers: 2, HiddenDim: 48, Seed: 5}
	valid := fuzzSaveBytes(f, cfg)

	f.Add([]byte{})
	f.Add([]byte("not a gob stream at all"))
	f.Add(valid)
	// Truncated streams: mid-meta and mid-params.
	f.Add(valid[:17])
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-3])
	// Corrupted gob: bit flips in the meta header and the parameter payload.
	for _, at := range []int{5, len(valid) / 3, 2 * len(valid) / 3} {
		bad := append([]byte(nil), valid...)
		bad[at] ^= 0x5a
		f.Add(bad)
	}
	// Wrong format version: a byte-identical valid checkpoint whose header
	// declares a future version must be rejected with the typed error, not
	// decoded on faith (see TestLoadRejectsFutureVersion for the errors.As
	// assertion; here it only must not panic or half-load).
	futureVersion := append([]byte(nil), valid...)
	binary.BigEndian.PutUint32(futureVersion[len(checkpointMagic):], CheckpointVersion+1)
	f.Add(futureVersion)
	// Version 0 (corrupt header) and a pre-versioning stream (no magic).
	zeroVersion := append([]byte(nil), valid...)
	binary.BigEndian.PutUint32(zeroVersion[len(checkpointMagic):], 0)
	f.Add(zeroVersion)
	f.Add(valid[len(checkpointMagic)+4:])

	// Shape mismatch: metadata from one geometry, parameters from another
	// (behind a well-formed header, so the mismatch itself is reached).
	mismatched := fuzzSaveBytes(f, Config{Encoder: enc, GNNLayers: 2, HiddenDim: 64, Seed: 5})
	var metaBuf bytes.Buffer
	if err := writeHeader(&metaBuf, CheckpointVersion); err != nil {
		f.Fatal(err)
	}
	ge := gob.NewEncoder(&metaBuf)
	if err := ge.Encode(savedMeta{Types: fuzzTypes, Encoder: enc.Config(), HiddenDim: 48, GNNLayers: 2}); err != nil {
		f.Fatal(err)
	}
	wrongModel := newModel(Config{Encoder: enc, GNNLayers: 2, HiddenDim: 64, Seed: 5}, fuzzTypes)
	if err := wrongModel.params.EncodeGob(ge); err != nil {
		f.Fatal(err)
	}
	f.Add(metaBuf.Bytes())
	f.Add(mismatched)

	// A version-1 file (encoder width only), and version-2 files whose
	// recorded encoder config lm.NewEncoder would panic on or could not
	// allocate.
	m := newModel(cfg, fuzzTypes)
	f.Add(rewriteCheckpoint(f, m, 1, asV1))
	f.Add(rewriteCheckpoint(f, m, CheckpointVersion, func(meta *savedMeta) { meta.Encoder.Heads = 3 }))
	f.Add(rewriteCheckpoint(f, m, CheckpointVersion, func(meta *savedMeta) { meta.Encoder.Dim = 1 << 30 }))
	// A GNN geometry whose parameters alone would need ~146 GB.
	f.Add(rewriteCheckpoint(f, m, CheckpointVersion, widestHidden))
	// A checkpoint carrying a valid drift baseline, and one per malformed
	// baseline shape.
	dm := driftModel(cfg)
	f.Add(fuzzSaveModel(f, dm))
	for _, tc := range malformedDrift {
		f.Add(rewriteCheckpoint(f, dm, CheckpointVersion, tc.edit))
	}

	probe := &table.Table{Name: "Fuzz Probe", ID: "fz", Columns: []*table.Column{
		{Header: "name", Kind: table.KindText, TextValues: []string{"a", "b"}},
		{Header: "age", Kind: table.KindNumeric, NumValues: []float64{21, 34}},
	}}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data), Config{Encoder: enc})
		if err != nil {
			return
		}
		// A successful load must yield a complete, usable model.
		if len(m.Types()) == 0 {
			t.Fatal("loaded model has no types")
		}
		got := predictOne(m, probe)
		if len(got) != len(probe.Columns) {
			t.Fatalf("loaded model predicted %d of %d columns", len(got), len(probe.Columns))
		}
		mon := obs.NewDriftMonitor(m.DriftBaseline())
		mon.Observe(got[0].Type, got[0].Confidence)
		for _, v := range []float64{mon.TypeScore(), mon.ConfidenceScore()} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("drift scores %v, %v against the loaded baseline", mon.TypeScore(), mon.ConfidenceScore())
			}
		}
	})
}

// TestDecodeGobRejectsLengthMismatch pins the checkpoint-hardening fix: a
// parameter whose declared shape matches but whose data payload is short
// (a truncated-then-re-encoded or hand-corrupted stream) must be rejected,
// not silently half-copied over the random init.
func TestDecodeGobRejectsLengthMismatch(t *testing.T) {
	// Encode a parameter list by hand with a lying Data length.
	type savedParamWire struct {
		Name       string
		Rows, Cols int
		Data       []float64
	}
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode([]savedParamWire{{Name: "w", Rows: 2, Cols: 3, Data: []float64{1, 2}}}); err != nil {
		t.Fatal(err)
	}
	p := nn.NewParams()
	p.Add("w", tensor.New(2, 3))
	if err := p.DecodeGob(gob.NewDecoder(&buf)); err == nil {
		t.Fatal("short parameter payload accepted")
	}
}

// TestDecodeGobRejectsMissingParams pins the other half: a checkpoint that
// simply omits a model parameter must not load (the omitted layer would
// silently keep its random initialization).
func TestDecodeGobRejectsMissingParams(t *testing.T) {
	src := nn.NewParams()
	src.Add("a", tensor.New(1, 2))
	var buf bytes.Buffer
	if err := src.EncodeGob(gob.NewEncoder(&buf)); err != nil {
		t.Fatal(err)
	}
	dst := nn.NewParams()
	dst.Add("a", tensor.New(1, 2))
	dst.Add("b", tensor.New(1, 2))
	if err := dst.DecodeGob(gob.NewDecoder(&buf)); err == nil {
		t.Fatal("checkpoint missing a parameter accepted")
	}
}
