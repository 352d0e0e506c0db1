package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/sematype/pythagoras/internal/graph"
	"github.com/sematype/pythagoras/internal/lm"
	"github.com/sematype/pythagoras/internal/obs"
	"github.com/sematype/pythagoras/internal/table"
)

func TestCheckpointHeaderRoundTrip(t *testing.T) {
	enc := tinyEncoder()
	cfg := Config{Encoder: enc, GNNLayers: 1, HiddenDim: 32, Seed: 3}
	m := newModel(cfg, []string{"player.age", "team.name"})
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if !bytes.HasPrefix(raw, []byte(checkpointMagic)) {
		t.Fatalf("checkpoint does not start with magic: %x", raw[:16])
	}
	if v := binary.BigEndian.Uint32(raw[len(checkpointMagic):]); v != CheckpointVersion {
		t.Fatalf("header version = %d, want %d", v, CheckpointVersion)
	}
	got, err := Load(bytes.NewReader(raw), Config{Encoder: enc})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Types()) != 2 {
		t.Fatalf("round trip lost types: %v", got.Types())
	}
}

func TestLoadRejectsFutureVersion(t *testing.T) {
	enc := tinyEncoder()
	m := newModel(Config{Encoder: enc, GNNLayers: 1, HiddenDim: 32, Seed: 3},
		[]string{"player.age"})
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	binary.BigEndian.PutUint32(raw[len(checkpointMagic):], CheckpointVersion+7)
	_, err := Load(bytes.NewReader(raw), Config{Encoder: enc})
	var uv *UnsupportedVersionError
	if !errors.As(err, &uv) {
		t.Fatalf("future-version load: err = %v, want *UnsupportedVersionError", err)
	}
	if uv.Got != CheckpointVersion+7 || uv.Max != CheckpointVersion {
		t.Fatalf("typed error fields = %+v", uv)
	}
	if !strings.Contains(uv.Error(), "newer than this binary") {
		t.Fatalf("error text = %q", uv.Error())
	}
}

// rewriteCheckpoint encodes m as a checkpoint of the given format version
// with edit applied to its metadata: the way tests build version-1 files
// and version-2 files whose recorded encoder config is corrupt.
func rewriteCheckpoint(tb testing.TB, m *Model, version uint32, edit func(*savedMeta)) []byte {
	tb.Helper()
	var saved bytes.Buffer
	if err := m.Save(&saved); err != nil {
		tb.Fatal(err)
	}
	var meta savedMeta
	if err := gob.NewDecoder(bytes.NewReader(saved.Bytes()[len(checkpointMagic)+4:])).Decode(&meta); err != nil {
		tb.Fatal(err)
	}
	edit(&meta)
	var buf bytes.Buffer
	if err := writeHeader(&buf, version); err != nil {
		tb.Fatal(err)
	}
	ge := gob.NewEncoder(&buf)
	if err := ge.Encode(meta); err != nil {
		tb.Fatal(err)
	}
	if err := m.params.EncodeGob(ge); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// asV1 turns version-2 metadata into what a version-1 binary wrote: the
// encoder width only.
func asV1(meta *savedMeta) {
	meta.Hidden = meta.Encoder.Dim
	meta.Encoder = lm.Config{}
}

// TestLoadV1Checkpoint: a version-1 file records only the encoder width, so
// it loads with a supplied encoder of that width and predicts as before,
// and without one it fails with an error that says to retrain.
func TestLoadV1Checkpoint(t *testing.T) {
	enc := tinyEncoder()
	m := newModel(Config{Encoder: enc, GNNLayers: 1, HiddenDim: 32, Seed: 3},
		[]string{"player.age", "team.name"})
	v1 := rewriteCheckpoint(t, m, 1, asV1)
	got, err := Load(bytes.NewReader(v1), Config{Encoder: enc})
	if err != nil {
		t.Fatal(err)
	}
	tb := &table.Table{Name: "T", ID: "t1", Columns: []*table.Column{
		{Header: "age", Kind: table.KindNumeric, NumValues: []float64{21, 34, 28}},
		{Header: "team", Kind: table.KindText, TextValues: []string{"ATL", "BOS", "CHI"}},
	}}
	want, have := predictOne(m, tb), predictOne(got, tb)
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("column %d: %+v, want %+v", i, have[i], want[i])
		}
	}
	_, err = Load(bytes.NewReader(v1), Config{})
	if err == nil || !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), "retrain") {
		t.Fatalf("v1 load without an encoder: err = %v", err)
	}
	wide := enc.Config()
	wide.Dim, wide.FFNDim = 64, 128
	if _, err := Load(bytes.NewReader(v1), Config{Encoder: lm.NewEncoder(wide)}); err == nil {
		t.Fatal("v1 load with an encoder of another width accepted")
	}
}

// TestLoadRejectsBadEncoderConfig: a version-2 file whose recorded encoder
// config lm.NewEncoder would panic on, or that would not fit in memory,
// fails to load with an error, whether or not the caller supplies an
// encoder.
func TestLoadRejectsBadEncoderConfig(t *testing.T) {
	enc := tinyEncoder()
	m := newModel(Config{Encoder: enc, GNNLayers: 1, HiddenDim: 32, Seed: 3},
		[]string{"player.age", "team.name"})
	cases := []struct {
		name string
		edit func(*lm.Config)
		want string
	}{
		{"heads do not divide dim", func(c *lm.Config) { c.Heads = 3 }, "do not divide"},
		{"zero layers", func(c *lm.Config) { c.Layers = 0 }, "non-positive"},
		{"zero max len", func(c *lm.Config) { c.MaxLen = 0 }, "non-positive"},
		{"negative buckets", func(c *lm.Config) { c.Buckets = -1 }, "non-positive"},
		{"oversized dim", func(c *lm.Config) { c.Dim, c.Heads = 1<<30, 1 }, "ceilings"},
		{"too many weights", func(c *lm.Config) { c.Dim, c.FFNDim, c.Layers = 4096, 16384, 12 }, "weights"},
	}
	for _, tc := range cases {
		raw := rewriteCheckpoint(t, m, CheckpointVersion, func(meta *savedMeta) { tc.edit(&meta.Encoder) })
		for _, cfg := range []Config{{}, {Encoder: enc}} {
			_, err := Load(bytes.NewReader(raw), cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s (encoder supplied: %v): err = %v, want one naming %q", tc.name, cfg.Encoder != nil, err, tc.want)
			}
		}
	}
	// The ceilings admit the paper's bert-base geometry.
	if err := validateEncoderConfig(lm.PaperScaleConfig()); err != nil {
		t.Fatalf("paper-scale encoder rejected: %v", err)
	}
}

// widestHidden declares the widest GNN hidden layer the per-field
// ceiling admits: with two layers, ~146 GB of weights.
func widestHidden(meta *savedMeta) { meta.HiddenDim = maxLoadHiddenDim }

// TestLoadRejectsOversizedModel: Load must refuse a header whose geometry
// needs more parameters than the ceiling from the metadata alone, before
// newModel allocates any of them.
func TestLoadRejectsOversizedModel(t *testing.T) {
	enc := tinyEncoder()
	m := newModel(Config{Encoder: enc, GNNLayers: 2, HiddenDim: 48, Seed: 5}, fuzzTypes)
	raw := rewriteCheckpoint(t, m, CheckpointVersion, widestHidden)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Load(bytes.NewReader(raw), Config{Encoder: enc})
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "parameters") {
		t.Fatalf("err = %v, want one naming the parameter count", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("Load allocated %d bytes before refusing the header", grew)
	}
}

// TestModelParamsCountsNewModel: the count validateMeta bounds is the
// number of parameters newModel allocates, and the ceiling admits a
// paper-scale model (768-wide encoder, 2 GNN layers, 462 types).
func TestModelParamsCountsNewModel(t *testing.T) {
	enc := tinyEncoder()
	for _, cfg := range []Config{
		{Encoder: enc, GNNLayers: 2, HiddenDim: 48},
		{Encoder: enc, GNNLayers: 3},
		{Encoder: enc, PlainLMStates: true},
	} {
		m := newModel(cfg, fuzzTypes)
		got := modelParams(m.stateDim(), enc.Dim(), cfg.HiddenDim, cfg.GNNLayers, len(fuzzTypes))
		if want := int64(m.params.Count()); got != want {
			t.Errorf("hidden dim %d, %d GNN layers, plain %v: modelParams = %d, newModel allocates %d",
				cfg.HiddenDim, cfg.GNNLayers, cfg.PlainLMStates, got, want)
		}
	}
	paper := &savedMeta{GNNLayers: 2, Types: make([]string, 462)}
	for i := range paper.Types {
		paper.Types[i] = fmt.Sprintf("type%d", i)
	}
	if err := validateMeta(paper, lm.PaperScaleConfig().Dim); err != nil {
		t.Fatalf("paper-scale model rejected: %v", err)
	}
}

func TestLoadRejectsBadMagicAndVersionZero(t *testing.T) {
	enc := tinyEncoder()
	m := newModel(Config{Encoder: enc, GNNLayers: 1, HiddenDim: 32, Seed: 3},
		[]string{"player.age"})
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}

	// Pre-versioning stream: the payload without its header.
	if _, err := Load(bytes.NewReader(buf.Bytes()[len(checkpointMagic)+4:]), Config{Encoder: enc}); err == nil {
		t.Fatal("headerless checkpoint accepted")
	}
	// Version 0 is a corrupt header, not a valid older format.
	raw := append([]byte(nil), buf.Bytes()...)
	binary.BigEndian.PutUint32(raw[len(checkpointMagic):], 0)
	if _, err := Load(bytes.NewReader(raw), Config{Encoder: enc}); err == nil {
		t.Fatal("version-0 checkpoint accepted")
	}
	// Truncated inside the header.
	if _, err := Load(bytes.NewReader(buf.Bytes()[:5]), Config{Encoder: enc}); err == nil {
		t.Fatal("truncated header accepted")
	}
}

// driftTable is a two-column probe the drift tests compute baselines over.
var driftTable = &table.Table{Name: "T", ID: "t1", Columns: []*table.Column{
	{Header: "age", Kind: table.KindNumeric, NumValues: []float64{21, 34, 28}},
	{Header: "team", Kind: table.KindText, TextValues: []string{"ATL", "BOS", "CHI"}},
}}

// TestDriftBaselineCheckpointRoundTrip: the baseline a model carries comes
// back from Save→Load exactly, and DriftMonitor accepts it.
func TestDriftBaselineCheckpointRoundTrip(t *testing.T) {
	enc := tinyEncoder()
	m := newModel(Config{Encoder: enc, GNNLayers: 1, HiddenDim: 32, Seed: 3},
		[]string{"player.age", "team.name", "game.attendance"})
	base := m.ComputeDriftBaseline([]*table.Table{driftTable})
	if base.Total() != 2 {
		t.Fatalf("baseline total = %d, want one count per column", base.Total())
	}
	if len(base.ConfCounts) != len(obs.ConfidenceBuckets)+1 {
		t.Fatalf("baseline confidence counts = %d, want one per ConfidenceBuckets bucket", len(base.ConfCounts))
	}
	if got := m.DriftBaseline(); got.Total() != 0 {
		t.Fatalf("ComputeDriftBaseline set the model's baseline: %+v", got)
	}
	m.SetDriftBaseline(base)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf, Config{Encoder: enc})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.DriftBaseline(), base) {
		t.Fatalf("round trip diverged: %+v, want %+v", got.DriftBaseline(), base)
	}
	if mon := obs.NewDriftMonitor(got.DriftBaseline()); mon == nil {
		t.Fatal("round-tripped baseline rejected by DriftMonitor")
	}
}

// TestDriftBaselineSaveDeterministic: a model carrying a baseline saves to
// the same bytes every time — the type counts are not a gob map, whose
// encoding order is random.
func TestDriftBaselineSaveDeterministic(t *testing.T) {
	m := newModel(Config{Encoder: tinyEncoder(), GNNLayers: 1, HiddenDim: 32, Seed: 3}, fuzzTypes)
	m.SetDriftBaseline(obs.DriftBaseline{
		TypeCounts: map[string]uint64{"player.age": 5, "player.height": 2, "team.name": 9},
		ConfCounts: make([]uint64, len(obs.ConfidenceBuckets)+1),
	})
	var first bytes.Buffer
	if err := m.Save(&first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		var again bytes.Buffer
		if err := m.Save(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatalf("save %d differs from the first", i+2)
		}
	}
}

// preDriftCheckpoint encodes m as a binary from before checkpoints carried
// the drift baseline wrote it: the same header, and savedMeta without the
// Drift* fields. gob matches struct fields by name, so the local type
// stands in for the old one.
func preDriftCheckpoint(tb testing.TB, m *Model) []byte {
	tb.Helper()
	type savedMeta struct {
		Types             []string
		Hidden            int
		Encoder           lm.Config
		HiddenDim         int
		GNNLayers         int
		PlainLMStates     bool
		Graph             graph.BuildOptions
		FeatMean, FeatStd []float64
		LMMean, LMStd     []float64
		Temperature       float64
	}
	var buf bytes.Buffer
	if err := writeHeader(&buf, CheckpointVersion); err != nil {
		tb.Fatal(err)
	}
	ge := gob.NewEncoder(&buf)
	meta := savedMeta{
		Types: m.types, Encoder: m.enc.Config(), HiddenDim: m.cfg.HiddenDim,
		GNNLayers: m.cfg.GNNLayers, PlainLMStates: m.cfg.PlainLMStates,
		Graph: m.cfg.Graph, FeatMean: m.featMean, FeatStd: m.featStd,
		LMMean: m.lmMean, LMStd: m.lmStd, Temperature: m.temperature,
	}
	if err := ge.Encode(meta); err != nil {
		tb.Fatal(err)
	}
	if err := m.params.EncodeGob(ge); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadPreDriftCheckpoint: a checkpoint written before checkpoints
// carried a baseline loads and predicts as before, with an empty baseline
// for which NewDriftMonitor returns nil — it serves without drift
// telemetry.
func TestLoadPreDriftCheckpoint(t *testing.T) {
	enc := tinyEncoder()
	m := newModel(Config{Encoder: enc, GNNLayers: 1, HiddenDim: 32, Seed: 3},
		[]string{"player.age", "team.name"})
	got, err := Load(bytes.NewReader(preDriftCheckpoint(t, m)), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if b := got.DriftBaseline(); b.Total() != 0 || len(b.ConfCounts) != 0 {
		t.Fatalf("pre-drift checkpoint loaded a baseline: %+v", b)
	}
	if mon := obs.NewDriftMonitor(got.DriftBaseline()); mon != nil {
		t.Fatal("NewDriftMonitor built a monitor for a checkpoint without a baseline")
	}
	want, have := predictOne(m, driftTable), predictOne(got, driftTable)
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("column %d: %+v, want %+v", i, have[i], want[i])
		}
	}
}

// boundsMeta is savedMeta as a binary whose drift baseline carried its own
// confidence bounds wrote it: DriftConfBounds held the bounds the counts
// were taken over, always LinearBuckets(0.05, 0.05, 20), and Load read them
// from the file. gob matches struct fields by name, so this type stands in
// for the old one.
type boundsMeta struct {
	Types             []string
	Hidden            int
	Encoder           lm.Config
	HiddenDim         int
	GNNLayers         int
	PlainLMStates     bool
	Graph             graph.BuildOptions
	FeatMean, FeatStd []float64
	LMMean, LMStd     []float64
	Temperature       float64
	DriftTypeCounts   []uint64
	DriftConfBounds   []float64
	DriftConfCounts   []uint64
}

// decodeBoundsMeta decodes a checkpoint's metadata as that binary did.
func decodeBoundsMeta(tb testing.TB, raw []byte) boundsMeta {
	tb.Helper()
	var meta boundsMeta
	if err := gob.NewDecoder(bytes.NewReader(raw[len(checkpointMagic)+4:])).Decode(&meta); err != nil {
		tb.Fatal(err)
	}
	return meta
}

// TestLoadBoundsCheckpoint: a checkpoint whose baseline stored its own
// confidence bounds loads with the same baseline, and Save writes the same
// metadata, so a binary that reads the bounds from the file loads what this
// one saves.
func TestLoadBoundsCheckpoint(t *testing.T) {
	enc := tinyEncoder()
	m := driftModel(Config{Encoder: enc, GNNLayers: 1, HiddenDim: 32, Seed: 3})
	b := m.DriftBaseline()
	meta := boundsMeta{
		Types: m.types, Encoder: m.enc.Config(), HiddenDim: m.cfg.HiddenDim,
		GNNLayers: m.cfg.GNNLayers, PlainLMStates: m.cfg.PlainLMStates,
		Graph: m.cfg.Graph, FeatMean: m.featMean, FeatStd: m.featStd,
		LMMean: m.lmMean, LMStd: m.lmStd, Temperature: m.temperature,
		DriftTypeCounts: make([]uint64, len(m.types)),
		DriftConfBounds: obs.LinearBuckets(0.05, 0.05, 20),
		DriftConfCounts: b.ConfCounts,
	}
	for i, name := range m.types {
		meta.DriftTypeCounts[i] = b.TypeCounts[name]
	}
	var old bytes.Buffer
	if err := writeHeader(&old, CheckpointVersion); err != nil {
		t.Fatal(err)
	}
	ge := gob.NewEncoder(&old)
	if err := ge.Encode(meta); err != nil {
		t.Fatal(err)
	}
	if err := m.params.EncodeGob(ge); err != nil {
		t.Fatal(err)
	}
	raw := old.Bytes()
	got, err := Load(bytes.NewReader(raw), Config{Encoder: enc})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.DriftBaseline(), b) {
		t.Fatalf("baseline %+v, want %+v", got.DriftBaseline(), b)
	}

	var saved bytes.Buffer
	if err := m.Save(&saved); err != nil {
		t.Fatal(err)
	}
	if have, want := decodeBoundsMeta(t, saved.Bytes()), decodeBoundsMeta(t, raw); !reflect.DeepEqual(have, want) {
		t.Fatalf("Save wrote metadata %+v, want %+v", have, want)
	}
}

// TestSaveRejectsUnknownDriftType: a baseline naming a type outside the
// model's vocabulary has no slot in the checkpoint, so Save fails before
// writing anything; so does one shaped so Load would reject it.
func TestSaveRejectsUnknownDriftType(t *testing.T) {
	m := newModel(Config{Encoder: tinyEncoder(), GNNLayers: 1, HiddenDim: 32, Seed: 3}, fuzzTypes)
	for _, tc := range []struct {
		b    obs.DriftBaseline
		want string
	}{
		{obs.DriftBaseline{TypeCounts: map[string]uint64{"player.age": 1, "city.name": 2}}, "city.name"},
		{obs.DriftBaseline{TypeCounts: map[string]uint64{"player.age": 1}, ConfCounts: make([]uint64, len(obs.ConfidenceBuckets))}, "confidence counts"},
	} {
		m.SetDriftBaseline(tc.b)
		var buf bytes.Buffer
		err := m.Save(&buf)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("err = %v, want one naming %q", err, tc.want)
		}
		if buf.Len() != 0 {
			t.Fatalf("Save wrote %d bytes before failing", buf.Len())
		}
	}
}

// malformedDrift lists the stored-baseline shapes Load rejects, for
// TestLoadRejectsMalformedDriftBaseline and FuzzModelLoad's seeds. Each
// edit starts from a checkpoint carrying a valid baseline over fuzzTypes.
var malformedDrift = []struct {
	name, want string
	edit       func(*savedMeta)
}{
	{"type counts not aligned with types", "type counts", func(m *savedMeta) { m.DriftTypeCounts = m.DriftTypeCounts[:1] }},
	// Summing to exactly 2^64, these would wrap Total to 0.
	{"type counts overflow", "overflow", func(m *savedMeta) {
		clear(m.DriftTypeCounts)
		m.DriftTypeCounts[0], m.DriftTypeCounts[1] = 1<<63, 1<<63
	}},
	{"too many bounds", "confidence bounds", func(m *savedMeta) {
		m.DriftConfBounds = make([]float64, len(obs.ConfidenceBuckets)+1)
		for i := range m.DriftConfBounds {
			m.DriftConfBounds[i] = float64(i)
		}
		m.DriftConfCounts = make([]uint64, len(m.DriftConfBounds)+1)
	}},
	{"NaN bound", "confidence bounds", func(m *savedMeta) { m.DriftConfBounds[3] = math.NaN() }},
	{"infinite bound", "confidence bounds", func(m *savedMeta) { m.DriftConfBounds[19] = math.Inf(1) }},
	{"repeated bound", "confidence bounds", func(m *savedMeta) { m.DriftConfBounds[5] = m.DriftConfBounds[4] }},
	{"descending bounds", "confidence bounds", func(m *savedMeta) { m.DriftConfBounds[0], m.DriftConfBounds[1] = 0.5, 0.1 }},
	{"bounds other than ConfidenceBuckets", "confidence bounds", func(m *savedMeta) {
		m.DriftConfBounds = obs.LinearBuckets(0.1, 0.1, 10)
		m.DriftConfCounts = make([]uint64, len(m.DriftConfBounds)+1)
	}},
	{"counts one short", "confidence counts", func(m *savedMeta) { m.DriftConfCounts = m.DriftConfCounts[1:] }},
	{"counts without bounds", "confidence bounds", func(m *savedMeta) { m.DriftConfBounds = nil }},
	{"bounds without counts", "confidence counts", func(m *savedMeta) { m.DriftConfCounts = nil }},
}

// driftModel is an untrained model over fuzzTypes carrying a valid
// baseline that names every type.
func driftModel(cfg Config) *Model {
	m := newModel(cfg, fuzzTypes)
	counts := make([]uint64, len(obs.ConfidenceBuckets)+1)
	counts[3], counts[20] = 4, 3
	m.SetDriftBaseline(obs.DriftBaseline{
		TypeCounts: map[string]uint64{"player.age": 3, "player.height": 1, "team.name": 3},
		ConfCounts: counts,
	})
	return m
}

// TestLoadRejectsMalformedDriftBaseline: a stored baseline DriftMonitor
// could not score against is a load error, like any other corrupt
// checkpoint.
func TestLoadRejectsMalformedDriftBaseline(t *testing.T) {
	enc := tinyEncoder()
	m := driftModel(Config{Encoder: enc, GNNLayers: 1, HiddenDim: 32, Seed: 3})
	if _, err := Load(bytes.NewReader(rewriteCheckpoint(t, m, CheckpointVersion, func(*savedMeta) {})), Config{Encoder: enc}); err != nil {
		t.Fatalf("valid baseline rejected: %v", err)
	}
	for _, tc := range malformedDrift {
		raw := rewriteCheckpoint(t, m, CheckpointVersion, tc.edit)
		_, err := Load(bytes.NewReader(raw), Config{Encoder: enc})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}
