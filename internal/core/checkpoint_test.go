package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

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
	if uv.Got != CheckpointVersion+7 || uv.Max != CheckpointVersion || uv.Artifact != "checkpoint" {
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

func TestDriftBaselineSidecarRoundTrip(t *testing.T) {
	enc := tinyEncoder()
	m := newModel(Config{Encoder: enc, GNNLayers: 1, HiddenDim: 32, Seed: 3},
		[]string{"player.age", "team.name", "game.attendance"})
	tb := &table.Table{Name: "T", ID: "t1", Columns: []*table.Column{
		{Header: "age", Kind: table.KindNumeric, NumValues: []float64{21, 34, 28}},
		{Header: "team", Kind: table.KindText, TextValues: []string{"ATL", "BOS", "CHI"}},
	}}
	base := m.ComputeDriftBaseline([]*table.Table{tb})
	if base.Total() != 2 {
		t.Fatalf("baseline total = %d, want one count per column", base.Total())
	}
	if len(base.ConfBounds) != len(obs.ConfidenceBuckets) {
		t.Fatalf("baseline bounds = %d, want the shared ConfidenceBuckets", len(base.ConfBounds))
	}

	path := filepath.Join(t.TempDir(), "model.ckpt.drift.json")
	if err := SaveDriftBaseline(path, base); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDriftBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Total() != base.Total() || len(got.ConfCounts) != len(base.ConfCounts) {
		t.Fatalf("sidecar round trip diverged: %+v vs %+v", got, base)
	}
	if mon := obs.NewDriftMonitor(got); mon == nil {
		t.Fatal("round-tripped baseline rejected by DriftMonitor")
	}
}

func TestDriftBaselineSidecarVersioned(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.drift.json")
	base := obs.DriftBaseline{TypeCounts: map[string]uint64{"a": 1}}
	if err := SaveDriftBaseline(path, base); err != nil {
		t.Fatal(err)
	}
	// Bump the sidecar's version in place: same typed rejection as the
	// checkpoint.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(raw[len(checkpointMagic):], DriftBaselineVersion+1)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadDriftBaseline(path)
	var uv *UnsupportedVersionError
	if !errors.As(err, &uv) {
		t.Fatalf("future-version sidecar: err = %v, want *UnsupportedVersionError", err)
	}
	if uv.Artifact != "drift baseline" {
		t.Fatalf("artifact = %q", uv.Artifact)
	}
	if _, err := LoadDriftBaseline(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing sidecar load succeeded")
	}
}

func TestDriftSidecarPath(t *testing.T) {
	if got := DriftSidecarPath("/models/m.ckpt"); got != "/models/m.ckpt.drift.json" {
		t.Fatalf("DriftSidecarPath = %q", got)
	}
}

// TestLoadServing covers the one-call serving load: checkpoint plus
// optional sidecar, with the degradation ladder the lifecycle manager
// depends on — no sidecar serves silently, a broken sidecar serves with
// DriftErr, a broken checkpoint never serves.
func TestLoadServing(t *testing.T) {
	enc := tinyEncoder()
	cfg := Config{Encoder: enc, GNNLayers: 1, HiddenDim: 32, Seed: 3}
	m := newModel(cfg, []string{"player.age", "team.name"})
	dir := t.TempDir()
	path := filepath.Join(dir, "m.ckpt")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	// No sidecar: model loads, no monitor, no error.
	b, err := LoadServing(path, Config{Encoder: enc})
	if err != nil {
		t.Fatal(err)
	}
	if b.Drift != nil || b.DriftErr != nil || len(b.Model.Types()) != 2 {
		t.Fatalf("sidecar-less bundle: %+v", b)
	}

	// Healthy sidecar: monitor attached.
	tb := &table.Table{Name: "T", ID: "t1", Columns: []*table.Column{
		{Header: "age", Kind: table.KindNumeric, NumValues: []float64{21, 34, 28}},
	}}
	if err := SaveDriftBaseline(DriftSidecarPath(path), m.ComputeDriftBaseline([]*table.Table{tb})); err != nil {
		t.Fatal(err)
	}
	b, err = LoadServing(path, Config{Encoder: enc})
	if err != nil || b.Drift == nil || b.DriftErr != nil {
		t.Fatalf("bundle with sidecar: %+v (err %v)", b, err)
	}

	// Corrupt sidecar: the model still serves, DriftErr says why there is
	// no drift telemetry.
	if err := os.WriteFile(DriftSidecarPath(path), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err = LoadServing(path, Config{Encoder: enc})
	if err != nil {
		t.Fatalf("corrupt sidecar must not fail the load: %v", err)
	}
	if b.Drift != nil || b.DriftErr == nil {
		t.Fatalf("corrupt-sidecar bundle: %+v", b)
	}

	// Broken checkpoint: fatal, regardless of sidecar state.
	if _, err := LoadServing(filepath.Join(dir, "missing.ckpt"), Config{Encoder: enc}); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing checkpoint err = %v, want ErrNotExist", err)
	}
}

// TestDriftBaselineSaveErrors: unwritable paths surface as errors instead
// of silent telemetry loss.
func TestDriftBaselineSaveErrors(t *testing.T) {
	err := SaveDriftBaseline(filepath.Join(t.TempDir(), "no", "such", "dir", "x.json"),
		obs.DriftBaseline{TypeCounts: map[string]uint64{"a": 1}})
	if err == nil {
		t.Fatal("SaveDriftBaseline into a missing directory succeeded")
	}
}
