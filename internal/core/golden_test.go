//go:build amd64 && !amd64.v3

// Float64 bits are per-platform: Go may fuse x*y+z into one FMA on arm64
// and at GOAMD64=v3 and above, so the golden pins baseline amd64 only.
// There, math.Exp still has two branches, picked at run time: its assembly
// uses FMA when the CPU has AVX and FMA (math.useFMA), and the two round
// some results differently. The training loss and InferProbs both take a
// softmax through math.Exp, so every line of the golden depends on the
// branch; each branch has its own file, and `make test` runs the test
// again under GODEBUG=cpu.fma=off to check the other.

package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/sematype/pythagoras/internal/data"
	"github.com/sematype/pythagoras/internal/eval"
	"github.com/sematype/pythagoras/internal/lm"
	"github.com/sematype/pythagoras/internal/tensor"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// float64Digest is the SHA-256 of the float64 bits of every matrix, in
// order, little-endian.
func float64Digest(ms ...*tensor.Matrix) string {
	h := sha256.New()
	var buf [8]byte
	for _, m := range ms {
		for _, v := range m.Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// trainGoldenLines trains on a small fixed SportsTables corpus with the
// shipped encoder geometry and returns one "name<TAB>digest" line per
// parameter (in Params name order), then the digests of the held-out
// tables' InferProbs, one table per forward and all of them as one
// UnionPrepared batch. The corpus comes from data.GenerateSportsTables, so
// a change to that generator moves this golden and must regenerate it
// (go test ./internal/core -run TestTrainGolden -update).
func trainGoldenLines(t *testing.T) []string {
	t.Helper()
	sc := data.ReducedSportsConfig()
	sc.NumTables, sc.Seed, sc.Domains = 40, 1, 3
	c := data.GenerateSportsTables(sc)
	trainIdx, valIdx, testIdx := eval.TrainValTestSplit(len(c.Tables), rand.New(rand.NewSource(1)))
	cfg := DefaultConfig(lm.NewEncoder(lm.DefaultConfig()))
	cfg.Epochs, cfg.Patience = 4, 4
	cfg.TrainWorkers = 2
	m, err := TrainCtx(context.Background(), c, trainIdx, valIdx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, name := range m.Params().Names() {
		lines = append(lines, "param "+name+"\t"+float64Digest(m.Params().Get(name)))
	}
	ps := make([]*Prepared, len(testIdx))
	singles := make([]*tensor.Matrix, len(testIdx))
	for i, ti := range testIdx {
		ps[i] = m.Prepare(c.Tables[ti])
		singles[i], _ = m.InferProbs(ps[i])
	}
	union, _ := m.InferProbs(UnionPrepared(ps))
	lines = append(lines,
		"probs.single\t"+float64Digest(singles...),
		"probs.union\t"+float64Digest(union))
	return lines
}

// expProbe is an input on which math.Exp's FMA and non-FMA branches
// differ in the last bit; a variable, so the call runs at run time.
var expProbe = -17.0

// trainGoldenPath returns the golden file for the math.Exp branch this CPU
// takes.
func trainGoldenPath() string {
	if math.Float64bits(math.Exp(expProbe)) == 0x3e6639e3175a689d {
		return filepath.Join("testdata", "train.golden")
	}
	return filepath.Join("testdata", "train_nofma.golden")
}

// TestTrainGolden pins the bits of training and inference end to end: the
// trained parameters and the held-out probabilities. A change that only
// reorganizes the float64 GNN kernels or the autodiff ops must leave both
// golden files as they are.
func TestTrainGolden(t *testing.T) {
	path := trainGoldenPath()
	got := trainGoldenLines(t)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("golden has %d lines, training produced %d", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d: got %q, golden %q", i+1, got[i], want[i])
		}
	}
}
