//go:build amd64 && !amd64.v3

// Float32 bits are per-platform: Go may fuse x*y+z into one FMA on arm64
// and at GOAMD64=v3 and above, so the golden pins baseline amd64 only.
// There, math.Exp (the attention softmax, and math.Tanh in GELU) picks an
// FMA branch at run time when the CPU has AVX and FMA (math.useFMA). This
// golden holds on both branches; `make test` runs it again under
// GODEBUG=cpu.fma=off to keep it so.

package lm

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// encodeDigest is the SHA-256 of v's float32 bits, little-endian.
func encodeDigest(v []float32) string {
	buf := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(x))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// TestEncodeGolden pins the bits of Encode on every bitConfigs geometry.
// Each golden line is "config<TAB>digest<TAB>quoted text"; the texts live in
// the file, so a corpus-generator change cannot move this golden.
func TestEncodeGolden(t *testing.T) {
	path := filepath.Join("testdata", "encode.golden")
	if *updateGolden {
		var buf bytes.Buffer
		for _, bc := range bitConfigs() {
			e := NewEncoder(bc.cfg)
			for _, text := range bitTexts() {
				fmt.Fprintf(&buf, "%s\t%s\t%s\n", bc.name, encodeDigest(e.Encode(text)), strconv.Quote(text))
			}
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	defer f.Close()

	encoders := map[string]*Encoder{}
	for _, bc := range bitConfigs() {
		encoders[bc.name] = NewEncoder(bc.cfg)
	}
	lines := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lines++
		fields := strings.SplitN(sc.Text(), "\t", 3)
		if len(fields) != 3 {
			t.Fatalf("golden line %d: want 3 tab-separated fields", lines)
		}
		e, ok := encoders[fields[0]]
		if !ok {
			t.Fatalf("golden line %d: unknown config %q", lines, fields[0])
		}
		text, err := strconv.Unquote(fields[2])
		if err != nil {
			t.Fatalf("golden line %d: %v", lines, err)
		}
		if got := encodeDigest(e.Encode(text)); got != fields[1] {
			t.Errorf("%s %q: Encode digest %s, golden %s", fields[0], text, got, fields[1])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("golden file is empty")
	}
}
