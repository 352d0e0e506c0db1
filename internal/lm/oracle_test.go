package lm

import (
	"fmt"
	"math"
	"testing"

	"github.com/sematype/pythagoras/internal/tensor"
)

// The oracle: the transformer as it was before it ran on pooled buffers
// and the product kernel, one allocated matrix per step, scalar attention
// loops and geluF32. Only the names differ; the new path must match its
// every bit.

// oracleEncodeTokens is the old encodeTokens.
func (e *Encoder) oracleEncodeTokens(tokens []string, outRows int) *tensor.F32 {
	if len(tokens) > e.cfg.MaxLen {
		tokens = tokens[:e.cfg.MaxLen]
	}
	n := len(tokens)
	if n == 0 {
		return tensor.NewF32(0, e.cfg.Dim)
	}
	h := tensor.NewF32(n, e.cfg.Dim)
	for i, tok := range tokens {
		emb := e.TokenEmbedding(tok)
		row := h.Row(i)
		copy(row, emb)
		prow := e.pos.Row(i)
		for j := range row {
			row[j] += 0.1 * prow[j]
		}
	}
	for l, lw := range e.layers {
		rows := n
		if l == len(e.layers)-1 {
			rows = min(outRows, n)
		}
		h = e.oracleEncoderLayer(h, lw, rows)
	}
	return h
}

// oracleMatMulF32 is the old matMulF32.
func oracleMatMulF32(a, b *tensor.F32) *tensor.F32 {
	out := tensor.NewF32(a.Rows, b.Cols)
	tensor.MatMulF32Into(out, a, b)
	return out
}

// oracleEncoderLayer is the old encoderLayer. It applies one frozen
// transformer block to the first rows tokens of h, attending over all of
// them: multi-head self-attention with residual + layernorm, then a GELU
// FFN with residual + layernorm. All storage is float32; softmax and
// layernorm use float64 scalar math (exp/sqrt) on float32 inputs — still
// fully deterministic.
func (e *Encoder) oracleEncoderLayer(h *tensor.F32, lw layerWeights, rows int) *tensor.F32 {
	n, dim := h.Rows, e.cfg.Dim
	heads := e.cfg.Heads
	hd := dim / heads
	top := &tensor.F32{Rows: rows, Cols: dim, Data: h.Data[:rows*dim]}

	q := oracleMatMulF32(top, lw.wq)
	k := oracleMatMulF32(h, lw.wk)
	v := oracleMatMulF32(h, lw.wv)

	ctx := tensor.NewF32(rows, dim)
	scale := 1 / math.Sqrt(float64(hd))
	scores := make([]float64, n)
	for hd0 := 0; hd0 < heads; hd0++ {
		off := hd0 * hd
		for i := 0; i < rows; i++ {
			qi := q.Row(i)[off : off+hd]
			mx := math.Inf(-1)
			for j := 0; j < n; j++ {
				kj := k.Row(j)[off : off+hd]
				var s float32
				for d := 0; d < hd; d++ {
					s += qi[d] * kj[d]
				}
				sf := float64(s) * scale
				scores[j] = sf
				if sf > mx {
					mx = sf
				}
			}
			var z float64
			for j := 0; j < n; j++ {
				scores[j] = math.Exp(scores[j] - mx)
				z += scores[j]
			}
			crow := ctx.Row(i)[off : off+hd]
			for j := 0; j < n; j++ {
				w := float32(scores[j] / z)
				vj := v.Row(j)[off : off+hd]
				for d := 0; d < hd; d++ {
					crow[d] += w * vj[d]
				}
			}
		}
	}
	attnOut := oracleMatMulF32(ctx, lw.wo)
	h1 := tensor.NewF32(rows, dim)
	for i, hv := range top.Data {
		h1.Data[i] = hv + attnOut.Data[i]
	}
	layerNormInPlaceF32(h1)

	ffn := oracleMatMulF32(h1, lw.ffn1)
	for i := 0; i < rows; i++ {
		row := ffn.Row(i)
		for j, bv := range lw.ffn1b.Data {
			row[j] = geluF32(row[j] + bv)
		}
	}
	ffnOut := oracleMatMulF32(ffn, lw.ffn2)
	h2 := tensor.NewF32(rows, dim)
	for i := 0; i < rows; i++ {
		row := ffnOut.Row(i)
		h1row := h1.Row(i)
		orow := h2.Row(i)
		for j, bv := range lw.ffn2b.Data {
			orow[j] = h1row[j] + row[j] + bv
		}
	}
	layerNormInPlaceF32(h2)
	return h2
}

// requireSameBits fails unless got and want hold the same float32 bits.
func requireSameBits(t *testing.T, what string, got, want *tensor.F32) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: %dx%d, oracle %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d (row %d) = %v, oracle %v", what, i, i/want.Cols, got.Data[i], want.Data[i])
		}
	}
}

// oracleConfigs are bitConfigs and a geometry whose head width, 12, and
// model width, 60, are not multiples of the kernel's 8-column strips.
func oracleConfigs() []bitConfig {
	odd := DefaultConfig()
	odd.Dim, odd.Heads, odd.FFNDim = 60, 5, 120
	return append(bitConfigs(), bitConfig{"dim60heads5", odd})
}

// TestEncodeMatchesOracle pins Encode and EncodeTokens to the oracle on
// every bit-test text.
func TestEncodeMatchesOracle(t *testing.T) {
	for _, bc := range oracleConfigs() {
		e := NewEncoder(bc.cfg)
		for _, text := range bitTexts() {
			tokens := append(append([]string{TokenCLS}, e.Tokenize(text)...), TokenSEP)
			what := fmt.Sprintf("%s %q", bc.name, text)
			cls := e.Encode(text)
			requireSameBits(t, what+" Encode", &tensor.F32{Rows: 1, Cols: len(cls), Data: cls},
				&tensor.F32{Rows: 1, Cols: e.Dim(), Data: e.oracleEncodeTokens(tokens, 1).Row(0)})
			requireSameBits(t, what+" EncodeTokens", e.EncodeTokens(tokens), e.oracleEncodeTokens(tokens, len(tokens)))
		}
	}
}

// TestEncodeTokensMatchesOracle covers sequence lengths, the attention
// scores' width, that are not multiples of the kernel's 8-column strips,
// and Doduo's case: a sequence longer than MaxLen, truncated to it.
func TestEncodeTokensMatchesOracle(t *testing.T) {
	var pool []string
	for _, text := range bitTexts() {
		pool = append(pool, NewTokenizer().Tokenize(text)...)
	}
	for _, bc := range oracleConfigs() {
		e := NewEncoder(bc.cfg)
		for _, n := range []int{1, 3, 9, 17, 600} {
			tokens := make([]string, n)
			for i := range tokens {
				tokens[i] = pool[i%len(pool)]
			}
			tokens[0] = TokenCLS
			got := e.EncodeTokens(tokens)
			if want := min(n, bc.cfg.MaxLen); got.Rows != want {
				t.Fatalf("%s, %d tokens: %d rows, want %d", bc.name, n, got.Rows, want)
			}
			requireSameBits(t, fmt.Sprintf("%s, %d tokens", bc.name, n), got, e.oracleEncodeTokens(tokens, n))
		}
	}
}
