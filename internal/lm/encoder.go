package lm

import (
	"math"
	"math/rand"

	"github.com/sematype/pythagoras/internal/tensor"
)

// Config describes the frozen encoder. Dim plays the role of BERT's hidden
// size (768 in the paper; we default to a smaller width — the architecture
// is width-agnostic and the paper's 768 is a flag away).
type Config struct {
	Dim     int // hidden width of token states and output embeddings
	Layers  int // transformer encoder layers
	Heads   int // attention heads; must divide Dim
	FFNDim  int // feed-forward inner width (default 2*Dim)
	MaxLen  int // maximum sequence length incl. [CLS]/[SEP] (BERT: 512)
	Buckets int // hashed subword embedding buckets
	Seed    int64
}

// DefaultConfig returns the configuration used across tests and the
// reduced-scale experiment harness.
func DefaultConfig() Config {
	return Config{Dim: 64, Layers: 2, Heads: 4, FFNDim: 128, MaxLen: 512, Buckets: 1 << 16, Seed: 20240325}
}

// PaperScaleConfig mirrors bert-base-uncased's geometry.
func PaperScaleConfig() Config {
	return Config{Dim: 768, Layers: 12, Heads: 12, FFNDim: 3072, MaxLen: 512, Buckets: 1 << 18, Seed: 20240325}
}

type layerWeights struct {
	wq, wk, wv, wo *tensor.F32 // Dim×Dim
	ffn1           *tensor.F32 // Dim×FFNDim
	ffn1b          *tensor.F32 // 1×FFNDim
	ffn2           *tensor.F32 // FFNDim×Dim
	ffn2b          *tensor.F32 // 1×Dim
}

// Encoder is the frozen pseudo-BERT. Because its weights are frozen —
// never trained, never needing float64 gradient precision — all storage
// and arithmetic are float32: half the cache footprint for the weights,
// caches, and per-token states the encode stage streams through. float32
// arithmetic is exactly as deterministic as float64 (same inputs → same
// bits, on every run and every worker count); values widen to float64 only
// when encoder output crosses into the float64 training tape (see
// tensor.WidenInto and DESIGN.md §12).
//
// It is safe for concurrent use; the embedding caches are sharded and
// RW-locked so parallel encoders (the inference engine's prepare workers)
// don't serialize on a single mutex.
type Encoder struct {
	cfg    Config
	tok    *Tokenizer
	layers []layerWeights
	pos    *tensor.F32 // MaxLen×Dim sinusoidal positions
	cls    []float32   // dedicated [CLS] embedding
	sep    []float32   // dedicated [SEP] embedding

	tokenVecs *vecCache // hashed token embedding cache
	textVecs  *vecCache // full-text CLS cache
}

// Cache bounds: both caches drop a full shard when it exceeds its share of
// the bound — entries are deterministic recomputations, so eviction costs
// latency, never correctness. Token vocabulary is small and hot; text keys
// are unbounded under lake-scale traffic, so the text bound matches the
// pre-shard cache's 1<<17 cap.
const (
	tokenCacheCap = 1 << 16
	textCacheCap  = 1 << 17
)

// NewEncoder builds the frozen encoder. All weights derive deterministically
// from cfg.Seed, so two encoders with equal configs are functionally
// identical ("the same pre-trained checkpoint"). Weights are drawn in
// float64 (the rng stream is unchanged from the float64 encoder) and
// rounded once to float32 storage.
func NewEncoder(cfg Config) *Encoder {
	if cfg.FFNDim == 0 {
		cfg.FFNDim = 2 * cfg.Dim
	}
	if cfg.Heads == 0 || cfg.Dim%cfg.Heads != 0 {
		panic("lm: Heads must divide Dim")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	e := &Encoder{
		cfg:       cfg,
		tok:       NewTokenizer(),
		tokenVecs: newVecCache(tokenCacheCap),
		textVecs:  newVecCache(textCacheCap),
	}
	scaled := func(rows, cols int) *tensor.F32 {
		m := tensor.NewF32(rows, cols)
		std := 1 / math.Sqrt(float64(rows))
		for i := range m.Data {
			m.Data[i] = float32(rng.NormFloat64() * std)
		}
		return m
	}
	for l := 0; l < cfg.Layers; l++ {
		e.layers = append(e.layers, layerWeights{
			wq: scaled(cfg.Dim, cfg.Dim), wk: scaled(cfg.Dim, cfg.Dim),
			wv: scaled(cfg.Dim, cfg.Dim), wo: scaled(cfg.Dim, cfg.Dim),
			ffn1: scaled(cfg.Dim, cfg.FFNDim), ffn1b: tensor.NewF32(1, cfg.FFNDim),
			ffn2: scaled(cfg.FFNDim, cfg.Dim), ffn2b: tensor.NewF32(1, cfg.Dim),
		})
	}
	e.pos = sinusoidalPositions(cfg.MaxLen, cfg.Dim)
	e.cls = randomUnit(rng, cfg.Dim)
	e.sep = randomUnit(rng, cfg.Dim)
	return e
}

// Config returns the encoder's configuration.
func (e *Encoder) Config() Config { return e.cfg }

// Dim returns the output embedding width.
func (e *Encoder) Dim() int { return e.cfg.Dim }

func randomUnit(rng *rand.Rand, dim int) []float32 {
	v := make([]float64, dim)
	var n float64
	for i := range v {
		v[i] = rng.NormFloat64()
		n += v[i] * v[i]
	}
	n = math.Sqrt(n)
	out := make([]float32, dim)
	for i := range v {
		out[i] = float32(v[i] / n)
	}
	return out
}

func sinusoidalPositions(maxLen, dim int) *tensor.F32 {
	p := tensor.NewF32(maxLen, dim)
	for pos := 0; pos < maxLen; pos++ {
		row := p.Row(pos)
		for i := 0; i < dim; i += 2 {
			freq := math.Pow(10000, -float64(i)/float64(dim))
			row[i] = float32(math.Sin(float64(pos) * freq))
			if i+1 < dim {
				row[i+1] = float32(math.Cos(float64(pos) * freq))
			}
		}
	}
	return p
}

// splitmix64 is the deterministic hash driving all "pre-trained" token
// embeddings.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func hashString(s string, salt uint64) uint64 {
	h := uint64(14695981039346656037) ^ splitmix64(salt)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// bucketVec deterministically generates the embedding for one hash bucket.
// Accumulation happens in float64 — the n-gram sum in TokenEmbedding is the
// one place catastrophic cancellation could bite float32, and it is cold
// (cached); results are narrowed once at the cache boundary.
func (e *Encoder) bucketVec(bucket uint64, out []float64, scale float64) {
	state := splitmix64(bucket)
	for i := range out {
		state = splitmix64(state)
		// map to approximately N(0,1) via sum of two uniforms (fast,
		// deterministic, good enough for random features)
		u1 := float64(state>>11) / (1 << 53)
		state = splitmix64(state)
		u2 := float64(state>>11) / (1 << 53)
		out[i] += scale * (u1 + u2 - 1) * 3.46 // var(U+U-1)=1/6 → ·√12
	}
}

// TokenEmbedding returns the frozen embedding of one token: the sum of its
// whole-token hash vector and its character 3–5-gram hash vectors
// (fastText-style), L2-normalized. Results are cached.
func (e *Encoder) TokenEmbedding(token string) []float32 {
	switch token {
	case TokenCLS:
		return e.cls
	case TokenSEP:
		return e.sep
	}
	if v, ok := e.tokenVecs.get(token); ok {
		return v
	}
	return e.embedToken(token)
}

// tokenEmbedding is TokenEmbedding for a token held as bytes; a cached
// token costs no allocation.
func (e *Encoder) tokenEmbedding(token []byte) []float32 {
	switch {
	case string(token) == TokenCLS:
		return e.cls
	case string(token) == TokenSEP:
		return e.sep
	}
	if v, ok := e.tokenVecs.getBytes(token); ok {
		return v
	}
	return e.embedToken(string(token))
}

// AddTokenEmbeddings tokenizes text into tb and adds each token's frozen
// embedding, widened to float64, to acc in token order; it returns the
// token count. With every token cached it allocates only to grow tb.
func (e *Encoder) AddTokenEmbeddings(acc []float64, text string, tb *TokenBuf) int {
	e.tok.tokenize(tb, text)
	for i := range tb.ends {
		for j, x := range e.tokenEmbedding(tb.token(i)) {
			acc[j] += float64(x)
		}
	}
	return len(tb.ends)
}

// embedToken computes and caches the embedding of a token missing from the
// cache.
func (e *Encoder) embedToken(token string) []float32 {
	dim := e.cfg.Dim
	v := make([]float64, dim)
	mask := uint64(e.cfg.Buckets - 1)
	e.bucketVec(hashString(token, 1)&mask, v, 1)
	padded := "<" + token + ">"
	ngrams := 0
	for n := 3; n <= 5; n++ {
		for i := 0; i+n <= len(padded); i++ {
			ngrams++
		}
	}
	if ngrams > 0 {
		scale := 1 / math.Sqrt(float64(ngrams))
		for n := 3; n <= 5; n++ {
			for i := 0; i+n <= len(padded); i++ {
				e.bucketVec(hashString(padded[i:i+n], 2)&mask, v, scale)
			}
		}
	}
	var norm float64
	for _, x := range v {
		norm += x * x
	}
	if norm > 0 {
		norm = math.Sqrt(norm)
	} else {
		norm = 1
	}
	vf := make([]float32, dim)
	for i, x := range v {
		vf[i] = float32(x / norm)
	}
	return e.tokenVecs.put(token, vf)
}

// EncodeTokens runs the frozen transformer over a token sequence (already
// including [CLS]/[SEP] as desired) and returns the final hidden state of
// every token as a len(tokens)×Dim float32 matrix. Sequences longer than
// MaxLen are truncated — the same hard limit the paper discusses for Doduo.
func (e *Encoder) EncodeTokens(tokens []string) *tensor.F32 {
	return e.encodeTokens(tokens, len(tokens))
}

// encodeTokens is EncodeTokens computing the final layer for only the first
// outRows tokens. Every layer still reads all tokens: the final layer
// projects K and V for each of them, and the rest of that layer (Q,
// attention, Wo, residuals, layer norms, FFN) is row-wise, so the rows it
// returns carry the same bits as the full pass.
func (e *Encoder) encodeTokens(tokens []string, outRows int) *tensor.F32 {
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
		h = e.encoderLayer(h, lw, rows)
	}
	return h
}

func matMulF32(a, b *tensor.F32) *tensor.F32 {
	out := tensor.NewF32(a.Rows, b.Cols)
	tensor.MatMulF32Into(out, a, b)
	return out
}

// encoderLayer applies one frozen transformer block to the first rows
// tokens of h, attending over all of them: multi-head self-attention with
// residual + layernorm, then a GELU FFN with residual + layernorm. All
// storage is float32; softmax and layernorm use float64 scalar math
// (exp/sqrt) on float32 inputs — still fully deterministic.
func (e *Encoder) encoderLayer(h *tensor.F32, lw layerWeights, rows int) *tensor.F32 {
	n, dim := h.Rows, e.cfg.Dim
	heads := e.cfg.Heads
	hd := dim / heads
	top := &tensor.F32{Rows: rows, Cols: dim, Data: h.Data[:rows*dim]}

	q := matMulF32(top, lw.wq)
	k := matMulF32(h, lw.wk)
	v := matMulF32(h, lw.wv)

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
	attnOut := matMulF32(ctx, lw.wo)
	h1 := tensor.NewF32(rows, dim)
	for i, hv := range top.Data {
		h1.Data[i] = hv + attnOut.Data[i]
	}
	layerNormInPlaceF32(h1)

	ffn := matMulF32(h1, lw.ffn1)
	for i := 0; i < rows; i++ {
		row := ffn.Row(i)
		for j, bv := range lw.ffn1b.Data {
			row[j] = geluF32(row[j] + bv)
		}
	}
	ffnOut := matMulF32(ffn, lw.ffn2)
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

func gelu(x float64) float64 {
	return 0.5 * x * (1 + math.Tanh(0.7978845608*(x+0.044715*x*x*x)))
}

func geluF32(x float32) float32 {
	return float32(gelu(float64(x)))
}

func layerNormInPlaceF32(m *tensor.F32) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var mean float64
		for _, v := range row {
			mean += float64(v)
		}
		mean /= float64(len(row))
		var varr float64
		for _, v := range row {
			d := float64(v) - mean
			varr += d * d
		}
		varr /= float64(len(row))
		inv := 1 / math.Sqrt(varr+1e-6)
		for j := range row {
			row[j] = float32((float64(row[j]) - mean) * inv)
		}
	}
}

// Encode returns the CLS vector of "[CLS] text [SEP]" — the paper's initial
// node representation, in the encoder's native float32. Results are cached
// per distinct text; the returned slice is shared and must not be mutated.
// Callers feeding a float64 tape widen at the copy (the tape boundary).
// Node texts from table.SerializeColumn already carry [CLS] … [SEP], so
// their sequences read [CLS] [CLS] … [SEP] [SEP]; the double wrap is kept
// on purpose, since dropping it moves every embedding (DESIGN.md §12).
// Only the CLS row of the final layer is computed.
func (e *Encoder) Encode(text string) []float32 {
	if v, ok := e.textVecs.get(text); ok {
		return v
	}

	tokens := append([]string{TokenCLS}, e.tok.Tokenize(text)...)
	tokens = append(tokens, TokenSEP)
	states := e.encodeTokens(tokens, 1)
	v := append([]float32(nil), states.Row(0)...)

	return e.textVecs.put(text, v)
}

// Tokenize exposes the encoder's tokenizer (Doduo's table serializer needs
// token counts to respect the 512 budget).
func (e *Encoder) Tokenize(text string) []string { return e.tok.Tokenize(text) }
