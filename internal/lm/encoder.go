package lm

import (
	"math"
	"math/rand"
	"sync"

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

	scratch sync.Pool // *encodeScratch
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
	e.scratch.New = func() any { return new(encodeScratch) }
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

// encodeScratch is one encode's working memory: its tokens and every
// matrix a layer writes. Each Encoder pools them, so a cache miss
// allocates only what it returns. The head matrices hold one attention
// head's slice of Q, Kᵀ and V contiguous for the product kernel, its
// scores (then softmax weights, in place) and its context.
type encodeScratch struct {
	tb                 TokenBuf
	h, out             tensor.F32 // a layer's input and output states
	q, k, v, ctx, h1   tensor.F32
	ffn                tensor.F32
	qh, kt, vh, pw, ch tensor.F32
	scores             []float64
}

// shape makes m rows×cols, reusing its storage when that is large enough.
// The contents are left as they were: every caller overwrites them whole.
func shape(m *tensor.F32, rows, cols int) *tensor.F32 {
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float32, n)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:n]
	return m
}

// embedRow writes token i's input state: its embedding plus a tenth of
// position i's sinusoid.
func (e *Encoder) embedRow(h *tensor.F32, i int, emb []float32) {
	row := h.Row(i)
	copy(row, emb)
	for j, p := range e.pos.Row(i) {
		row[j] += 0.1 * p
	}
}

// EncodeTokens runs the frozen transformer over a token sequence (already
// including [CLS]/[SEP] as desired) and returns the final hidden state of
// every token as a len(tokens)×Dim float32 matrix. Sequences longer than
// MaxLen are truncated — the same hard limit the paper discusses for Doduo.
func (e *Encoder) EncodeTokens(tokens []string) *tensor.F32 {
	if len(tokens) > e.cfg.MaxLen {
		tokens = tokens[:e.cfg.MaxLen]
	}
	out := tensor.NewF32(len(tokens), e.cfg.Dim)
	if len(tokens) == 0 {
		return out
	}
	s := e.scratch.Get().(*encodeScratch)
	defer e.scratch.Put(s)
	h := shape(&s.h, len(tokens), e.cfg.Dim)
	for i, tok := range tokens {
		e.embedRow(h, i, e.TokenEmbedding(tok))
	}
	copy(out.Data, e.encodeStates(s, len(tokens)).Data)
	return out
}

// encodeStates runs every layer over the token states in s.h and returns
// the final layer's first outRows rows. Every layer still reads all
// tokens: the final layer projects K and V for each of them, and the rest
// of that layer (Q, attention, Wo, residuals, layer norms, FFN) is
// row-wise, so the rows it returns carry the same bits as the full pass.
func (e *Encoder) encodeStates(s *encodeScratch, outRows int) *tensor.F32 {
	for l := range e.layers {
		rows := s.h.Rows
		if l == len(e.layers)-1 {
			rows = min(outRows, rows)
		}
		e.encoderLayer(s, &e.layers[l], rows)
		s.h, s.out = s.out, s.h
	}
	return &s.h
}

// encoderLayer applies one frozen transformer block to the first rows
// tokens of s.h, attending over all of them, and leaves the result in
// s.out: multi-head self-attention with residual + layernorm, then a GELU
// FFN with residual + layernorm. All storage is float32; softmax and
// layernorm use float64 scalar math (exp/sqrt) on float32 inputs.
//
// Each head's scores and context run through tensor.MatMulF32Into, whose
// every element sums from +0 over ascending inner index: a score over the
// head's dimensions d of q·k, a context element over the tokens j of w·v,
// the order of the scalar loops they replace, so no bit moves (DESIGN.md
// §12). geluInPlace is geluF32 bit for bit.
func (e *Encoder) encoderLayer(s *encodeScratch, lw *layerWeights, rows int) {
	h := &s.h
	n, dim := h.Rows, e.cfg.Dim
	hd := dim / e.cfg.Heads
	top := &tensor.F32{Rows: rows, Cols: dim, Data: h.Data[:rows*dim]}

	q, k, v := shape(&s.q, rows, dim), shape(&s.k, n, dim), shape(&s.v, n, dim)
	tensor.MatMulF32Into(q, top, lw.wq)
	tensor.MatMulF32Into(k, h, lw.wk)
	tensor.MatMulF32Into(v, h, lw.wv)

	ctx := shape(&s.ctx, rows, dim)
	qh, kt, vh := shape(&s.qh, rows, hd), shape(&s.kt, hd, n), shape(&s.vh, n, hd)
	pw, ch := shape(&s.pw, rows, n), shape(&s.ch, rows, hd)
	if cap(s.scores) < n {
		s.scores = make([]float64, n)
	}
	scores := s.scores[:n]
	scale := 1 / math.Sqrt(float64(hd))
	for off := 0; off < dim; off += hd {
		for i := 0; i < rows; i++ {
			copy(qh.Row(i), q.Row(i)[off:off+hd])
		}
		for j := 0; j < n; j++ {
			for d, x := range k.Row(j)[off : off+hd] {
				kt.Data[d*n+j] = x
			}
			copy(vh.Row(j), v.Row(j)[off:off+hd])
		}
		tensor.MatMulF32Into(pw, qh, kt)
		for i := 0; i < rows; i++ {
			softmaxRowF32(pw.Row(i), scores, scale)
		}
		tensor.MatMulF32Into(ch, pw, vh)
		for i := 0; i < rows; i++ {
			copy(ctx.Row(i)[off:off+hd], ch.Row(i))
		}
	}
	h1 := shape(&s.h1, rows, dim)
	tensor.MatMulF32Into(h1, ctx, lw.wo)
	for i, hv := range top.Data {
		h1.Data[i] = hv + h1.Data[i]
	}
	layerNormInPlaceF32(h1)

	ffn := shape(&s.ffn, rows, e.cfg.FFNDim)
	tensor.MatMulF32Into(ffn, h1, lw.ffn1)
	for i := 0; i < rows; i++ {
		row := ffn.Row(i)
		for j, bv := range lw.ffn1b.Data {
			row[j] += bv
		}
		geluInPlace(row)
	}
	out := shape(&s.out, rows, dim)
	tensor.MatMulF32Into(out, ffn, lw.ffn2)
	for i := 0; i < rows; i++ {
		row := out.Row(i)
		h1row := h1.Row(i)
		for j, bv := range lw.ffn2b.Data {
			row[j] = h1row[j] + row[j] + bv
		}
	}
	layerNormInPlaceF32(out)
}

// softmaxRowF32 turns one row of raw scores into attention weights in
// place: scaled and softmaxed in float64, through scores, and rounded once.
func softmaxRowF32(row []float32, scores []float64, scale float64) {
	mx := math.Inf(-1)
	for j, sv := range row {
		sf := float64(sv) * scale
		scores[j] = sf
		if sf > mx {
			mx = sf
		}
	}
	var z float64
	for j := range row {
		scores[j] = math.Exp(scores[j] - mx)
		z += scores[j]
	}
	for j := range row {
		row[j] = float32(scores[j] / z)
	}
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
// Only the CLS row of the final layer is computed. A miss allocates only
// the vector it caches, with every token embedding cached.
func (e *Encoder) Encode(text string) []float32 {
	if v, ok := e.textVecs.get(text); ok {
		return v
	}
	s := e.scratch.Get().(*encodeScratch)
	defer e.scratch.Put(s)
	e.tok.tokenize(&s.tb, text)
	sep := len(s.tb.ends) + 1 // the [SEP] row
	n := min(sep+1, e.cfg.MaxLen)
	h := shape(&s.h, n, e.cfg.Dim)
	for i := 0; i < n; i++ {
		emb := e.sep
		switch {
		case i == 0:
			emb = e.cls
		case i < sep:
			emb = e.tokenEmbedding(s.tb.token(i - 1))
		}
		e.embedRow(h, i, emb)
	}
	v := append([]float32(nil), e.encodeStates(s, 1).Row(0)...)
	return e.textVecs.put(text, v)
}

// Tokenize exposes the encoder's tokenizer (Doduo's table serializer needs
// token counts to respect the 512 budget).
func (e *Encoder) Tokenize(text string) []string { return e.tok.Tokenize(text) }
