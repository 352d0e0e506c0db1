// Package lm provides the frozen text encoder that stands in for the
// pre-trained BERT model of the paper.
//
// The paper freezes BERT and uses it purely as a feature extractor: the CLS
// vector of a serialized column (or table name) becomes the initial node
// representation of the GNN. This package reproduces that contract with a
// deterministic "pseudo-BERT": a hashed-subword token embedder followed by a
// small transformer encoder whose weights are drawn once from a fixed-seed
// PRNG and never updated. Two texts that share vocabulary or character
// structure map to nearby vectors — the only property of BERT the
// Pythagoras architecture actually relies on (see DESIGN.md §2).
package lm

import (
	"unicode"
	"unicode/utf8"
)

// Special token strings. They receive dedicated embeddings rather than
// hashed-subword ones.
const (
	TokenCLS = "[CLS]"
	TokenSEP = "[SEP]"
	TokenPAD = "[PAD]"
)

// Tokenizer splits text into lowercase word and number tokens. It mirrors
// the preprocessing of WordPiece-style tokenizers closely enough for the
// hashed embedder: punctuation separates tokens, camelCase and snake_case
// identifiers split into their parts, and numbers are normalized to a
// coarse magnitude form so that value literals don't explode the token
// space.
type Tokenizer struct {
	// MaxTokenLen truncates pathological tokens (e.g. base64 blobs).
	MaxTokenLen int
}

// NewTokenizer returns a tokenizer with default settings.
func NewTokenizer() *Tokenizer { return &Tokenizer{MaxTokenLen: 24} }

// Tokenize splits text into tokens. Special tokens ([CLS], [SEP], [PAD])
// embedded in the input are preserved as-is.
func (t *Tokenizer) Tokenize(text string) []string {
	var tb TokenBuf
	t.tokenize(&tb, text)
	out := make([]string, len(tb.ends))
	for i := range out {
		out[i] = string(tb.token(i))
	}
	return out
}

// TokenBuf is reusable storage for one text's tokens, so that tokenizing
// into it allocates only to grow it. The zero value is ready to use; a
// TokenBuf must not be shared between goroutines.
type TokenBuf struct {
	buf  []byte // the tokens, back to back
	ends []int  // ends[i] is the offset in buf where token i ends
}

// token returns token i; the bytes are valid until the next tokenize.
func (tb *TokenBuf) token(i int) []byte {
	start := 0
	if i > 0 {
		start = tb.ends[i-1]
	}
	return tb.buf[start:tb.ends[i]]
}

// tokenize replaces tb's contents with the tokens of text: its
// whitespace-separated fields (as strings.Fields splits them), each a
// special token or split by splitWord.
func (t *Tokenizer) tokenize(tb *TokenBuf, text string) {
	tb.buf, tb.ends = tb.buf[:0], tb.ends[:0]
	start := -1 // the current field's first byte, or -1 between fields
	for i, r := range text {
		switch {
		case !unicode.IsSpace(r):
			if start < 0 {
				start = i
			}
		case start >= 0:
			t.field(tb, text[start:i])
			start = -1
		}
	}
	if start >= 0 {
		t.field(tb, text[start:])
	}
}

func (t *Tokenizer) field(tb *TokenBuf, field string) {
	if field == TokenCLS || field == TokenSEP || field == TokenPAD {
		tb.buf = append(tb.buf, field...)
		tb.ends = append(tb.ends, len(tb.buf))
		return
	}
	t.splitWord(tb, field)
}

// splitWord appends the word/number tokens of one whitespace-delimited
// field to tb.
func (t *Tokenizer) splitWord(tb *TokenBuf, s string) {
	start := len(tb.buf) // where the current token begins
	var curKind rune     // 'a' letters, 'd' digits, 0 none
	flush := func() {
		if len(tb.buf) == start {
			return
		}
		if len(tb.buf)-start > t.MaxTokenLen {
			tb.buf = tb.buf[:start+t.MaxTokenLen]
		}
		if curKind == 'd' {
			tb.buf = append(tb.buf[:start], normalizeNumber(tb.buf[start:])...)
		}
		tb.ends = append(tb.ends, len(tb.buf))
		start = len(tb.buf)
		curKind = 0
	}
	prevLower := false
	for _, r := range s {
		switch {
		case unicode.IsLetter(r):
			// camelCase boundary: previous rune lowercase, this uppercase.
			if curKind == 'd' || (prevLower && unicode.IsUpper(r)) {
				flush()
			}
			curKind = 'a'
			prevLower = unicode.IsLower(r)
			tb.buf = utf8.AppendRune(tb.buf, unicode.ToLower(r))
		case unicode.IsDigit(r):
			if curKind == 'a' {
				flush()
			}
			curKind = 'd'
			prevLower = false
			tb.buf = utf8.AppendRune(tb.buf, r)
		case r == '.' && curKind == 'd':
			// keep decimal points inside numbers
			tb.buf = append(tb.buf, '.')
		default:
			flush()
			prevLower = false
		}
	}
	flush()
}

// numTokens holds "<num{lead}e{mag}>" for leading digits 1–9 and magnitudes
// 0–9: with numZero, every token normalizeNumber makes from ASCII digits.
var numTokens = func() (tab [9][10]string) {
	for lead := range tab {
		for mag := range tab[lead] {
			tab[lead][mag] = "<num" + string(rune('1'+lead)) + "e" + string(rune('0'+mag)) + ">"
		}
	}
	return tab
}()

const numZero = "<num0e0>"

// normalizeNumber maps a digit literal to a coarse token that keeps the
// leading digit and order of magnitude but discards the exact value:
// "1234"→"<num1e3>", "7.5"→"<num7e0>", "0.02"→"<num0e0>". This bounds the
// numeric token vocabulary while preserving the weak magnitude signal BERT
// would see from digit strings.
func normalizeNumber(s []byte) string {
	end := len(s) // the end of the integer part
	for i, c := range s {
		if c == '.' {
			end = i
			break
		}
	}
	lo := 0
	for lo < end && s[lo] == '0' {
		lo++
	}
	if lo == end {
		return numZero
	}
	lead, mag := s[lo], min(end-lo-1, 9)
	if lead >= '1' && lead <= '9' {
		return numTokens[lead-'1'][mag]
	}
	// A non-ASCII digit: its first byte stands in for the digit.
	return "<num" + string(rune(lead)) + "e" + string(rune('0'+mag)) + ">"
}
