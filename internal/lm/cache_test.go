package lm

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

func TestCacheHitMissCounters(t *testing.T) {
	e := NewEncoder(Config{Dim: 16, Layers: 1, Heads: 2, FFNDim: 32, MaxLen: 64, Buckets: 1 << 10, Seed: 1})
	e.Encode("player points per game")
	e.Encode("player points per game")
	st := e.CacheStats()
	if st.TextMisses != 1 {
		t.Fatalf("text misses = %d, want 1", st.TextMisses)
	}
	if st.TextHits != 1 {
		t.Fatalf("text hits = %d, want 1", st.TextHits)
	}
	if st.TextEntries != 1 {
		t.Fatalf("text entries = %d, want 1", st.TextEntries)
	}
	if st.TokenMisses == 0 {
		t.Fatal("expected token misses from encoding")
	}
}

func TestCacheBoundResetsShards(t *testing.T) {
	c := newVecCache(numShards) // one entry per shard
	for i := 0; i < 10*numShards; i++ {
		c.put(fmt.Sprintf("key-%d", i), []float32{float32(i)})
	}
	if n := c.len(); n > 2*numShards {
		t.Fatalf("cache grew to %d entries despite bound of %d per shard", n, 1)
	}
	if c.evicted.Load() == 0 {
		t.Fatal("shard resets should count evicted entries")
	}
}

// TestCacheStatsEvictions: eviction counters surface cache thrash.
func TestCacheStatsEvictions(t *testing.T) {
	e := NewEncoder(Config{Dim: 16, Layers: 1, Heads: 2, FFNDim: 32, MaxLen: 64, Buckets: 1 << 10, Seed: 1})
	// Shrink the text cache to one entry per shard so distinct texts thrash.
	e.textVecs = newVecCache(numShards)
	for i := 0; i < 5*numShards; i++ {
		e.Encode(fmt.Sprintf("column header %d", i))
	}
	if st := e.CacheStats(); st.TextEntriesEvicted == 0 {
		t.Fatal("expected text-cache evictions under thrash")
	}
}

func TestCachePutReturnsCanonicalVector(t *testing.T) {
	c := newVecCache(1 << 10)
	first := c.put("k", []float32{1})
	second := c.put("k", []float32{2})
	if &first[0] != &second[0] {
		t.Fatal("second put should return the already-stored vector")
	}
	if second[0] != 1 {
		t.Fatalf("canonical vector overwritten: %v", second)
	}
}

// TestEncoderConcurrentEncode exercises the sharded cache from many
// goroutines (meaningful under -race): identical inputs must yield
// identical vectors regardless of interleaving.
func TestEncoderConcurrentEncode(t *testing.T) {
	e := NewEncoder(Config{Dim: 16, Layers: 1, Heads: 2, FFNDim: 32, MaxLen: 64, Buckets: 1 << 10, Seed: 1})
	texts := []string{"goals", "assists per game", "team name", "salary usd", "height cm"}
	want := make([][]float32, len(texts))
	for i, s := range texts {
		want[i] = append([]float32(nil), e.Encode(s)...)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for i, s := range texts {
					got := e.Encode(s)
					for j := range got {
						if got[j] != want[i][j] {
							t.Errorf("concurrent Encode(%q) diverged", s)
							return
						}
					}
					e.TokenEmbedding(s)
				}
			}
		}()
	}
	wg.Wait()
}

// TestEncoderConcurrentColdEncode runs the layers on 8 goroutines at once
// over one encoder, as the engine's prepare workers do, so they share its
// scratch pool: every Encode misses the text cache, every EncodeTokens
// runs the whole pass, and the texts' lengths differ, so pooled buffers
// change shape between callers. Each result must match a serial
// encoder's bits.
func TestEncoderConcurrentColdEncode(t *testing.T) {
	const workers = 8
	var texts []string
	for i, base := range bitTexts() {
		for w := range workers {
			texts = append(texts, fmt.Sprintf("%s %c", base, 'a'+(i+w)%26))
		}
	}
	serial := NewEncoder(DefaultConfig())
	wantCLS := make([][]float32, len(texts))
	wantAll := make([][]float32, len(texts))
	tokens := make([][]string, len(texts))
	for i, text := range texts {
		wantCLS[i] = serial.Encode(text)
		tokens[i] = append(serial.Tokenize(text), TokenSEP)
		wantAll[i] = serial.EncodeTokens(tokens[i]).Data
	}
	e := NewEncoder(DefaultConfig())
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(texts); i += workers {
				if got := e.Encode(texts[i]); !slices.Equal(got, wantCLS[i]) {
					t.Errorf("concurrent Encode(%q) diverged from the serial bits", texts[i])
				}
				if got := e.EncodeTokens(tokens[i]).Data; !slices.Equal(got, wantAll[i]) {
					t.Errorf("concurrent EncodeTokens of %q diverged from the serial bits", texts[i])
				}
			}
		}()
	}
	wg.Wait()
	if st := e.CacheStats(); st.TextMisses != uint64(len(texts)) {
		t.Fatalf("text misses = %d, want %d: every Encode must run the layers", st.TextMisses, len(texts))
	}
}
