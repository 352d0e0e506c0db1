package lm

import (
	"sync"
	"sync/atomic"
)

// numShards spreads the embedding caches over independently locked shards
// so the parallel prepare workers of the inference engine don't serialize
// on one mutex. Power of two for cheap masking.
const numShards = 16

// cacheShard is one independently RW-locked slice of the key space.
type cacheShard struct {
	mu sync.RWMutex
	m  map[string][]float32
}

// vecCache is a sharded, size-bounded string→vector cache with hit/miss
// accounting. Reads take only a shard RLock; fills use double-checked
// locking so concurrent misses on the same key converge on one canonical
// vector. When a shard reaches its entry bound it is reset wholesale —
// the vectors are deterministic recomputations, so dropping them affects
// latency, never correctness (same policy the old single-map cache used,
// now per shard and applying to both token and text caches).
type vecCache struct {
	shards   [numShards]cacheShard
	shardCap int // max entries per shard before reset
	// hits/misses/evicted are cumulative since the last stats reset;
	// evicted counts entries dropped by wholesale shard resets, the signal
	// for cache thrash in long-running serve processes.
	hits, misses, evicted atomic.Uint64
}

func newVecCache(totalCap int) *vecCache {
	c := &vecCache{shardCap: totalCap / numShards}
	if c.shardCap < 1 {
		c.shardCap = 1
	}
	for i := range c.shards {
		c.shards[i].m = make(map[string][]float32)
	}
	return c
}

// shardFor hashes the key to a shard (FNV-1a, masked).
func shardFor[K string | []byte](key K) uint {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return uint(h) & (numShards - 1)
}

// get returns the cached vector for key, counting the hit or miss.
func (c *vecCache) get(key string) ([]float32, bool) {
	s := &c.shards[shardFor(key)]
	s.mu.RLock()
	v, ok := s.m[key]
	s.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

// getBytes is get for a key held as bytes; the lookup does not allocate.
func (c *vecCache) getBytes(key []byte) ([]float32, bool) {
	s := &c.shards[shardFor(key)]
	s.mu.RLock()
	v, ok := s.m[string(key)]
	s.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

// put stores v under key and returns the canonical vector: if another
// goroutine filled the key between get and put, the already-stored vector
// wins, so all callers share one backing slice.
func (c *vecCache) put(key string, v []float32) []float32 {
	s := &c.shards[shardFor(key)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.m[key]; ok {
		return prev
	}
	if len(s.m) >= c.shardCap {
		c.evicted.Add(uint64(len(s.m)))
		s.m = make(map[string][]float32)
	}
	s.m[key] = v
	return v
}

// len returns the total entry count across shards.
func (c *vecCache) len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// CacheStats reports the encoder's embedding-cache effectiveness: entry
// counts and cumulative hit/miss/eviction counters for the token-embedding
// and full-text CLS caches. Counters are monotone. The *EntriesEvicted
// counters count entries dropped by capacity resets — a steadily climbing
// value on a long-running serve process means the working set exceeds the
// cache bound (cache thrash) and recomputation is eating latency.
type CacheStats struct {
	TokenEntries, TextEntries               int
	TokenHits, TokenMisses                  uint64
	TextHits, TextMisses                    uint64
	TokenEntriesEvicted, TextEntriesEvicted uint64
}

// CacheStats returns a snapshot of the embedding caches.
func (e *Encoder) CacheStats() CacheStats {
	return CacheStats{
		TokenEntries:        e.tokenVecs.len(),
		TextEntries:         e.textVecs.len(),
		TokenHits:           e.tokenVecs.hits.Load(),
		TokenMisses:         e.tokenVecs.misses.Load(),
		TextHits:            e.textVecs.hits.Load(),
		TextMisses:          e.textVecs.misses.Load(),
		TokenEntriesEvicted: e.tokenVecs.evicted.Load(),
		TextEntriesEvicted:  e.textVecs.evicted.Load(),
	}
}
