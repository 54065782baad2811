package keyword

import "sync"

// simCacheSize bounds the similarity memo cache: total entries across all
// shards, approximately (see simCache).
const simCacheSize = 65536

// simCacheShards spreads lock contention across independent shards.
const simCacheShards = 16

// simKey is an unordered phrase pair; Model.Similarity is symmetric, so one
// entry serves both argument orders.
type simKey struct{ a, b string }

func makeSimKey(a, b string) simKey {
	if b < a {
		a, b = b, a
	}
	return simKey{a, b}
}

// simCache memoizes Model.Similarity results with a two-generation
// (current/previous) eviction scheme: when the current generation of a
// shard fills up it becomes the previous generation and a fresh map starts;
// entries hit in the previous generation are promoted. Memory is therefore
// bounded at roughly 2 × perShard × simCacheShards entries while hot pairs
// survive rotation indefinitely.
type simCache struct {
	perShard int
	shards   [simCacheShards]simShard
}

type simShard struct {
	mu        sync.Mutex
	cur, prev map[simKey]float64
}

func newSimCache(capacity int) *simCache {
	per := capacity / simCacheShards
	if per < 64 {
		per = 64
	}
	c := &simCache{perShard: per}
	for i := range c.shards {
		c.shards[i].cur = make(map[simKey]float64)
	}
	return c
}

func (c *simCache) shard(k simKey) *simShard {
	const prime = 16777619
	h := uint32(2166136261)
	for i := 0; i < len(k.a); i++ {
		h = (h ^ uint32(k.a[i])) * prime
	}
	for i := 0; i < len(k.b); i++ {
		h = (h ^ uint32(k.b[i])) * prime
	}
	return &c.shards[h%simCacheShards]
}

func (c *simCache) get(k simKey) (float64, bool) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.cur[k]; ok {
		return v, true
	}
	if v, ok := s.prev[k]; ok {
		s.promote(c.perShard, k, v)
		return v, true
	}
	return 0, false
}

func (c *simCache) put(k simKey, v float64) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.promote(c.perShard, k, v)
}

// promote inserts into the current generation, rotating first when full.
// Callers must hold mu.
func (s *simShard) promote(perShard int, k simKey, v float64) {
	if len(s.cur) >= perShard {
		s.prev = s.cur
		s.cur = make(map[simKey]float64, perShard)
	}
	s.cur[k] = v
}
