package web

import (
	"sync"
	"time"
)

// staleCache is the Remote client's bounded last-known-good store: the
// most recent successful evaluation per (model, parameter point).  When
// the publisher is unreachable, a mounted proxy model answers from here
// — visibly marked stale — instead of failing the whole hierarchical
// evaluation.  LRU eviction bounds memory; the cache is shared by all
// proxy models mounted through one Remote, matching the per-site
// breaker's blame granularity.
type staleCache struct {
	mu  sync.Mutex
	lru *lruCache[staleEntry]
}

type staleEntry struct {
	est *EstimateJSON
	at  time.Time
}

// staleLimit bounds the last-known-good cache.  A sweep touches at
// most a few hundred points per design, so this holds several sweeps'
// worth of estimates in a few hundred kilobytes.
const staleLimit = 512

func newStaleCache() *staleCache {
	return &staleCache{lru: newLRU[staleEntry](staleLimit)}
}

// put stores (or refreshes) the last good estimate for a key.
func (c *staleCache) put(key string, est *EstimateJSON) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.put(key, staleEntry{est: est, at: time.Now()})
}

// get returns the last good estimate for a key, and when it was stored.
// A hit counts as a use for LRU purposes.
func (c *staleCache) get(key string) (*EstimateJSON, time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	en, ok := c.lru.get(key)
	return en.est, en.at, ok
}
