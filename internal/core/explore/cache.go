package explore

import (
	"container/list"
	"strconv"
	"sync"

	"powerplay/internal/obs"
)

// sweepCacheEvents counts point-cache traffic across every Cache in
// the process (the sheet read path has its own counters in
// internal/web).
var sweepCacheEvents = obs.NewCounterVec("powerplay_sweepcache_points_total",
	"Sweep point cache lookups and evictions, by event.", "event")

// Cache memoizes evaluated design points for one design, keyed by the
// override vector.  With a Cache attached to the Runner, a repeated or
// overlapping call re-uses every point already priced at the same
// operating coordinates instead of re-playing the sheet.  It is a
// library tool: the web sweep page attaches none, because its measured
// traffic almost never repeats a point before the cap evicts it.
//
// A Cache is only valid for a single design snapshot: the key encodes
// the overrides, not the sheet's cell contents, so any edit to the
// design or to the model registry must be answered with a fresh Cache
// (key it on the design's identity, Design.Generation and the
// registry's Generation, and drop it when any of the three moves).
//
// All methods are safe for concurrent use; one Cache may be shared
// across overlapping calls.
type Cache struct {
	mu      sync.Mutex
	limit   int
	entries map[string]*list.Element
	order   *list.List // front = most recently used
}

// cacheRecord is one stored point: the key plus the design totals.
type cacheRecord struct {
	key                string
	power, area, delay float64
}

// DefaultCacheSize bounds a NewCache(0) cache: about twenty 200-step
// sweeps of distinct ranges, small enough to be irrelevant next to a
// design's own footprint.
const DefaultCacheSize = 4096

// NewCache returns an empty cache holding at most limit points (LRU
// eviction).  A limit <= 0 selects DefaultCacheSize.
func NewCache(limit int) *Cache {
	if limit <= 0 {
		limit = DefaultCacheSize
	}
	return &Cache{
		limit:   limit,
		entries: make(map[string]*list.Element),
		order:   list.New(),
	}
}

// keyAt canonicalizes point i of a sweep's override columns (names
// sorted) into a cache key: values spelled with full round-trip
// precision, so equal bindings always collide.
func keyAt(names []string, vals [][]float64, i int) string {
	var b []byte
	for k, n := range names {
		if k > 0 {
			b = append(b, ';')
		}
		b = append(append(b, n...), '=')
		b = strconv.AppendFloat(b, vals[k][i], 'g', -1, 64)
	}
	return string(b)
}

// lookup returns the stored totals for a key, marking it most recently
// used.
func (c *Cache) lookup(key string) (cacheRecord, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		sweepCacheEvents.With("miss").Inc()
		return cacheRecord{}, false
	}
	sweepCacheEvents.With("hit").Inc()
	c.order.MoveToFront(el)
	return el.Value.(cacheRecord), true
}

// store inserts a point, evicting the least recently used entry when
// the cache is full.
func (c *Cache) store(rec cacheRecord) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[rec.key]; ok {
		el.Value = rec
		c.order.MoveToFront(el)
		return
	}
	c.entries[rec.key] = c.order.PushFront(rec)
	for c.order.Len() > c.limit {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(cacheRecord).key)
		sweepCacheEvents.With("evict").Inc()
	}
}

// Len returns the number of cached points.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
