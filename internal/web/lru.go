package web

import "container/list"

// lruCache is a small bounded map with least-recently-used eviction,
// for key spaces that have no natural end: the registry's superseded
// publication versions (every republish mints a digest) and the Remote
// client's stale cache (one key per evaluated parameter point).  An
// uncapped map there is a slow leak on a long-lived site, so the cache
// holds at most cap entries and silently drops the coldest.  (The
// sheet read memo needs no cap: it holds one entry per resident
// design, see pagecache.go.)
//
// Not safe for concurrent use; the owner guards it with its own mutex.
type lruCache[V any] struct {
	cap int
	ll  *list.List // front = most recently used
	idx map[string]*list.Element
}

type lruItem[V any] struct {
	key string
	val V
}

// newLRU returns an empty cache holding at most cap (> 0) entries.
func newLRU[V any](cap int) *lruCache[V] {
	return &lruCache[V]{cap: cap, ll: list.New(), idx: make(map[string]*list.Element)}
}

// get returns the entry for key, marking it most recently used.
func (c *lruCache[V]) get(key string) (V, bool) {
	if el, ok := c.idx[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*lruItem[V]).val, true
	}
	var zero V
	return zero, false
}

// put inserts or replaces the entry for key as most recently used,
// evicting the least recently used entry if the cache is over cap.
func (c *lruCache[V]) put(key string, val V) {
	if el, ok := c.idx[key]; ok {
		el.Value.(*lruItem[V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.idx[key] = c.ll.PushFront(&lruItem[V]{key: key, val: val})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.idx, oldest.Value.(*lruItem[V]).key)
	}
}

// len returns the number of live entries.
func (c *lruCache[V]) len() int { return c.ll.Len() }
