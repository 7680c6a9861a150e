package web

import "container/list"

// lruCache is a small bounded map with least-recently-used eviction:
// the bookkeeping behind the server's per-(user, design) read cache of
// memoized sheet results and rendered pages, the registry's published
// versions and the Remote client's stale cache.  Users and designs come
// and go — an uncapped map for deleted keys is a slow leak on a
// long-lived site — so the cache holds at most cap entries and
// silently drops the coldest.
//
// Not safe for concurrent use; the owner guards it with its own mutex
// (cache bookkeeping must never serialize behind the lock that guards
// design edits).
type lruCache[V any] struct {
	cap int
	ll  *list.List // front = most recently used
	idx map[string]*list.Element
}

type lruItem[V any] struct {
	key string
	val V
}

// newLRU returns an empty cache holding at most cap entries (minimum 1).
func newLRU[V any](cap int) *lruCache[V] {
	if cap < 1 {
		cap = 1
	}
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
// It reports whether an entry was evicted, so callers can count
// pressure on their cache.
func (c *lruCache[V]) put(key string, val V) (evicted bool) {
	if el, ok := c.idx[key]; ok {
		el.Value.(*lruItem[V]).val = val
		c.ll.MoveToFront(el)
		return false
	}
	c.idx[key] = c.ll.PushFront(&lruItem[V]{key: key, val: val})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.idx, oldest.Value.(*lruItem[V]).key)
		return true
	}
	return false
}

// len returns the number of live entries.
func (c *lruCache[V]) len() int { return c.ll.Len() }
