package server

import (
	"container/list"
	"sync"
)

// lru is a fixed-capacity least-recently-used cache. The daemon keys it
// by profile ID (content hash of the canonical trace bytes plus the
// mining config), so identical mining requests hit the cache regardless
// of client, ordering, or parallelism. A capacity of zero disables
// caching (every Get misses, Put is a no-op).
//
// Entries live on one of two lists. Live entries are the ones callers
// still expect to use; Demote moves an entry the caller knows is
// superseded (a profile its update has replaced) onto the demoted list.
// Eviction takes demoted entries first, least recently used first, and
// only then live ones, so a burst of updates on some keys cannot push
// out the live entries of keys left idle meanwhile.
type lru struct {
	mu      sync.Mutex
	cap     int
	live    *list.List // front = most recent
	demoted *list.List // front = most recent; evicted before live
	ents    map[string]*list.Element
}

type lruEntry struct {
	key     string
	val     any
	demoted bool
}

func newLRU(capacity int) *lru {
	return &lru{cap: capacity, live: list.New(), demoted: list.New(), ents: make(map[string]*list.Element)}
}

// listOf returns the list an entry sits on.
func (c *lru) listOf(e *lruEntry) *list.List {
	if e.demoted {
		return c.demoted
	}
	return c.live
}

// Get returns the cached value and promotes the key to most-recent
// within its own list: a Get does not revive a demoted entry.
func (c *lru) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.ents[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*lruEntry)
	c.listOf(e).MoveToFront(el)
	return e.val, true
}

// Put inserts or refreshes a key as most-recent live entry (reviving it
// if demoted), evicting when over capacity: the least recently used
// demoted entry if there is one, else the least recently used live
// entry. It reports whether an eviction happened.
func (c *lru) Put(key string, val any) (evicted bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cap <= 0 {
		return false
	}
	if el, ok := c.ents[key]; ok {
		e := el.Value.(*lruEntry)
		e.val = val
		c.move(el, false)
		return false
	}
	c.ents[key] = c.live.PushFront(&lruEntry{key: key, val: val})
	if c.live.Len()+c.demoted.Len() <= c.cap {
		return false
	}
	victims := c.demoted
	if victims.Len() == 0 {
		victims = c.live
	}
	oldest := victims.Back()
	victims.Remove(oldest)
	delete(c.ents, oldest.Value.(*lruEntry).key)
	return true
}

// Demote marks a cached key as superseded, making it the most recent
// demoted entry; absent or already demoted keys are left as they are.
func (c *lru) Demote(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.ents[key]; ok && !el.Value.(*lruEntry).demoted {
		c.move(el, true)
	}
}

// move puts an entry at the front of the live or the demoted list.
func (c *lru) move(el *list.Element, demoted bool) {
	e := el.Value.(*lruEntry)
	if e.demoted == demoted {
		c.listOf(e).MoveToFront(el)
		return
	}
	c.listOf(e).Remove(el)
	e.demoted = demoted
	c.ents[e.key] = c.listOf(e).PushFront(e)
}

// Len returns the number of cached entries, live and demoted.
func (c *lru) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.live.Len() + c.demoted.Len()
}

// each visits entries in eviction order — demoted, then live, each
// from least to most recently used. A snapshot records profiles and
// batch acks in this order, so re-inserting them rebuilds the same
// eviction order; a demoted profile comes back live, at the eviction
// end.
func (c *lru) each(visit func(key string, val any)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, l := range []*list.List{c.demoted, c.live} {
		for el := l.Back(); el != nil; el = el.Prev() {
			e := el.Value.(*lruEntry)
			visit(e.key, e.val)
		}
	}
}
