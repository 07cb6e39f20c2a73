// Package cache is the one bounded single-flight cache the serving and
// reading layers share: an LRU map whose misses are loaded once, outside
// the lock, while concurrent callers for the same key wait for that load
// and receive the identical value.
//
// Every entry carries a validator. A lookup under a different validator
// replaces the entry instead of hitting it, so a cache keyed by slot can
// follow a slot whose content changed (a new persisted hash, a new
// immutable list) without ever serving the old bytes. Callers with
// nothing to validate use struct{}.
//
// Failures are never kept: a load error goes to the loader and to every
// caller waiting on that load, and the entry is removed so the next
// caller loads again. A failure a caller wants remembered — a corrupt
// slot, an absent one — is either stored as a value or kept outside the
// cache, where eviction cannot forget it.
package cache

import (
	"container/list"
	"context"
	"fmt"
	"sync"
)

// Cache is a bounded LRU from K to V with single-flight loads and
// per-entry validators of type C. It is safe for concurrent use.
type Cache[K, C comparable, V any] struct {
	capacity int

	mu    sync.Mutex
	items map[K]*entry[K, C, V]
	lru   list.List // front = most recent; values are *entry[K, C, V]
}

// entry is one key's slot. All fields but key and check are guarded by
// the cache lock. ready is made only when a caller has to wait for the
// load, so a miss nobody waits on costs no channel; the loader closes it
// after setting val and err, and waiters read them once it is closed.
type entry[K, C comparable, V any] struct {
	key     K
	check   C
	settled bool // the load succeeded and val is final
	ready   chan struct{}
	val     V
	err     error
	elem    *list.Element
}

// New returns a cache holding at most capacity entries. capacity must
// be positive.
func New[K, C comparable, V any](capacity int) *Cache[K, C, V] {
	if capacity < 1 {
		panic(fmt.Sprintf("cache: capacity %d, want at least 1", capacity))
	}
	return &Cache[K, C, V]{capacity: capacity, items: make(map[K]*entry[K, C, V])}
}

// Get returns the value for key under validator check. On a hit it
// moves the entry to the front and returns its value, first waiting for
// the entry's load if that is still running. Otherwise it installs a
// new entry — replacing one held under a different validator and
// evicting from the back beyond capacity — and calls load outside the
// lock; callers that find the entry meanwhile wait for that one load
// and get its result.
//
// ctx bounds only the wait: a waiter whose ctx ends returns ctx.Err()
// and leaves the entry to the load, which goes on for the other
// callers. load itself is not passed ctx; a loader that must stop on
// cancellation captures its own.
//
// Evicting or replacing an in-flight entry is safe: its loader and
// waiters still finish against the entry they hold, and the key simply
// loads again for later callers.
func (c *Cache[K, C, V]) Get(ctx context.Context, key K, check C, load func() (V, error)) (V, error) {
	c.mu.Lock()
	if e, ok := c.items[key]; ok {
		if e.check == check {
			c.lru.MoveToFront(e.elem)
			if e.settled {
				v := e.val
				c.mu.Unlock()
				return v, nil
			}
			if e.ready == nil {
				e.ready = make(chan struct{})
			}
			ready := e.ready
			c.mu.Unlock()
			select {
			case <-ready:
				return e.val, e.err
			case <-ctx.Done():
				var zero V
				return zero, ctx.Err()
			}
		}
		c.removeLocked(e)
	}
	e := &entry[K, C, V]{key: key, check: check}
	e.elem = c.lru.PushFront(e)
	c.items[key] = e
	for c.lru.Len() > c.capacity {
		c.removeLocked(c.lru.Back().Value.(*entry[K, C, V]))
	}
	c.mu.Unlock()

	v, err := load()
	c.mu.Lock()
	if err != nil {
		if c.items[key] == e {
			c.removeLocked(e)
		}
	} else {
		e.settled = true
	}
	e.val, e.err = v, err
	ready := e.ready
	c.mu.Unlock()
	if ready != nil {
		close(ready)
	}
	return v, err
}

// removeLocked drops e from the map and the LRU; callers hold c.mu.
func (c *Cache[K, C, V]) removeLocked(e *entry[K, C, V]) {
	delete(c.items, e.key)
	c.lru.Remove(e.elem)
}

// Sweep calls fn for every entry whose load has succeeded, holding the
// cache lock, and removes the entries for which fn returns true.
// Entries still loading are skipped. fn must not call into the cache.
func (c *Cache[K, C, V]) Sweep(fn func(key K, v V) (drop bool)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Front(); el != nil; {
		e := el.Value.(*entry[K, C, V])
		el = el.Next()
		if e.settled && fn(e.key, e.val) {
			c.removeLocked(e)
		}
	}
}

// Len returns the number of entries, loading or settled.
func (c *Cache[K, C, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Has reports whether key has an entry, loading or settled, without
// touching its recency.
func (c *Cache[K, C, V]) Has(key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

// Keys returns the keys of all entries, most recently used first.
func (c *Cache[K, C, V]) Keys() []K {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]K, 0, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*entry[K, C, V]).key)
	}
	return keys
}
