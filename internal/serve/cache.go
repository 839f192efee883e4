package serve

import (
	"container/list"
	"context"
	"sync"

	"repro/internal/rag"
)

// Cache is a sharded LRU over retrieval results. Sharding keeps lock
// contention off the hot path under concurrent clients: the key hashes to
// one shard, and each shard is an independent mutex-protected LRU.
type Cache struct {
	shards []*lruShard
}

// NewCache returns a cache holding up to capacity entries split across
// shards (shards <= 0 selects 8, and is clamped to capacity so every
// shard holds at least one entry). The remainder of capacity/shards is
// distributed one entry each to the first shards, so the per-shard caps
// sum to exactly capacity — rounding every shard up would let the cache
// admit up to shards-1 entries more than asked for.
func NewCache(capacity, shards int) *Cache {
	if shards <= 0 {
		shards = 8
	}
	if shards > capacity {
		shards = capacity
	}
	if shards < 1 {
		shards = 1
	}
	per, extra := capacity/shards, capacity%shards
	c := &Cache{shards: make([]*lruShard, shards)}
	for i := range c.shards {
		n := per
		if i < extra {
			n++
		}
		c.shards[i] = &lruShard{
			cap:   n,
			ll:    list.New(),
			items: make(map[string]*list.Element),
		}
	}
	return c
}

type lruShard struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

// CachedResult is a retrieval result tagged with the epoch of the
// snapshot that produced it, so responses can report the true generation
// of the data they carry even across a concurrent swap, and with how many
// of the store's parts answered (a partial result is shared with its
// flight's joiners but never cached).
type CachedResult struct {
	Results []rag.Hit
	Epoch   uint64
	Parts   rag.Parts
}

type cacheEntry struct {
	key string
	val CachedResult
}

func (c *Cache) shard(key string) *lruShard {
	// Inline FNV-1a: the stdlib hasher would cost two allocations (hasher
	// + []byte(key)) per Get/Put on the hot path.
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return c.shards[h%uint32(len(c.shards))]
}

// Get returns the cached value for key, marking it most recently used.
func (c *Cache) Get(key string) (CachedResult, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return CachedResult{}, false
	}
	s.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// Put stores val under key, evicting the shard's least recently used
// entry when full.
func (c *Cache) Put(key string, val CachedResult) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		el.Value.(*cacheEntry).val = val
		s.ll.MoveToFront(el)
		return
	}
	s.items[key] = s.ll.PushFront(&cacheEntry{key: key, val: val})
	if s.ll.Len() > s.cap {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.items, oldest.Value.(*cacheEntry).key)
	}
}

// Delete removes key if present (used to back out a fill that raced a
// purge: the entry is keyed under a dead epoch and would otherwise squat
// LRU capacity until evicted).
func (c *Cache) Delete(key string) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		s.ll.Remove(el)
		delete(s.items, key)
	}
}

// Purge drops every entry (called on hot index swap: results computed
// against the previous snapshot must not be served against the new one).
func (c *Cache) Purge() {
	for _, s := range c.shards {
		s.mu.Lock()
		s.ll.Init()
		s.items = make(map[string]*list.Element)
		s.mu.Unlock()
	}
}

// Len reports the number of cached entries.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// flightGroup collapses concurrent duplicate cache fills into one
// execution (singleflight): the first caller for a key becomes the leader
// and runs fn; callers arriving before it finishes wait and share the
// leader's result instead of issuing a redundant search.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

type flight struct {
	done chan struct{}
	val  CachedResult
	err  error
}

// do runs fn for key, deduplicating concurrent calls. shared reports
// whether this caller joined another caller's flight. A joiner whose ctx
// expires abandons the wait; the leader's fn keeps running with the
// leader's ctx.
func (g *flightGroup) do(ctx context.Context, key string, fn func() (CachedResult, error)) (val CachedResult, shared bool, err error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flight)
	}
	if f, ok := g.m[key]; ok {
		g.mu.Unlock()
		select {
		case <-f.done:
			return f.val, true, f.err
		case <-ctx.Done():
			return CachedResult{}, true, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	g.m[key] = f
	g.mu.Unlock()

	f.val, f.err = fn()
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(f.done)
	return f.val, false, f.err
}
