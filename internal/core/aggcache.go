package core

import (
	"container/list"
	"sync"

	"astore/internal/storage"
)

// DefaultAggCacheBytes is the per-engine budget for the segment aggregate
// cache when Options.AggCacheBytes is zero. 64 MB holds on the order of a
// hundred thousand group cells per cached (plan, segment) pair across many
// plans — partials are O(groups), not O(rows), so the default goes a long
// way.
const DefaultAggCacheBytes = 64 << 20

// defaultBindCacheBytes bounds the sealed-segment binding cache. Bindings
// hold decode buffers (FoR word-wise decodes, RLE widenings) that are
// O(segment rows) per plan, so the budget is larger than the aggregate
// cache's; before this bound the per-plan binding maps could grow without
// limit under many distinct plans.
const defaultBindCacheBytes = 256 << 20

// aggKey identifies one cached per-segment aggregate partial. The plan
// field is the compiled plan instance (dimension-side state baked into
// group ids makes partials plan-instance-specific); epoch catches
// copy-on-write chunk replacement and consolidation FK rewrites; delGen
// catches deletions, which by design never bump the epoch (bindings ignore
// the deletion bitmap) and may mutate the bitmap in place.
type aggKey struct {
	plan   uint64
	seg    *storage.Segment
	epoch  uint64
	delGen uint64
}

// bindKey identifies one cached sealed-segment binding. Bindings read only
// chunk arrays, so the visible row set (delGen) is not part of the key and
// bindings survive deletes.
type bindKey struct {
	plan  uint64
	seg   *storage.Segment
	epoch uint64
}

// planKey is a memCache key: every entry belongs to one compiled plan
// instance, so a released plan's entries can be dropped together.
type planKey interface{ planID() uint64 }

func (k aggKey) planID() uint64  { return k.plan }
func (k bindKey) planID() uint64 { return k.plan }

// memCache is a byte-accounted LRU cache shared by every plan of one
// engine. A nil *memCache is the disabled state: get misses and put is a
// no-op, so call sites need no budget checks. Cumulative hit/miss/eviction
// counters feed db.Stats and the /metrics families.
//
// Entries are also indexed by plan id, so dropPlan removes a released
// plan's entries without walking the LRU: an entry (a binding in
// particular) keeps its plan's predicate and group vectors reachable, and
// the byte accounting does not count those.
type memCache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	ll     *list.List // of *memEntry; front = most recently used
	items  map[planKey]*list.Element
	plans  map[uint64]map[planKey]struct{}

	hits, misses, evictions int64
}

type memEntry struct {
	key   planKey
	val   any
	bytes int64
}

func newMemCache(budget int64) *memCache {
	if budget <= 0 {
		return nil
	}
	return &memCache{
		budget: budget,
		ll:     list.New(),
		items:  make(map[planKey]*list.Element),
		plans:  make(map[uint64]map[planKey]struct{}),
	}
}

func (c *memCache) enabled() bool { return c != nil }

// get returns the cached value and refreshes its recency.
func (c *memCache) get(key planKey) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*memEntry).val, true
}

// put installs a value, evicting least-recently-used entries until the
// budget holds. Values larger than the whole budget are not installed.
// Re-installing an existing key refreshes its value and accounting (two
// executions may race to compute the same partial; both results are
// identical, so last-writer-wins is safe).
func (c *memCache) put(key planKey, val any, bytes int64) {
	if c == nil || bytes > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*memEntry)
		c.bytes += bytes - e.bytes
		e.val, e.bytes = val, bytes
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&memEntry{key: key, val: val, bytes: bytes})
		c.bytes += bytes
		keys := c.plans[key.planID()]
		if keys == nil {
			keys = make(map[planKey]struct{})
			c.plans[key.planID()] = keys
		}
		keys[key] = struct{}{}
	}
	for c.bytes > c.budget {
		back := c.ll.Back()
		if back == nil {
			break
		}
		c.removeLocked(back)
		c.evictions++
	}
}

// dropPlan removes every entry of the given plan instance (see
// Compiled.Release).
func (c *memCache) dropPlan(plan uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for key := range c.plans[plan] {
		c.removeLocked(c.items[key])
	}
}

// removeLocked unlinks one entry from the LRU and both indexes.
func (c *memCache) removeLocked(el *list.Element) {
	e := el.Value.(*memEntry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.bytes -= e.bytes
	pid := e.key.planID()
	delete(c.plans[pid], e.key)
	if len(c.plans[pid]) == 0 {
		delete(c.plans, pid)
	}
}

// memCacheStats is a point-in-time summary of one memCache.
type memCacheStats struct {
	Hits, Misses, Evictions int64
	Bytes, Entries          int64
}

func (c *memCache) stats() memCacheStats {
	if c == nil {
		return memCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return memCacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Bytes:     c.bytes,
		Entries:   int64(c.ll.Len()),
	}
}

// CacheStats summarizes the engine's segment-level caches: the per-segment
// aggregate partial cache and the sealed-segment binding cache.
type CacheStats struct {
	// Aggregate partial cache (Options.AggCacheBytes).
	AggHits, AggMisses, AggEvictions int64
	AggBytes, AggEntries             int64
	// Sealed-segment binding cache (decode buffers, probe verdicts).
	BindHits, BindMisses, BindEvictions int64
	BindBytes, BindEntries              int64
}

// CacheStats returns cumulative counters and current sizes of the engine's
// segment caches.
func (e *Engine) CacheStats() CacheStats {
	a := e.aggCache.stats()
	b := e.bindCache.stats()
	return CacheStats{
		AggHits: a.Hits, AggMisses: a.Misses, AggEvictions: a.Evictions,
		AggBytes: a.Bytes, AggEntries: a.Entries,
		BindHits: b.Hits, BindMisses: b.Misses, BindEvictions: b.Evictions,
		BindBytes: b.Bytes, BindEntries: b.Entries,
	}
}
