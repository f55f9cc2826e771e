package gateway

import (
	"container/list"
	"sync"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/metrics"
)

// admissionDiv sets the size-based admission threshold: an entry larger
// than capacity/admissionDiv is rejected outright. One oversized block must
// not flush a whole working set of hot chunks to make room for itself.
const admissionDiv = 4

// cacheCounters is the observable surface of one LRU instance; the gateway
// resolves them under ici.gateway.block_cache.* / ici.gateway.chunk_cache.*.
type cacheCounters struct {
	hits      *metrics.Counter
	misses    *metrics.Counter
	evictions *metrics.Counter
	rejected  *metrics.Counter // admissions refused by the size filter
}

// lruCache is a byte-bounded LRU with size-based admission control, safe
// for concurrent use. Values are cached as-is; callers must not mutate
// what they Get.
type lruCache struct {
	mu       sync.Mutex
	capacity int64
	maxEntry int64
	size     int64
	order    *list.List // front = most recent
	entries  map[cacheKey]*list.Element
	ctr      cacheCounters
}

// cacheKey names what a cache entry or a flight holds. It is a comparable
// value, not a string built per lookup: a cold read makes one lookup and one
// admission per chunk, and none of them allocates a key.
type cacheKey struct {
	kind byte             // 'b' a block, 'c' one of its chunks, 'p' the proof of one of its transactions
	hash blockcrypto.Hash // the block
	idx  int              // the chunk's index, for 'c'
	tx   blockcrypto.Hash // the transaction's id, for 'p'
}

func blockKey(h blockcrypto.Hash) cacheKey          { return cacheKey{kind: 'b', hash: h} }
func chunkKey(h blockcrypto.Hash, idx int) cacheKey { return cacheKey{kind: 'c', hash: h, idx: idx} }
func proofKey(h, tx blockcrypto.Hash) cacheKey      { return cacheKey{kind: 'p', hash: h, tx: tx} }

type cacheEntry struct {
	key  cacheKey
	val  any
	size int64
}

// newLRUCache builds a cache bounded to capacity bytes; capacity <= 0
// yields a disabled cache (every Get misses, every Put is rejected), so an
// uncached gateway runs the identical code path.
func newLRUCache(capacity int64, ctr cacheCounters) *lruCache {
	return &lruCache{
		capacity: capacity,
		maxEntry: capacity / admissionDiv,
		order:    list.New(),
		entries:  make(map[cacheKey]*list.Element),
		ctr:      ctr,
	}
}

// Get returns the cached value and promotes it to most-recently-used.
func (c *lruCache) Get(key cacheKey) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.ctr.misses.Inc()
		return nil, false
	}
	c.order.MoveToFront(el)
	c.ctr.hits.Inc()
	return el.Value.(*cacheEntry).val, true
}

// Put admits a value of the given size, evicting from the cold end until
// it fits. Oversized entries (see admissionDiv) are rejected, as is any
// entry when the cache is disabled.
func (c *lruCache) Put(key cacheKey, val any, size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if size <= 0 || size > c.maxEntry {
		c.ctr.rejected.Inc()
		return
	}
	if el, ok := c.entries[key]; ok {
		// Refresh in place; adjust accounting for a changed size.
		ent := el.Value.(*cacheEntry)
		c.size += size - ent.size
		ent.val, ent.size = val, size
		c.order.MoveToFront(el)
	} else {
		c.entries[key] = c.order.PushFront(&cacheEntry{key: key, val: val, size: size})
		c.size += size
	}
	for c.size > c.capacity {
		back := c.order.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*cacheEntry)
		c.order.Remove(back)
		delete(c.entries, ent.key)
		c.size -= ent.size
		c.ctr.evictions.Inc()
	}
}

// Len returns the number of cached entries.
func (c *lruCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes returns the cached payload bytes.
func (c *lruCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}
