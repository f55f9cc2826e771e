package gateway

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/metrics"
)

func testCounters(reg *metrics.Registry, prefix string) cacheCounters {
	// Test-only: dynamic names never reach a production registry snapshot.
	return cacheCounters{
		hits:      reg.Counter(prefix + ".hits"),
		misses:    reg.Counter(prefix + ".misses"),
		evictions: reg.Counter(prefix + ".evictions"),
		rejected:  reg.Counter(prefix + ".rejected"),
	}
}

// key is the cache key the tests call name.
func key(name string) cacheKey { return blockKey(blockcrypto.Sum256([]byte(name))) }

func TestLRUEvictsColdEntriesByBytes(t *testing.T) {
	reg := metrics.NewRegistry()
	c := newLRUCache(100, testCounters(reg, "ici.test_cache"))
	for i := 0; i < 10; i++ {
		c.Put(key(fmt.Sprintf("k%d", i)), i, 20) // 200 bytes into a 100-byte cache
	}
	if c.Bytes() > 100 {
		t.Fatalf("cache over capacity: %d bytes", c.Bytes())
	}
	if c.Len() != 5 {
		t.Fatalf("len = %d, want 5", c.Len())
	}
	// The cold half is gone, the hot half present.
	if _, ok := c.Get(key("k0")); ok {
		t.Fatal("coldest entry survived")
	}
	if _, ok := c.Get(key("k9")); !ok {
		t.Fatal("hottest entry evicted")
	}
	if v := reg.Snapshot()["ici.test_cache.evictions"]; v != 5 {
		t.Fatalf("evictions = %v, want 5", v)
	}
}

func TestLRUGetPromotes(t *testing.T) {
	c := newLRUCache(80, testCounters(nil, ""))
	c.Put(key("a"), 1, 20)
	c.Put(key("b"), 2, 20)
	c.Put(key("c"), 3, 20)
	c.Put(key("d"), 4, 20)
	// Touch a so b becomes coldest, then overflow by one entry.
	if _, ok := c.Get(key("a")); !ok {
		t.Fatal("a missing")
	}
	c.Put(key("e"), 5, 20)
	if _, ok := c.Get(key("b")); ok {
		t.Fatal("LRU order ignored recency: b should have been evicted")
	}
	if _, ok := c.Get(key("a")); !ok {
		t.Fatal("recently used entry evicted")
	}
}

func TestLRUAdmissionRejectsOversized(t *testing.T) {
	reg := metrics.NewRegistry()
	c := newLRUCache(100, testCounters(reg, "ici.test_cache"))
	c.Put(key("hot"), 1, 10)
	// Larger than capacity/admissionDiv (25): rejected, nothing evicted.
	c.Put(key("whale"), 2, 40)
	if _, ok := c.Get(key("whale")); ok {
		t.Fatal("oversized entry admitted")
	}
	if _, ok := c.Get(key("hot")); !ok {
		t.Fatal("admission rejection evicted the working set")
	}
	if v := reg.Snapshot()["ici.test_cache.rejected"]; v != 1 {
		t.Fatalf("rejected = %v, want 1", v)
	}
}

func TestLRUDisabledCache(t *testing.T) {
	c := newLRUCache(0, testCounters(nil, ""))
	c.Put(key("a"), 1, 10)
	if _, ok := c.Get(key("a")); ok {
		t.Fatal("disabled cache cached")
	}
}

func TestLRUUpdateAdjustsAccounting(t *testing.T) {
	c := newLRUCache(100, testCounters(nil, ""))
	c.Put(key("a"), 1, 10)
	c.Put(key("a"), 2, 25)
	if got := c.Bytes(); got != 25 {
		t.Fatalf("bytes = %d, want 25 after in-place update", got)
	}
	v, ok := c.Get(key("a"))
	if !ok || v.(int) != 2 {
		t.Fatalf("updated value lost: %v %v", v, ok)
	}
}

func TestFlightGroupCoalesces(t *testing.T) {
	var g flightGroup
	var runs atomic.Int64
	gate := make(chan struct{})
	const N = 16
	var wg sync.WaitGroup
	shares := make([]bool, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, shared := g.Do(key("k"), func() (any, error) {
				runs.Add(1)
				<-gate
				return 42, nil
			})
			shares[i] = shared
			if err != nil || v.(int) != 42 {
				t.Errorf("call %d: v=%v err=%v", i, v, err)
			}
		}(i)
	}
	// Let every caller reach Do before the flight resolves.
	for i := 0; runs.Load() == 0 && i < 2000; i++ {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)
	close(gate)
	wg.Wait()
	if runs.Load() != 1 {
		t.Fatalf("fn ran %d times, want 1", runs.Load())
	}
	nonShared := 0
	for _, s := range shares {
		if !s {
			nonShared++
		}
	}
	if nonShared != 1 {
		t.Fatalf("%d callers executed the flight, want exactly 1", nonShared)
	}

	// After completion the key is free again: a new call re-executes.
	_, _, shared := g.Do(key("k"), func() (any, error) { runs.Add(1); return 1, nil })
	if shared || runs.Load() != 2 {
		t.Fatal("flight key leaked past completion")
	}
}
