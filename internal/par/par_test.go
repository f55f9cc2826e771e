package par

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestEachVisitsEveryIndexOnce runs the shapes the callers produce — nothing
// to do, one item, fewer items than workers, more items than workers, the
// GOMAXPROCS default — and checks every index is handed to fn exactly once.
func TestEachVisitsEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 0}, {0, 4}, {1, 0}, {1, 8}, {3, 8}, {16, 0}, {16, 1}, {16, 2}, {257, 4}, {1000, 16},
	} {
		visits := make([]atomic.Int32, tc.n)
		Each(tc.n, tc.workers, func(i int) { visits[i].Add(1) })
		for i := range visits {
			if got := visits[i].Load(); got != 1 {
				t.Fatalf("n=%d workers=%d: index %d visited %d times", tc.n, tc.workers, i, got)
			}
		}
	}
}

// TestEachIndexedWritesMatchSequential is the contract the verification
// callers rely on: plain (non-atomic) writes to slot i from fn(i) are
// ordered before Each returns, which -race checks, and the filled slice is
// the sequential loop's.
func TestEachIndexedWritesMatchSequential(t *testing.T) {
	const n = 500
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	for _, workers := range []int{0, 1, 2, 7} {
		got := make([]int, n)
		Each(n, workers, func(i int) { got[i] = i * i })
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

// goid names the calling goroutine, from the first line of its stack trace
// ("goroutine 12 [running]:").
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

// TestEachRunsInlineWithOneWorker: one worker, one item or GOMAXPROCS 1 is
// the plain loop — every call on the caller's goroutine, in ascending order.
func TestEachRunsInlineWithOneWorker(t *testing.T) {
	inline := func(name string, n, workers int) {
		caller := goid()
		order := make([]int, 0, n) // appended without a lock: legal only inline
		Each(n, workers, func(i int) {
			order = append(order, i)
			if g := goid(); g != caller {
				t.Errorf("%s: fn(%d) ran on goroutine %s, caller is %s", name, i, g, caller)
			}
		})
		if len(order) != n {
			t.Fatalf("%s: %d calls, want %d", name, len(order), n)
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("%s: inline loop visited %v, want ascending order", name, order)
			}
		}
	}
	inline("workers=1", 32, 1)
	inline("n=1", 1, 8)

	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	inline("GOMAXPROCS=1", 32, 0)
}

// TestEachBoundsWorkers parks every worker inside fn at once: min(workers,
// n) distinct goroutines arrive, the caller is one of them, and no further
// one ever shows up while the rest of the indices drain.
func TestEachBoundsWorkers(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, tc := range []struct{ n, workers, want int }{
		{16, 0, 4}, {3, 0, 3}, {16, 2, 2}, {2, 8, 2},
	} {
		var (
			mu      sync.Mutex
			seen    = map[string]bool{}
			arrived = make(chan struct{}, tc.n)
			release = make(chan struct{})
			caller  = make(chan string, 1)
			done    = make(chan struct{})
		)
		go func() {
			defer close(done)
			caller <- goid()
			Each(tc.n, tc.workers, func(int) {
				mu.Lock()
				seen[goid()] = true
				mu.Unlock()
				arrived <- struct{}{}
				<-release
			})
		}()
		for i := 0; i < tc.want; i++ {
			<-arrived
		}
		close(release)
		<-done
		if len(seen) != tc.want {
			t.Errorf("n=%d workers=%d: %d goroutines ran fn, want %d", tc.n, tc.workers, len(seen), tc.want)
		}
		if c := <-caller; !seen[c] {
			t.Errorf("n=%d workers=%d: the caller (goroutine %s) ran no index", tc.n, tc.workers, c)
		}
	}
}
