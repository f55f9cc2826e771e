// Package par holds the tree's one fork-join loop: run an indexed function
// over [0, n) on a bounded set of goroutines and return when all of it is
// done. Experiment cells, workload signing and the collaborative signature
// checks in core and consensus all fan out through Each.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Each calls fn(i) once for every i in [0, n) and returns after the last
// call has returned. workers <= 0 means GOMAXPROCS; the count never
// exceeds n. The caller is one of the workers, so a call starts
// min(workers, n) - 1 goroutines, which live until it returns; with one
// worker, or n <= 1, that is none and Each is the plain loop on the
// caller's goroutine.
//
// Workers draw indices from one atomic cursor, in no promised order. fn
// must therefore write only to what index i owns (results[i] = ..., never
// an append to a shared slice); a caller that keeps to that gets the
// sequential loop's result whatever the schedule.
func Each(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var cursor atomic.Int64
	work := func() {
		for {
			i := int(cursor.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}
