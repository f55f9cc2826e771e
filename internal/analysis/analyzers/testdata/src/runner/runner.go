// Package runner is the determinism golden fixture for the
// goroutine-completion-order rule: the parallel experiment runner must
// never derive result order from which worker finishes first. Appending
// to a slice captured from the enclosing scope does exactly that; the
// sanctioned pattern writes each result into an indexed slot so result
// order is the input order by construction.
package runner

import (
	"sync"

	"par"
)

type result struct {
	key string
	val int
}

// collectByCompletion is the hazard: workers append to a shared slice, so
// the results land in scheduler-decided completion order (and the mutex
// only makes the race disappear, not the ordering nondeterminism).
func collectByCompletion(keys []string) []result {
	var (
		mu      sync.Mutex
		results []result
		wg      sync.WaitGroup
	)
	for _, k := range keys {
		k := k
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			results = append(results, result{key: k}) // want `completion`
			mu.Unlock()
		}()
	}
	wg.Wait()
	return results
}

// collectIndexed is the sanctioned pattern: a pre-sized slice with one
// indexed write per cell. Result order is the input order no matter which
// goroutine finishes first, so the analyzer must stay silent.
func collectIndexed(keys []string) []result {
	results := make([]result, len(keys))
	var wg sync.WaitGroup
	for i, k := range keys {
		i, k := i, k
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = result{key: k}
		}()
	}
	wg.Wait()
	return results
}

// localAppend shows that a goroutine appending to its own local slice is
// fine: nothing outside the goroutine observes the order.
func localAppend(keys []string, sink chan<- int) {
	go func() {
		var local []result
		for _, k := range keys {
			local = append(local, result{key: k})
		}
		sink <- len(local)
	}()
}

// sequentialAppend shows the rule only fires inside go statements: the
// same append in straight-line code is ordinary deterministic iteration.
func sequentialAppend(keys []string) []result {
	var results []result
	for _, k := range keys {
		results = append(results, result{key: k})
	}
	return results
}

// eachByCompletion is the same hazard through the fork-join helper: the
// closure runs on par.Each's workers, so the shared append is ordered by
// the scheduler even though no go statement is in sight.
func eachByCompletion(keys []string) []result {
	var (
		mu      sync.Mutex
		results []result
	)
	par.Each(len(keys), 0, func(i int) {
		mu.Lock()
		results = append(results, result{key: keys[i]}) // want `completion`
		mu.Unlock()
	})
	return results
}

// eachIndexed is how the runner and the verification loops use the helper:
// one indexed write per call, silent.
func eachIndexed(keys []string) []result {
	results := make([]result, len(keys))
	par.Each(len(keys), 0, func(i int) {
		results[i] = result{key: keys[i]}
	})
	return results
}
