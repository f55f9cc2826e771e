package gateway

import "sync"

// flightGroup coalesces concurrent calls for the same key into one
// execution: the first caller runs fn, everyone else blocks until it
// finishes and shares the result. The standard-library pattern, kept
// in-repo because the gateway depends only on the standard library.
type flightGroup struct {
	mu sync.Mutex
	m  map[cacheKey]*flight
}

type flight struct {
	wg  sync.WaitGroup
	val any
	err error
}

// Do runs fn once per key among concurrent callers; shared reports whether
// this caller joined an execution started by another.
func (g *flightGroup) Do(key cacheKey, fn func() (any, error)) (val any, err error, shared bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[cacheKey]*flight)
	}
	if f, ok := g.m[key]; ok {
		g.mu.Unlock()
		f.wg.Wait()
		return f.val, f.err, true
	}
	f := &flight{}
	f.wg.Add(1)
	g.m[key] = f
	g.mu.Unlock()

	f.val, f.err = fn()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	f.wg.Done()
	return f.val, f.err, false
}
