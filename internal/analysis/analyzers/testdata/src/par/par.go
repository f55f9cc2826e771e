// Package par is a stub of icistrategy/internal/par for the determinism
// fixture: Each runs fn on worker goroutines.
package par

// Each calls fn(i) for every i in [0, n).
func Each(n, workers int, fn func(i int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}
