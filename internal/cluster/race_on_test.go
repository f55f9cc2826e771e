//go:build race

package cluster

// raceEnabled lets TestBalancedKMeansStopsAtItsCycle leave out its largest
// shape under the race detector: the loop runs on one goroutine, so the
// detector has nothing to watch there, and that shape alone would take
// minutes at its slowdown.
const raceEnabled = true
