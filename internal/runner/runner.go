// Package runner executes independent simulation cells on a bounded worker
// pool without giving up byte-identical reproducibility.
//
// A cell is one self-contained unit of harness work — one experiment, one
// (configuration, seed) sweep point — that builds its own Network from its
// own seed and shares no mutable state with its siblings. Because cells
// are independent, the pool may run them in any interleaving; determinism
// is preserved structurally:
//
//   - results land in a slice indexed by the cell's input position, so
//     collection order is the caller's order, never goroutine completion
//     order;
//   - per-cell seeds derive from the root seed by stable cell key
//     (CellSeed), so a cell's randomness does not depend on which worker
//     picks it up or when;
//   - workers draw cells from par.Each's one atomic cursor — no channels,
//     no select, nothing the runtime scheduler can reorder into the results.
//
// Under these rules a -parallel N run renders byte-identically to the
// sequential run of the same cells.
package runner

import (
	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/metrics"
	"icistrategy/internal/par"
)

// Cell is one independently runnable unit of harness work. Run must be
// self-contained: it derives everything it needs (network, RNG, workload)
// from its own configuration and touches no sibling state. Shared sinks it
// does write (metrics counters) must be commutative.
type Cell struct {
	// Key names the cell stably across runs — an experiment ID ("E4"), a
	// sweep coordinate ("simbench/n=4096"). It labels the result and is
	// the input to per-cell seed derivation.
	Key string
	// Run executes the cell.
	Run func() (*metrics.Table, error)
}

// Result is one cell's outcome, reported at the cell's input index.
type Result struct {
	Key   string
	Table *metrics.Table
	Err   error
}

// CellSeed derives the seed for one cell from the root seed and the cell's
// stable key. The derivation matches the repo's RNG forking convention
// (hash of parent state + label), so a cell's stream is independent of its
// position in the schedule and of every other cell's consumption.
func CellSeed(root uint64, key string) uint64 {
	return blockcrypto.NewRNG(root).Fork("cell/" + key).Uint64()
}

// Run executes cells on a bounded pool of workers and returns results in
// input order. workers <= 0 defaults to GOMAXPROCS; the pool never exceeds
// len(cells). A cell error is reported in its Result, not returned early:
// sibling cells always run to completion, exactly as they would
// sequentially.
func Run(cells []Cell, workers int) []Result {
	results := make([]Result, len(cells))
	par.Each(len(cells), workers, func(i int) {
		c := cells[i]
		tbl, err := c.Run()
		// Indexed write, never an append: result order is the input order
		// by construction.
		results[i] = Result{Key: c.Key, Table: tbl, Err: err}
	})
	return results
}
