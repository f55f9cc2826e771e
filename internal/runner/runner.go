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
//   - a cell's randomness comes from its own configuration (the suite seed
//     forked by fixed labels inside the cell), so it does not depend on
//     which worker picks the cell up or when;
//   - workers draw cells from par.Each's one atomic cursor — no channels,
//     no select, nothing the runtime scheduler can reorder into the results.
//
// Under these rules a -parallel N run renders byte-identically to the
// sequential run of the same cells.
package runner

import (
	"icistrategy/internal/metrics"
	"icistrategy/internal/par"
)

// Cell is one independently runnable unit of harness work. Run must be
// self-contained: it derives everything it needs (network, RNG, workload)
// from its own configuration and touches no sibling state. Shared sinks it
// does write (metrics counters) must be commutative.
type Cell struct {
	// Key names the cell stably across runs — an experiment ID ("E4"). It
	// labels the result.
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
