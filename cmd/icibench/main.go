// Command icibench regenerates every table and figure of the ICIStrategy
// evaluation (the registered experiments, E1-E16 with gaps; see
// EXPERIMENTS.md) and prints them as aligned text tables, optionally
// writing CSV files for plotting. No table holds a wall-clock quantity:
// those are the benchmark's (bench/, BENCHMARK.json).
//
// Usage:
//
//	icibench [-quick] [-run E3,E4] [-csv results/] [-seed 42] [-parallel N]
//
// Experiments run as independent cells on a bounded worker pool
// (-parallel N, default GOMAXPROCS); results are collected in registry
// order, so the printed tables and CSV files are byte-identical to a
// sequential (-parallel 1) run. Tracing forces -parallel 1: a single
// suite-wide span recorder is only deterministic single-threaded.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"icistrategy/internal/experiments"
	"icistrategy/internal/metrics"
	"icistrategy/internal/obs"
	"icistrategy/internal/runner"
	"icistrategy/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "icibench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("icibench", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "run at reduced scale (seconds instead of minutes)")
	only := fs.String("run", "", "comma-separated experiment IDs to run (default all), e.g. E1,E3")
	csvDir := fs.String("csv", "", "directory to write per-experiment CSV files into")
	seed := fs.Uint64("seed", 0, "override the experiment seed (0 keeps the default)")
	parallel := fs.Int("parallel", 0, "experiment cells to run concurrently (0 = GOMAXPROCS; tracing forces 1)")
	obsf := obs.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := obsf.Setup(); err != nil {
		return err
	}

	params := experiments.Defaults()
	if *quick {
		params = experiments.Quick()
	}
	if *seed != 0 {
		params.Seed = *seed
	}
	params.Tracer = obsf.Tracer()
	params.Registry = obsf.Registry()

	var selected []experiments.Experiment
	if *only == "" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			e, ok := experiments.ByID(id)
			if !ok {
				var ids []string
				for _, e := range experiments.All() {
					ids = append(ids, e.ID)
				}
				return fmt.Errorf("unknown experiment %q (valid: %s)", id, strings.Join(ids, ", "))
			}
			selected = append(selected, e)
		}
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}

	workers := *parallel
	if obsf.Tracer() != nil && workers != 1 {
		// One suite-wide span recorder means concurrent cells would
		// interleave span IDs nondeterministically; sequential execution
		// keeps the traced span forest byte-identical run to run.
		if workers > 1 {
			fmt.Fprintln(os.Stderr, "icibench: -trace forces -parallel 1")
		}
		workers = 1
	}

	// Each experiment is one cell: it derives all randomness from the
	// root seed by stable labels, builds its own networks, and shares only
	// the commutative metrics registry — so cells can run on the pool in
	// any interleaving while the collected output stays in registry order.
	cells := make([]runner.Cell, len(selected))
	elapsed := make([]time.Duration, len(selected))
	for i, e := range selected {
		i, e := i, e
		cells[i] = runner.Cell{Key: e.ID, Run: func() (*metrics.Table, error) {
			start := time.Now()
			tbl, err := e.Run(params)
			elapsed[i] = time.Since(start)
			return tbl, err
		}}
	}
	for i, r := range runner.Run(cells, workers) {
		e := selected[i]
		if r.Err != nil {
			return fmt.Errorf("%s (%s): %w", e.ID, e.Name, r.Err)
		}
		fmt.Println(r.Table.String())
		fmt.Printf("[%s completed in %v]\n\n", e.ID, elapsed[i].Round(time.Millisecond))
		if *csvDir != "" {
			path := filepath.Join(*csvDir, strings.ToLower(e.ID)+".csv")
			if err := os.WriteFile(path, []byte(r.Table.CSV()), 0o644); err != nil {
				return fmt.Errorf("write %s: %w", path, err)
			}
		}
	}
	return obsf.Finish(os.Stdout, func(events []trace.Event) string {
		return experiments.TraceSummaryTable("suite-wide per-phase trace breakdown", events).String()
	})
}
