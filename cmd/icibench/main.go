// Command icibench regenerates every table and figure of the ICIStrategy
// evaluation (experiments E1-E10, see DESIGN.md) and prints them as aligned
// text tables, optionally writing CSV files for plotting.
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
//
// The -erasurebench FILE mode skips the experiment suite and instead writes
// a JSON snapshot of the erasure hot-path throughput (encode MB/s for the
// kernel and scalar paths, the speedup, reconstruction MB/s, allocation
// counts). The -simbench FILE mode does the same for the simulation engine:
// events/sec, allocs/event, and wall time of an E4-style flood+ack workload
// on the overhauled engine versus the frozen pre-overhaul baseline. The
// -gatewaybench FILE mode snapshots the read-path gateway under a Zipfian
// closed-loop load over a real TCP storage cluster, caches on versus off
// (QPS, p50/p99 latency, hit rate, upstream RPC counts). The -churnbench
// FILE mode snapshots availability and chunk movement under membership
// churn (graceful leave/rejoin cycles, flash-crowd join bursts, correlated
// crashes) and fails unless graceful churn keeps 100% availability within
// the per-epoch movement bound.
// -minspeedup N makes any bench mode exit nonzero when its headline
// speedup falls below N — the CI regression gates.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"icistrategy/internal/experiments"
	"icistrategy/internal/gateway"
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
	erasureBench := fs.String("erasurebench", "", "write an erasure hot-path throughput snapshot to this JSON file and exit")
	simBench := fs.String("simbench", "", "write a simulation-engine throughput snapshot to this JSON file and exit")
	gatewayBench := fs.String("gatewaybench", "", "write a gateway read-path load snapshot to this JSON file and exit")
	churnBench := fs.String("churnbench", "", "write a churn availability/movement snapshot to this JSON file and exit")
	minSpeedup := fs.Float64("minspeedup", 0, "with -erasurebench/-simbench/-gatewaybench: fail unless the headline speedup reaches this factor")
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

	if *erasureBench != "" {
		return runErasureBench(*erasureBench, params, *quick, *minSpeedup)
	}
	if *simBench != "" {
		return runSimBench(*simBench, params, *quick, *minSpeedup)
	}
	if *gatewayBench != "" {
		return runGatewayBench(*gatewayBench, params, *quick, *minSpeedup)
	}
	if *churnBench != "" {
		return runChurnBench(*churnBench, params, *quick)
	}

	var selected []experiments.Experiment
	if *only == "" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			e, ok := experiments.ByID(id)
			if !ok {
				all := experiments.All()
				return fmt.Errorf("unknown experiment %q (valid: %s..%s)", id, all[0].ID, all[len(all)-1].ID)
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

// benchEnv is the shared environment header of the JSON bench snapshots
// (BENCH_PR2.json, BENCH_PR5.json).
type benchEnv struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	GOARCH      string `json:"goarch"`
	NumCPU      int    `json:"num_cpu"`
	Quick       bool   `json:"quick"`
	Seed        uint64 `json:"seed"`
}

func currentBenchEnv(quick bool, seed uint64) benchEnv {
	return benchEnv{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		Quick:       quick,
		Seed:        seed,
	}
}

// writeBenchReport marshals a bench snapshot to path.
func writeBenchReport(path string, report any) error {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// erasureBenchReport is the schema of BENCH_PR2.json: one measurement per
// code shape at the configured block size, plus enough environment to read
// the numbers in context.
type erasureBenchReport struct {
	benchEnv
	Results []experiments.CodingResult `json:"results"`
}

// runErasureBench measures the erasure hot path, writes the JSON snapshot,
// prints a summary, and enforces the -minspeedup gate against the headline
// (first) shape.
func runErasureBench(path string, params experiments.Params, quick bool, minSpeedup float64) error {
	window := 500 * time.Millisecond
	if quick {
		window = 50 * time.Millisecond
	}
	report := erasureBenchReport{benchEnv: currentBenchEnv(quick, params.Seed)}
	for _, shape := range experiments.CodingShapes(params) {
		start := time.Now()
		r, err := experiments.RunCodingBench(shape, int(params.BlockBody), params.Seed, window)
		if err != nil {
			return fmt.Errorf("erasure bench RS(%d,%d): %w", shape.K, shape.M, err)
		}
		report.Results = append(report.Results, r)
		fmt.Printf("RS(%d,%d) @ %d B payload: encode %.0f MB/s (scalar %.0f, %.1fx), reconstruct %.0f MB/s (cold %.0f) [%v]\n",
			shape.K, shape.M, r.PayloadBytes, r.EncodeMBps, r.EncodeScalarMBps, r.EncodeSpeedup,
			r.ReconstructMBps, r.ReconstructColdMBps, time.Since(start).Round(time.Millisecond))
	}
	if err := writeBenchReport(path, report); err != nil {
		return err
	}
	if minSpeedup > 0 {
		headline := report.Results[0]
		if headline.EncodeSpeedup < minSpeedup {
			return fmt.Errorf("encode speedup %.2fx below required %.2fx (RS(%d,%d), kernel %.0f MB/s vs scalar %.0f MB/s)",
				headline.EncodeSpeedup, minSpeedup, headline.K, headline.M,
				headline.EncodeMBps, headline.EncodeScalarMBps)
		}
		fmt.Printf("speedup gate passed: %.2fx >= %.2fx\n", headline.EncodeSpeedup, minSpeedup)
	}
	return nil
}

// simBenchReport is the schema of BENCH_PR5.json: one measurement per
// network size, overhauled engine versus the frozen pre-overhaul baseline.
type simBenchReport struct {
	benchEnv
	Results []experiments.SimBenchResult `json:"results"`
}

// runSimBench measures the event engine on the E4-style workload at each
// sweep size, writes the JSON snapshot, and enforces the -minspeedup gate
// against the headline (first, paper-scale) size.
func runSimBench(path string, params experiments.Params, quick bool, minSpeedup float64) error {
	report := simBenchReport{benchEnv: currentBenchEnv(quick, params.Seed)}
	for _, n := range experiments.SimBenchSizes(quick) {
		// Cells of the sweep get independent seeds derived from the root
		// by their stable key, so adding a size never perturbs another.
		seed := runner.CellSeed(params.Seed, fmt.Sprintf("simbench/n=%d", n))
		r, err := experiments.RunSimBench(n, experiments.SimBenchRounds(n, quick), seed)
		if err != nil {
			return fmt.Errorf("simbench n=%d: %w", n, err)
		}
		report.Results = append(report.Results, r)
		fmt.Printf("n=%d: %d events in %.2fs — %.0f events/s, %.2f allocs/event (baseline %.0f events/s, %.2f allocs/event) — %.1fx\n",
			r.Nodes, r.Events, r.WallSeconds, r.EventsPerSec, r.AllocsPerEvent,
			r.BaselineEventsPerSec, r.BaselineAllocsPerEvent, r.Speedup)
	}
	if err := writeBenchReport(path, report); err != nil {
		return err
	}
	if minSpeedup > 0 {
		headline := report.Results[0]
		if headline.Speedup < minSpeedup {
			return fmt.Errorf("engine speedup %.2fx below required %.2fx (n=%d: %.0f events/s vs baseline %.0f events/s)",
				headline.Speedup, minSpeedup, headline.Nodes,
				headline.EventsPerSec, headline.BaselineEventsPerSec)
		}
		fmt.Printf("speedup gate passed: %.2fx >= %.2fx\n", headline.Speedup, minSpeedup)
	}
	return nil
}

// gatewayBenchReport is the schema of BENCH_PR7.json: the same Zipfian
// closed-loop workload driven through the gateway with its caches on and
// off, over a real TCP storage cluster.
type gatewayBenchReport struct {
	benchEnv
	CacheOn    gateway.LoadReport `json:"cache_on"`
	CacheOff   gateway.LoadReport `json:"cache_off"`
	QPSSpeedup float64            `json:"qps_speedup"`
}

// runGatewayBench drives the gateway load harness in both cache modes,
// writes the JSON snapshot, and enforces the -minspeedup gate against the
// cache-on / cache-off QPS ratio.
func runGatewayBench(path string, params experiments.Params, quick bool, minSpeedup float64) error {
	report := gatewayBenchReport{benchEnv: currentBenchEnv(quick, params.Seed)}
	for _, mode := range []struct {
		name  string
		bytes int64
		out   *gateway.LoadReport
	}{
		{"cache-on", params.GatewayCacheBytes, &report.CacheOn},
		{"cache-off", 0, &report.CacheOff},
	} {
		r, err := gateway.RunLoad(params.GatewayLoadConfig(mode.bytes))
		if err != nil {
			return fmt.Errorf("gatewaybench %s: %w", mode.name, err)
		}
		*mode.out = r
		fmt.Printf("%s: %d reqs (%d errors) in %.2fs — %.0f QPS, p50 %.2f ms, p99 %.2f ms, hit rate %.2f, %d upstream RPCs (%d refs), %d coalesced\n",
			mode.name, r.Requests, r.Errors, r.Seconds, r.QPS,
			r.P50Millis, r.P99Millis, r.HitRate, r.UpstreamRPCs, r.BatchedRefs, r.Coalesced)
	}
	if report.CacheOff.QPS > 0 {
		report.QPSSpeedup = report.CacheOn.QPS / report.CacheOff.QPS
	}
	if err := writeBenchReport(path, report); err != nil {
		return err
	}
	if minSpeedup > 0 {
		if report.QPSSpeedup < minSpeedup {
			return fmt.Errorf("gateway QPS speedup %.2fx below required %.2fx (cache on %.0f QPS vs off %.0f QPS)",
				report.QPSSpeedup, minSpeedup, report.CacheOn.QPS, report.CacheOff.QPS)
		}
		fmt.Printf("speedup gate passed: %.2fx >= %.2fx\n", report.QPSSpeedup, minSpeedup)
	}
	return nil
}

// churnBenchReport is the schema of BENCH_PR8.json: availability and chunk
// movement per churn variant and rate over the epoch-versioned membership
// machinery.
type churnBenchReport struct {
	benchEnv
	Results []experiments.ChurnResult `json:"results"`
}

// runChurnBench sweeps the churn variants, writes the JSON snapshot, and
// enforces the correctness gate: graceful and flash-crowd churn must keep
// every pre-churn block retrievable (availability 1.0) and per-epoch chunk
// movement within the incremental re-clustering bound. Correlated crashes
// are reported but not gated — losing chunks past the replication factor
// is the expected physics, not a regression.
func runChurnBench(path string, params experiments.Params, quick bool) error {
	report := churnBenchReport{benchEnv: currentBenchEnv(quick, params.Seed)}
	results, err := experiments.RunChurnBench(params)
	if err != nil {
		return err
	}
	report.Results = results
	var failures []string
	for _, r := range results {
		fmt.Printf("%s rate=%d: %d blocks over %d epochs — pre-churn avail %.2f, all %.2f, moved %d chunks (max epoch %d, bound %d), lost %d\n",
			r.Variant, r.Rate, r.Blocks, r.Epochs, r.PreChurnAvail, r.AllAvail,
			r.MovedChunks, r.MaxEpochMoved, r.EpochMoveBound, r.LostChunks)
		if r.Variant == "correlated" {
			continue
		}
		if r.PreChurnAvail < 1 || r.AllAvail < 1 || !r.RetrieveOK {
			failures = append(failures, fmt.Sprintf(
				"%s rate=%d: availability pre=%.2f all=%.2f retrieve_ok=%v (want 1.0/1.0/true)",
				r.Variant, r.Rate, r.PreChurnAvail, r.AllAvail, r.RetrieveOK))
		}
		if r.MaxEpochMoved > r.EpochMoveBound {
			failures = append(failures, fmt.Sprintf(
				"%s rate=%d: max per-epoch movement %d chunks exceeds bound %d",
				r.Variant, r.Rate, r.MaxEpochMoved, r.EpochMoveBound))
		}
	}
	if err := writeBenchReport(path, report); err != nil {
		return err
	}
	if len(failures) > 0 {
		return fmt.Errorf("churn gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Println("churn gate passed: graceful and flash-crowd churn kept 100% availability within the movement bound")
	return nil
}
