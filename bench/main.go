// Command bench is the repository's one benchmark: four workloads over the
// real code (a TCP storage cluster and gateway on loopback, and the
// simulator), end-to-end and per-layer metrics, and a traced run. It is
// written to the contract in BENCHMARK.json at the repository root; see
// README.md beside this file.
//
//	bash bench/run.sh --workload tcp-read-cold --seed 42 --seconds 20 --trace 0
//	bash bench/run.sh -all -out a.json      every workload, untraced and traced
//	bash bench/run.sh -compare a.json b.json
//	bash bench/run.sh -selfcheck -quick
//	bash bench/run.sh -layers
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"testing"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
	quick    bool
	sc       scale
	setups   int // how many times an untraced run sets up (setup_s is their median)
}

// measured is the length of the measured phase.
func (cfg runConfig) measured() time.Duration {
	if cfg.quick {
		return 300 * time.Millisecond
	}
	return time.Duration(cfg.seconds) * time.Second
}

// newRunConfig sizes a run: full scale, or with quick the smoke test's
// scale and probe time.
func newRunConfig(workload string, seed uint64, seconds int, traced, quick bool) (runConfig, error) {
	cfg := runConfig{workload: workload, seed: seed, seconds: seconds, traced: traced, quick: quick, sc: fullScale, setups: 3}
	if quick {
		cfg.sc, cfg.setups, cfg.seconds = quickScale, 2, 1
		probeTime = 2 * time.Millisecond
		refCodecIters, refSigIters, refRepeats = 20, 10, 1
	}
	return cfg, flag.Set("test.benchtime", probeTime.String())
}

func logf(format string, a ...any) { fmt.Fprintf(os.Stderr, "bench: "+format+"\n", a...) }

func main() {
	testing.Init() // registers -test.benchtime, which sizes the layer probes
	var (
		workload  = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed      = flag.Uint64("seed", 42, "seed every input is generated from")
		seconds   = flag.Int("seconds", 0, "length of the measured phase (default: BENCHMARK.json run_seconds)")
		trace     = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics; 0: end-to-end metrics")
		quick     = flag.Bool("quick", false, "smoke-test scale: every code path in about a second, timings meaningless")
		all       = flag.Bool("all", false, "run every workload untraced and traced, each in a fresh process")
		runs      = flag.Int("runs", 1, "with -all: repetitions per workload, seeds seed, seed+1, ...")
		out       = flag.String("out", "", "with -all: write the results to this file, for -compare")
		compare   = flag.Bool("compare", false, "compare two -all result files: bench -compare A.json B.json")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice on one seed; fail unless the exact counts agree")
		layers    = flag.Bool("layers", false, "run the per-layer probe suite alone")
	)
	flag.Parse()
	spec, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	cfg, err := newRunConfig(*workload, *seed, *seconds, *trace != 0, *quick)
	if err != nil {
		fatal(err)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: bench -compare A.json B.json"))
		}
		ok, err := compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *selfcheck:
		if err := selfCheck(spec, cfg); err != nil {
			fatal(err)
		}
	case *layers:
		if err := printLayers(spec, cfg); err != nil {
			fatal(err)
		}
	case *all:
		file, err := runAll(spec, cfg, *runs)
		if err != nil {
			fatal(err)
		}
		if *out != "" {
			if err := file.write(*out); err != nil {
				fatal(err)
			}
		}
		if !file.correct() {
			os.Exit(1)
		}
	default:
		if !spec.hasWorkload(cfg.workload) {
			fatal(fmt.Errorf("unknown workload %q; BENCHMARK.json lists %v", cfg.workload, spec.Workloads))
		}
		res, err := runOne(spec, cfg)
		if err != nil {
			fatal(err)
		}
		printResult(cfg, res)
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	logf("%v", err)
	os.Exit(2)
}

// workloadLayerMetrics are the per-layer metrics that come from the traced
// workload itself and not from the probes. A traced run starts them at 0;
// a workload sets the ones it exercises, so a 0 says the workload does not
// touch that layer (gateway counters on sim-lifecycle, say). The only
// timings among them are the two tail.* ones, which every workload measures.
var workloadLayerMetrics = []string{
	"bench.trace_overhead_pct", "trace.spans", "tail.op_p99_ms", "tail.aux_p50_ms",
	"gateway.batch.refs_per_rpc", "gateway.batch.rpcs_per_read", "gateway.coalesced",
	"gateway.cache.hit_rate", "gateway.cache.evictions",
	"netx.server.conn_errors", "netx.cluster.distribute_rpcs_per_block",
	"storage.stored_bytes_per_user_byte",
	"consensus.votes_per_block", "core.sim.events_per_block", "core.sim.msgs_per_block",
	"core.sim.wire_kb_per_block", "core.sim.bootstrap_kb_per_join",
	"trace.read.client_self_pct", "trace.read.header_pct", "trace.read.parts_pct", "trace.read.owners_pct",
	"trace.read.fetch_batch_pct", "trace.read.tx_proof_pct", "trace.read.refresh_pct",
	"trace.write.client_self_pct", "trace.write.tx_merkle_tree_pct", "trace.write.prove_pct",
	"trace.write.encode_body_pct", "trace.write.owners_pct", "trace.write.put_header_pct",
	"trace.write.put_chunk_pct", "trace.write.coverage_ratio",
	"trace.sim.round_self_pct", "trace.sim.new_system_pct", "trace.sim.produce_pct", "trace.sim.retrieve_pct",
	"trace.sim.join_pct", "trace.sim.repair_pct", "trace.sim.archive_pct",
}

// workloads maps each workload of BENCHMARK.json to its untraced run and
// its traced run (which fills in the workload-derived layer metrics and
// returns the spans).
var workloads = map[string]struct {
	run   func(runConfig) (*outcome, error)
	trace func(runConfig, *outcome) ([]span, error)
}{
	"tcp-read-cold": {runReads, traceReads},
	"tcp-read-hot":  {runReads, traceReads},
	"tcp-write":     {runWrites, traceWrites},
	"sim-lifecycle": {runSim, traceSim},
}

// runOne runs one workload in this process and returns its result line.
func runOne(spec *benchSpec, cfg runConfig) (*result, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("workload %q has no implementation", cfg.workload)
	}
	if !cfg.traced {
		o, err := w.run(cfg)
		if err != nil {
			return nil, err
		}
		reportNotes(o)
		return o.toResult(spec.EndToEnd)
	}
	o := newOutcome()
	for _, name := range workloadLayerMetrics {
		o.m[name] = 0
	}
	// Per-layer times are as the clock read them; the two kernel readings,
	// before and after, say what state the machine was in meanwhile.
	before, err := readRef(refMix{codec: 1, sig: 1})
	if err != nil {
		return nil, err
	}
	spans, err := w.trace(cfg, o)
	if err != nil {
		return nil, err
	}
	path, err := writeTrace(cfg.workload, cfg.seed, spans)
	if err != nil {
		return nil, err
	}
	logf("%s: %d spans written to %s", cfg.workload, len(spans), path)
	if _, err := runLayerProbes(cfg.sc, cfg.seed, o.m); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	after, err := readRef(refMix{codec: 1, sig: 1})
	if err != nil {
		return nil, err
	}
	o.m["bench.ref_codec_ms"], o.m["bench.ref_sig_ms"] = (before.codec+after.codec)/2, (before.sig+after.sig)/2
	reportNotes(o)
	return o.toResult(spec.PerLayer)
}

func reportNotes(o *outcome) {
	for _, n := range o.notes {
		logf("FAILED: %s", n)
	}
}

// printMetrics prints every metric by name with its unit, sorted.
func printMetrics(m map[string]metricValue) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-44s %14.6g %s\n", name, m[name].Value, m[name].Unit)
	}
}

// printResult prints the environment, every metric, and as the last line
// of standard output the result object.
func printResult(cfg runConfig, res *result) {
	env, _ := json.Marshal(currentEnvironment(cfg)) // plain struct: cannot fail
	fmt.Printf("# %s traced=%v env=%s\n", cfg.workload, cfg.traced, env)
	printMetrics(res.Metrics)
	fmt.Printf("%-44s %14d\n%-44s %14d\n", "attempted", res.Attempted, "failed", res.Failed)
	line, _ := json.Marshal(res) // maps of plain structs: cannot fail
	fmt.Println(string(line))
}

// printLayers is -layers: the probe suite on its own, with the
// testing.Benchmark figures of each probe.
func printLayers(spec *benchSpec, cfg runConfig) error {
	m := make(map[string]float64)
	rows, err := runLayerProbes(cfg.sc, cfg.seed, m)
	if err != nil {
		return err
	}
	fmt.Printf("%-44s %12s %12s %10s %10s\n", "probe", "iterations", "ns/op", "B/op", "allocs/op")
	for _, r := range rows {
		fmt.Printf("%-44s %12d %12d %10d %10d\n", r.name, r.res.N, r.res.NsPerOp(), r.res.AllocedBytesPerOp(), r.res.AllocsPerOp())
	}
	fmt.Println()
	values := make(map[string]metricValue, len(m))
	for name, v := range m {
		sp, _ := spec.find(name)
		values[name] = metricValue{Value: v, Unit: sp.Unit}
	}
	printMetrics(values)
	return nil
}
