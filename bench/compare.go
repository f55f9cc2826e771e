package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"text/tabwriter"
)

// runRecord is one run of one workload inside a result file.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Traced   bool    `json:"traced"`
	Result   *result `json:"result"`
}

// resultFile is what -all writes and -compare reads.
type resultFile struct {
	Env  environment `json:"env"`
	Runs []runRecord `json:"runs"`
}

func (f *resultFile) correct() bool {
	for _, r := range f.Runs {
		if !r.Result.Correct {
			return false
		}
	}
	return true
}

func (f *resultFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// values collects a metric's readings for a workload across the file's
// runs; a metric is reported by the traced or the untraced runs, never both.
func (f *resultFile) values(workload, metric string) []float64 {
	var v []float64
	for _, r := range f.Runs {
		if mv, ok := r.Result.Metrics[metric]; ok && r.Workload == workload {
			v = append(v, mv.Value)
		}
	}
	return v
}

// runChild runs one workload in a fresh process — a workload never shares
// a heap, a scheduler or warmed caches with the one before it — passing its
// report through and parsing the result line.
func runChild(cfg runConfig) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if cfg.traced {
		trace = "1"
	}
	args := []string{"-workload", cfg.workload, "-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.Itoa(cfg.seconds), "-trace", trace}
	if cfg.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = io.MultiWriter(&stdout, os.Stdout), os.Stderr
	runErr := cmd.Run() // exit 1 still prints a result line: a failed check, not a crash
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || res.Metrics == nil {
		return nil, fmt.Errorf("%s (traced=%v) printed no result: %v", cfg.workload, cfg.traced, runErr)
	}
	return &res, nil
}

// runAll is -all: every workload, untraced then traced, runs times.
func runAll(spec *benchSpec, cfg runConfig, runs int) (*resultFile, error) {
	file := &resultFile{Env: currentEnvironment(cfg)}
	for rep := 0; rep < runs; rep++ {
		for _, w := range spec.Workloads {
			for _, traced := range []bool{false, true} {
				c := cfg
				c.workload, c.traced, c.seed = w.Name, traced, cfg.seed+uint64(rep)
				res, err := runChild(c)
				if err != nil {
					return nil, err
				}
				file.Runs = append(file.Runs, runRecord{Workload: w.Name, Seed: c.seed, Traced: traced, Result: res})
			}
		}
	}
	return file, nil
}

// exactMetrics are counts a seed fixes completely: two runs of one commit
// on one seed must agree on them to the last digit.
var exactMetrics = []string{
	"node_storage_fraction", "storage.stored_bytes_per_user_byte",
	"core.sim.wire_kb_per_block", "core.sim.events_per_block", "core.sim.msgs_per_block",
	"core.sim.bootstrap_kb_per_join", "consensus.votes_per_block",
	"netx.cluster.retire_moved_chunks", "netx.cluster.distribute_rpcs_per_block",
}

// selfCheck is -selfcheck: same seed twice, exact counts must be identical.
func selfCheck(spec *benchSpec, cfg runConfig) error {
	a, err := runAll(spec, cfg, 1)
	if err != nil {
		return err
	}
	b, err := runAll(spec, cfg, 1)
	if err != nil {
		return err
	}
	if !a.correct() || !b.correct() {
		return fmt.Errorf("selfcheck: a run failed its output checks")
	}
	bad := 0
	for _, w := range spec.Workloads {
		for _, name := range exactMetrics {
			va, vb := a.values(w.Name, name), b.values(w.Name, name)
			if len(va) != 1 || len(vb) != 1 {
				return fmt.Errorf("selfcheck: %s reported %s %d and %d times", w.Name, name, len(va), len(vb))
			}
			verdict := "identical"
			if va[0] != vb[0] {
				verdict = "DIFFERS"
				bad++
			}
			fmt.Printf("selfcheck %-14s %-44s %-18v %-18v %s\n", w.Name, name, va[0], vb[0], verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d exact counts differ between two runs of seed %d", bad, cfg.seed)
	}
	return nil
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &f, nil
}

// compareFiles is -compare: B (the change) against A (the parent), one
// row per workload and metric. An end-to-end metric is
//
//	regressed   when B's median is worse than A's by more than its bound,
//	unresolved  when either side's run-to-run spread (interquartile
//	            distance over median) is wider than the bound, unless every
//	            run of B reads better than every run of A,
//	ok          otherwise.
//
// Per-layer metrics have no bound and are listed with their change only.
// It reports whether nothing regressed.
func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) (bool, error) {
	a, err := readResultFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA\tB\tworse by\tbound\tspread\tverdict")
	pass := true
	for _, wl := range spec.Workloads {
		for _, list := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
			for _, m := range list {
				va, vb := a.values(wl.Name, m.Name), b.values(wl.Name, m.Name)
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				ma, mb := median(va), median(vb)
				worse := 0.0
				if ma != 0 {
					worse = (mb - ma) / ma
					if m.Better == "higher" {
						worse = -worse
					}
				}
				sp := spread(va)
				if s := spread(vb); s > sp {
					sp = s
				}
				verdict, bound := "-", "-"
				if _, endToEnd := findSpec(spec.EndToEnd, m.Name); endToEnd {
					bound = fmt.Sprintf("%.1f%%", m.Bound*100)
					switch {
					case sp > m.Bound && !allBetter(va, vb, m.Better):
						verdict = "unresolved"
					case worse > m.Bound:
						verdict, pass = "regressed", false
					default:
						verdict = "ok"
					}
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%s\t%.1f%%\t%s\n",
					wl.Name, m.Name, m.Unit, ma, mb, worse*100, bound, sp*100, verdict)
			}
		}
	}
	return pass, tw.Flush()
}

// allBetter reports whether every reading of b is better than every
// reading of a.
func allBetter(a, b []float64, better string) bool {
	for _, x := range a {
		for _, y := range b {
			if (better == "higher" && y <= x) || (better != "higher" && y >= x) {
				return false
			}
		}
	}
	return true
}
