package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// BENCHMARK.json is the one place that names the workloads and metrics,
// their units, directions and regression bounds. The program reads it at
// start and refuses to print a result whose metric set differs from it, so
// the file and the code cannot drift apart.

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end only
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchSpec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

// benchDir is the benchmark's own directory relative to the working
// directory: "bench" when run from the repository root (the contract's
// way), "." when run from inside it (go run ., go test).
func benchDir() string {
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		return "bench"
	}
	return "."
}

func loadSpec() (*benchSpec, error) {
	path := filepath.Join(benchDir(), "..", "BENCHMARK.json")
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// find returns the spec of a metric of either kind.
func (s *benchSpec) find(name string) (metricSpec, bool) {
	if m, ok := findSpec(s.EndToEnd, name); ok {
		return m, true
	}
	return findSpec(s.PerLayer, name)
}

func findSpec(list []metricSpec, name string) (metricSpec, bool) {
	for _, m := range list {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

// metricValue is one reported number in the result line's wire form.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: exactly these four keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is what a workload hands back: operation counts, the notes of
// every output check that failed, and its measured values by metric name.
type outcome struct {
	attempted, failed int
	notes             []string
	m                 map[string]float64
}

func newOutcome() *outcome { return &outcome{m: make(map[string]float64)} }

// fail records one failed operation or output check.
func (o *outcome) fail(format string, a ...any) {
	o.failed++
	if len(o.notes) < 20 { // enough to diagnose; a broken run fails thousands
		o.notes = append(o.notes, fmt.Sprintf(format, a...))
	}
}

// check counts one output check and records it as failed unless ok.
func (o *outcome) check(ok bool, format string, a ...any) {
	o.attempted++
	if !ok {
		o.fail(format, a...)
	}
}

// merge adds the counts and notes of a client's own outcome.
func (o *outcome) merge(other *outcome) {
	o.attempted += other.attempted
	o.failed += other.failed
	o.notes = append(o.notes, other.notes...)
}

// toResult attaches units from the spec and verifies that the measured set
// is exactly the spec's set for this kind of run.
func (o *outcome) toResult(specs []metricSpec) (*result, error) {
	r := &result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	for _, sp := range specs {
		v, ok := o.m[sp.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is in BENCHMARK.json but was not measured", sp.Name)
		}
		r.Metrics[sp.Name] = metricValue{Value: v, Unit: sp.Unit}
	}
	if len(o.m) != len(specs) {
		var extra []string
		for name := range o.m {
			if _, ok := r.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("measured metrics missing from BENCHMARK.json: %v", extra)
	}
	return r, nil
}
