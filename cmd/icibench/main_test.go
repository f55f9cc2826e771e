package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestRunSingleExperimentWithCSV(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-quick", "-run", "E3", "-csv", dir}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "e3.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty CSV written")
	}
}

func TestRunMultipleExperiments(t *testing.T) {
	if err := run([]string{"-quick", "-run", "E7,E8"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	err := run([]string{"-quick", "-run", "E99"})
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if !strings.Contains(err.Error(), "valid: E1..E16") {
		t.Fatalf("error does not name the registered range: %v", err)
	}
}

func TestRunSeedOverride(t *testing.T) {
	if err := run([]string{"-quick", "-run", "E8", "-seed", "7"}); err != nil {
		t.Fatal(err)
	}
}

func TestErasureBenchWritesReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := run([]string{"-quick", "-erasurebench", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report erasureBenchReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if len(report.Results) == 0 {
		t.Fatal("report holds no results")
	}
	head := report.Results[0]
	if head.K != 16 || head.M != 4 {
		t.Fatalf("headline shape = RS(%d,%d), want RS(16,4)", head.K, head.M)
	}
	if head.EncodeMBps <= 0 || head.EncodeScalarMBps <= 0 || head.ReconstructMBps <= 0 {
		t.Fatalf("non-positive throughput in %+v", head)
	}
	if head.EncodeSpeedup <= 0 {
		t.Fatalf("speedup not computed: %+v", head)
	}
}

// TestErasureBenchSpeedupGate exercises both sides of -minspeedup: an
// impossible threshold must fail, a trivial one must pass.
func TestErasureBenchSpeedupGate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := run([]string{"-quick", "-erasurebench", path, "-minspeedup", "1e9"}); err == nil {
		t.Fatal("impossible speedup gate passed")
	}
	if err := run([]string{"-quick", "-erasurebench", path, "-minspeedup", "0.0001"}); err != nil {
		t.Fatalf("trivial speedup gate failed: %v", err)
	}
}

// TestParallelMatchesSequentialCSV runs the same experiment slice through
// a 1-worker and a wide pool and requires byte-identical CSV output — the
// determinism contract of the parallel runner, end to end through the CLI.
func TestParallelMatchesSequentialCSV(t *testing.T) {
	seqDir, parDir := t.TempDir(), t.TempDir()
	if err := run([]string{"-quick", "-run", "E3,E4,E7", "-parallel", "1", "-csv", seqDir}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-quick", "-run", "E3,E4,E7", "-parallel", "8", "-csv", parDir}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"e3.csv", "e4.csv", "e7.csv"} {
		seq, err := os.ReadFile(filepath.Join(seqDir, name))
		if err != nil {
			t.Fatal(err)
		}
		par, err := os.ReadFile(filepath.Join(parDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(seq) != string(par) {
			t.Fatalf("%s differs between -parallel 1 and -parallel 8", name)
		}
	}
}

func TestSimBenchWritesReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := run([]string{"-quick", "-simbench", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report simBenchReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if len(report.Results) != 2 {
		t.Fatalf("got %d results, want 2 sweep sizes", len(report.Results))
	}
	for _, r := range report.Results {
		if r.Events <= 0 || r.EventsPerSec <= 0 || r.BaselineEventsPerSec <= 0 || r.Speedup <= 0 {
			t.Fatalf("degenerate measurement: %+v", r)
		}
		if r.AllocsPerEvent > 2 {
			t.Fatalf("n=%d: %.2f allocs/event on the overhauled engine, want <= 2", r.Nodes, r.AllocsPerEvent)
		}
	}
}

// TestSimBenchSpeedupGate exercises both sides of -minspeedup in simbench
// mode: an impossible threshold must fail, a trivial one must pass.
func TestSimBenchSpeedupGate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := run([]string{"-quick", "-simbench", path, "-minspeedup", "1e9"}); err == nil {
		t.Fatal("impossible speedup gate passed")
	}
	if err := run([]string{"-quick", "-simbench", path, "-minspeedup", "0.0001"}); err != nil {
		t.Fatalf("trivial speedup gate failed: %v", err)
	}
}

// Golden-shape check for the obs flag plumbing in the benchmark driver.
func TestObsMetricsFlagGoldenShape(t *testing.T) {
	file := filepath.Join(t.TempDir(), "metrics.json")
	if err := run([]string{"-quick", "-run", "E3", "-trace", "summary", "-metrics", file}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]float64
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("-metrics dump is not valid JSON: %v\n%s", err, data)
	}
	nameRE := regexp.MustCompile(`^(ici|consensus|simnet|netx)\.[a-z0-9_.]+$`)
	for name := range snap {
		if !nameRE.MatchString(name) {
			t.Errorf("metric %q violates the naming convention", name)
		}
	}
}

func TestObsRejectsBadTraceMode(t *testing.T) {
	if err := run([]string{"-quick", "-run", "E3", "-trace", "verbose"}); err == nil {
		t.Fatal("bad -trace mode accepted")
	}
}
