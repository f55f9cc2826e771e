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
	if !strings.Contains(err.Error(), "valid: E1, E2,") || !strings.Contains(err.Error(), "E12, E14, E16)") {
		t.Fatalf("error does not list the registered IDs: %v", err)
	}
}

func TestRunSeedOverride(t *testing.T) {
	if err := run([]string{"-quick", "-run", "E8", "-seed", "7"}); err != nil {
		t.Fatal(err)
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
