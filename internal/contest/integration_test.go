package contest

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// icinetBin is the real binary built once by TestMain for the integration
// scenarios; empty in -short mode, where those tests skip.
var icinetBin string

func TestMain(m *testing.M) {
	flag.Parse()
	if testing.Short() {
		os.Exit(m.Run())
	}
	dir, err := os.MkdirTemp("", "contest-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "contest: temp dir:", err)
		os.Exit(1)
	}
	icinetBin = filepath.Join(dir, "icinet")
	cmd := exec.Command("go", "build", "-o", icinetBin, "icistrategy/cmd/icinet")
	cmd.Dir = "../.." // package dir -> module root
	if out, err := cmd.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "contest: build icinet: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runScenario executes one scenario file against the real binary; the full
// narration is attached to the test log on failure.
func runScenario(t *testing.T, path string) {
	t.Helper()
	if testing.Short() {
		t.Skip("integration scenario: real multi-process cluster, skipped in -short mode")
	}
	sc, err := ParseScenarioFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var sb safeBuilder
	r := &Runner{IcinetPath: icinetBin, Out: &sb, Timeout: 3 * time.Minute}
	if err := r.Run(sc); err != nil {
		t.Fatalf("%v\nnarration:\n%s", err, sb.String())
	}
	if testing.Verbose() {
		t.Log(sb.String())
	}
}

// TestScenarios runs every shipped scenario, one subtest per file, so a new
// scenario is run by adding its file.
func TestScenarios(t *testing.T) {
	paths, err := filepath.Glob("../../scenarios/*.cont")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no scenarios found")
	}
	for _, path := range paths {
		t.Run(strings.TrimSuffix(filepath.Base(path), ".cont"), func(t *testing.T) { runScenario(t, path) })
	}
}

// TestBrokenScenarioFails is the harness's negative self-test: a scenario
// with an impossible assertion MUST fail, and the failure must carry the
// assertion, its stage, and its source line.
func TestBrokenScenarioFails(t *testing.T) {
	if testing.Short() {
		t.Skip("integration scenario: real multi-process cluster, skipped in -short mode")
	}
	sc, err := ParseScenarioFile("testdata/broken.cont")
	if err != nil {
		t.Fatal(err)
	}
	var sb safeBuilder
	r := &Runner{IcinetPath: icinetBin, Out: &sb, Timeout: time.Minute}
	err = r.Run(sc)
	if err == nil {
		t.Fatalf("broken scenario passed — the harness cannot fail\nnarration:\n%s", sb.String())
	}
	for _, want := range []string{"assert-stats", "stage seed", "broken.cont:13", "99999"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("failure %q does not mention %q", err, want)
		}
	}
}
