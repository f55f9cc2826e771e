package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunRequiresScenarios(t *testing.T) {
	var sb strings.Builder
	err := run(nil, &sb)
	if !errors.Is(err, errUsage) {
		t.Fatalf("no-scenario run: %v", err)
	}
}

func TestRunRejectsUnparseableScenario(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.cont")
	if err := os.WriteFile(bad, []byte("scenario x\nbogus directive\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	// -icinet short-circuits the on-the-fly build; parsing fails first.
	err := run([]string{"-icinet", "/nonexistent", "-scenario", bad}, &sb)
	if !errors.Is(err, errUsage) || !strings.Contains(err.Error(), "unknown directive") {
		t.Fatalf("bad scenario: %v", err)
	}
}

func TestModuleRootFindsGoMod(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("moduleRoot %s has no go.mod: %v", root, err)
	}
}

// TestRunScenarioEndToEnd drives the CLI path itself (build-free, using a
// prebuilt fake) over a minimal scenario; the full binary suite lives in
// internal/contest's integration tests.
func TestRunScenarioEndToEnd(t *testing.T) {
	fake := filepath.Join(t.TempDir(), "fake-icinet")
	script := `#!/bin/sh
addr=""
while [ $# -gt 0 ]; do
  case "$1" in -listen) addr="$2"; shift ;; esac
  shift
done
trap 'exit 0' TERM INT
echo "ICINET READY addr=$addr"
echo "event=serve.ready" >&2
while :; do sleep 0.1; done
`
	if err := os.WriteFile(fake, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	scen := filepath.Join(t.TempDir(), "mini.cont")
	src := `scenario mini
node n0
stage s
    start n0
    wait-log n0 event=serve.ready timeout=5s
    stop n0
`
	if err := os.WriteFile(scen, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"-icinet", fake, "-scenario", scen}, &sb); err != nil {
		t.Fatalf("mini scenario failed: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "PASS "+scen) {
		t.Fatalf("missing PASS line:\n%s", sb.String())
	}
}
