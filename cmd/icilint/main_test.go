package main

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"icistrategy/internal/analysis/analyzers"
)

// writeModule materializes a throwaway module under t.TempDir and returns
// its root. Keys are slash-relative paths.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module tmpmod\n\ngo 1.22\n"
	for rel, content := range files {
		p := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// runIn invokes run from inside dir and restores the working directory
// after: icilint lints the module around the working directory.
func runIn(t *testing.T, dir string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	orig, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(orig); err != nil {
			t.Fatal(err)
		}
	}()
	var out, errBuf bytes.Buffer
	code = run(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

const violatingClock = `package core

import "time"

func Now() time.Time {
	return time.Now()
}
`

func TestRunReportsFindings(t *testing.T) {
	root := writeModule(t, map[string]string{"core/clock.go": violatingClock})
	code, stdout, stderr := runIn(t, root, "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "core/clock.go:6:") || !strings.Contains(stdout, "[determinism]") {
		t.Fatalf("finding not reported with relative path and analyzer tag:\n%s", stdout)
	}
	if !strings.Contains(stderr, "1 finding(s)") {
		t.Fatalf("summary missing from stderr: %s", stderr)
	}
}

func TestRunList(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-list"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, name := range []string{"determinism", "chunkalias", "atomicmix", "metricname", "spanbalance"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list omits %s:\n%s", name, out.String())
		}
	}
}

func TestRunAllowAnnotationSuppresses(t *testing.T) {
	annotated := strings.Replace(violatingClock,
		"return time.Now()",
		"return time.Now() //icilint:allow determinism(boundary clock for callers outside the simulation)", 1)
	root := writeModule(t, map[string]string{"core/clock.go": annotated})
	code, stdout, stderr := runIn(t, root, "./...")
	if code != 0 {
		t.Fatalf("annotated violation still reported: exit=%d\n%s%s", code, stdout, stderr)
	}
}

const staleAnnotated = `package util

func Id(x int) int { return x } //icilint:allow determinism(stale: there is no clock here)
`

// A stale annotation is a finding with no flag asked for: the allow that
// outlives its reason would otherwise swallow the next real diagnostic on
// that line.
func TestRunStaleAllowAnnotation(t *testing.T) {
	root := writeModule(t, map[string]string{"util/util.go": staleAnnotated})
	code, stdout, _ := runIn(t, root, "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(stdout, "util/util.go:3:1: [icilint]") || !strings.Contains(stdout, "stale icilint:allow determinism") {
		t.Fatalf("stale annotation not reported as finding:\n%s", stdout)
	}
}

func TestRunOutputDeterministicallySorted(t *testing.T) {
	root := writeModule(t, map[string]string{
		"core/clock.go":    violatingClock,
		"cluster/clock.go": strings.Replace(violatingClock, "package core", "package cluster", 1),
	})
	var first string
	for i := 0; i < 3; i++ {
		code, stdout, _ := runIn(t, root, "./...")
		if code != 1 {
			t.Fatalf("exit = %d, want 1", code)
		}
		if i == 0 {
			first = stdout
			continue
		}
		if stdout != first {
			t.Fatalf("output differs between runs:\n--- run 0\n%s--- run %d\n%s", first, i, stdout)
		}
	}
	lines := strings.Split(strings.TrimSpace(first), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "cluster/clock.go:") || !strings.HasPrefix(lines[1], "core/clock.go:") {
		t.Fatalf("findings not sorted by file:\n%s", first)
	}
}

// seeds is one edit per analyzer of the suite, each to a real package of this
// module and each re-introducing the bug family its analyzer was written
// for. An analyzer that stops seeing its own edit fences nothing here, and
// one with no seed is not in the gate at all: TestSeededEditsAreReported
// fails on both. edits holds old/new pairs; each old must occur exactly once
// in file.
type seed struct {
	analyzer, file string
	edits          []string
}

var seeds = []seed{
	{"determinism", "internal/core/node.go", []string{
		"const fetchTimeout = 30 * time.Second\n",
		"const fetchTimeout = 30 * time.Second\n\nvar started = time.Now()\n"}},
	{"determinism", "internal/workload/workload.go", []string{ // NextTxs collects signatures in completion order
		"\tpar.Each(n, 0, func(i int) { out[i].Sign(keys[i]) })\n",
		"\tvar signed []*chain.Transaction\n\tpar.Each(n, 0, func(i int) {\n\t\tout[i].Sign(keys[i])\n\t\tsigned = append(signed, out[i])\n\t})\n\tout = signed\n"}},
	{"determinism", "internal/core/node.go", []string{ // startVerdict collects a share's chunk errors in completion order
		"\t\t\tadopted[i], errs[i] = AdoptChunk(hdr, c.ID.Index, c.Parts, c.TxStart, c.Data, c.Proofs)\n",
		"\t\t\tchk, err := AdoptChunk(hdr, c.ID.Index, c.Parts, c.TxStart, c.Data, c.Proofs)\n\t\t\tadopted[i] = chk\n\t\t\terrs = append(errs, err)\n"}},
	{"chunkalias", "internal/storage/store.go", []string{ // PutChunk keeps the caller's buffer
		"\tc.Data = append([]byte(nil), c.Data...)\n\ts.chunks[c.ID] = held{Chunk: c, edge: edge}\n",
		"\ts.chunks[c.ID] = held{Chunk: c, edge: edge}\n"}},
	{"atomicmix", "internal/metrics/metrics.go", []string{ // the PR-3 Counter: atomic add, bare read
		"\tv atomic.Int64\n}", "\tv int64\n}",
		"\tc.v.Add(delta)\n", "\tatomic.AddInt64(&c.v, delta)\n",
		"{ c.v.Add(1) }", "{ atomic.AddInt64(&c.v, 1) }",
		"{ return c.v.Load() }", "{ return c.v }"}},
	{"metricname", "internal/gateway/gateway.go", []string{
		`reg.Counter("ici.gateway.coalesced")`,
		`reg.Counter("gateway-coalesced")`}},
	{"spanbalance", "internal/netx/client.go", []string{ // Client.roundTrip never ends its span
		"\tsp.SetErr(err)\n\tsp.End()\n",
		"\tsp.SetErr(err)\n"}},
	{"goroleak", "internal/netx/client.go", []string{
		"func (c *Client) Close() error { return c.link.Close() }",
		"func (c *Client) Close() error { go c.link.Close(); return nil }"}},
	{"epochres", "internal/netx/client.go", []string{ // distributeBlock places without naming an epoch
		"cl.base.Owners(seed, idx, cl.replication)",
		"core.Owners(seed, cl.base.Members, idx, cl.replication)"}},
}

// TestSeededEditsAreReported applies every seed to a copy of this module's
// internal/ tree and requires icilint to report each under its analyzer's
// name, in the edited file, and to report nothing else.
func TestSeededEditsAreReported(t *testing.T) {
	src, err := findModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	copyFile := func(rel string) {
		data, err := os.ReadFile(filepath.Join(src, rel))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(filepath.Join(root, rel)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, rel), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	copyFile("go.mod")
	err = filepath.WalkDir(filepath.Join(src, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			rel, err := filepath.Rel(src, path)
			if err != nil {
				return err
			}
			copyFile(rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	seeded := map[string]bool{} // analyzer names
	var dirs []string
	for _, s := range seeds {
		path := filepath.Join(root, s.file)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		for i := 0; i < len(s.edits); i += 2 {
			if n := strings.Count(text, s.edits[i]); n != 1 {
				t.Fatalf("%s seed: %q occurs %d times in %s, want 1 — the seeded site moved, re-point the seed", s.analyzer, s.edits[i], n, s.file)
			}
			text = strings.Replace(text, s.edits[i], s.edits[i+1], 1)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		seeded[s.analyzer] = true
		if dir := "./" + filepath.Dir(s.file); !slices.Contains(dirs, dir) {
			dirs = append(dirs, dir)
		}
	}
	for _, a := range analyzers.All() {
		if !seeded[a.Name] {
			t.Errorf("analyzer %s has no seeded real-tree edit: name the edit it catches or retire it", a.Name)
		}
	}

	code, stdout, stderr := runIn(t, root, dirs...)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\n%s%s", code, stdout, stderr)
	}
	// Each seed accounts for one finding of its analyzer in its file (two
	// seeds to one file need two findings there); a seed whose edits span
	// several sites may account for more.
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	hit := func(line, analyzer, file string) bool {
		return strings.HasPrefix(line, file+":") && strings.Contains(line, "["+analyzer+"]")
	}
	for _, s := range seeds {
		i := slices.IndexFunc(lines, func(line string) bool { return hit(line, s.analyzer, s.file) })
		if i < 0 {
			t.Errorf("%s does not report its seeded edit to %s", s.analyzer, s.file)
			continue
		}
		lines = slices.Delete(lines, i, i+1)
	}
	lines = slices.DeleteFunc(lines, func(line string) bool {
		return slices.ContainsFunc(seeds, func(s seed) bool { return hit(line, s.analyzer, s.file) })
	})
	if len(lines) > 0 {
		t.Errorf("findings no seed accounts for:\n%s", strings.Join(lines, "\n"))
	}
}
