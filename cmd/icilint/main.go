// Command icilint is the repo's static-analysis gate: it runs the
// internal/analysis/analyzers suite — each checker encoding a bug family a
// previous PR actually shipped — over the module and exits non-zero on any
// finding, so CI blocks a regression at review time instead of at 3am.
//
// Usage:
//
//	icilint [packages]
//
//	icilint ./...                    # whole module (the CI gate)
//	icilint ./internal/core/...      # one subtree
//	icilint -list                    # the suite and what each analyzer polices
//
// Findings print as file:line:col: [analyzer] message. Suppression is via
// source annotations — //icilint:allow analyzer(reason) — whose grammar is
// documented in DESIGN.md. An annotation that matches no diagnostic is
// itself a finding. Exit codes: 0 clean, 1 findings, 2 usage/load failure.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"icistrategy/internal/analysis"
	"icistrategy/internal/analysis/analyzers"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main, factored for tests. Returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("icilint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	suite := analyzers.All()
	if *list {
		for _, a := range suite {
			doc := a.Doc
			if i := strings.IndexByte(doc, '\n'); i >= 0 {
				doc = doc[:i]
			}
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, doc)
		}
		return 0
	}
	diags, err := lint(fs.Args(), suite)
	if err != nil {
		fmt.Fprintln(stderr, "icilint:", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "icilint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// lint loads the packages the patterns name from the module around the
// working directory and runs the suite over them. Finding paths come back
// relative to the module root, so output is machine-independent.
func lint(patterns []string, suite []*analysis.Analyzer) ([]analysis.Diagnostic, error) {
	root, err := findModuleRoot()
	if err != nil {
		return nil, err
	}
	loader, err := analysis.NewModuleLoader(root)
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		return nil, err
	}
	diags, err := analysis.Run(pkgs, suite)
	if err != nil {
		return nil, err
	}
	for i := range diags {
		if rel, err := filepath.Rel(root, diags[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Pos.Filename = rel
		}
	}
	return diags, nil
}

// findModuleRoot walks up from the working directory to go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
