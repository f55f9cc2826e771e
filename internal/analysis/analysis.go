// Package analysis is the repo's static-analysis framework: a small,
// dependency-free re-statement of the golang.org/x/tools/go/analysis shape
// (Analyzer, Pass, Diagnostic) plus the package loader and the
// `//icilint:allow` annotation grammar the cmd/icilint driver consumes.
//
// The analyzers themselves live in analysis/analyzers; each one encodes a
// bug family this repo shipped and carries analysistest golden fixtures
// reproducing it.
//
// The x/tools module is deliberately not imported: everything here is built
// on go/ast, go/types, and the stdlib source importer, so the suite builds
// and runs offline with nothing beyond the Go toolchain.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one invariant checker: a name (the annotation
// category), one-paragraph documentation, and the Run function applied to
// each loaded package.
type Analyzer struct {
	// Name identifies the analyzer in output and in
	// `//icilint:allow Name(...)` annotations. Lower-case, no spaces.
	Name string
	// Doc is the human-readable description `icilint -list` prints: first
	// line is the summary, the rest is detail.
	Doc string
	// Run inspects one type-checked package and reports findings via
	// pass.Reportf. A returned error aborts the whole lint run (reserved for
	// internal failures, not findings).
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	report    func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the go-vet-style one-liner.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Run applies the analyzers to each package, filters findings through the
// package's `//icilint:allow` annotations, and returns what survives sorted
// by position. Two kinds of finding come from the annotations themselves,
// under the pseudo-analyzer "icilint": a malformed or wrong-category
// annotation, so a misspelled allow can never silently suppress anything,
// and a stale one — an allow that suppressed nothing, because the condition
// it excuses no longer fires.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var kept []Diagnostic
	for _, pkg := range pkgs {
		var diags []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				report:    func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: analyzer %s: %w", pkg.Path, a.Name, err)
			}
		}
		var allows []Allow
		for _, f := range pkg.Files {
			fileAllows, errs := ParseAllows(pkg.Fset, f, known)
			allows = append(allows, fileAllows...)
			kept = append(kept, errs...)
		}
		matched := make([]bool, len(allows))
		for _, d := range diags {
			if i := suppressIndex(d, allows); i >= 0 {
				matched[i] = true
				continue
			}
			kept = append(kept, d)
		}
		for i, a := range allows {
			if !matched[i] {
				kept = append(kept, staleAllow(a))
			}
		}
	}
	sortDiagnostics(kept)
	return kept, nil
}

// sortDiagnostics orders findings by file, line, column, analyzer, and
// message — the byte-stable order icilint prints.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
