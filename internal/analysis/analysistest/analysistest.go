// Package analysistest runs an analyzer over golden fixture packages and
// checks its diagnostics against `// want` expectations — the same workflow
// as golang.org/x/tools/go/analysis/analysistest, restated on the repo's
// stdlib-only analysis framework.
//
// Layout: <testdata>/src/<importpath>/*.go. Fixture files annotate expected
// findings with trailing comments:
//
//	s.chunks[key] = data // want `caller-owned`
//	t0 := time.Now()     // want `wall clock` `second finding on same line`
//
// Each backquoted (or double-quoted) string is a regexp that must match the
// message of exactly one diagnostic reported on that line; diagnostics with
// no matching want, and wants with no matching diagnostic, fail the test.
// `//icilint:allow` annotations are honored exactly as in the real driver,
// so fixtures can (and do) pin the suppression behavior too.
package analysistest

import (
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"icistrategy/internal/analysis"
)

// Run loads each fixture package under dir/src and applies a to it,
// comparing diagnostics with the fixtures' want comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	loader, err := analysis.NewFixtureLoader(dir + "/src")
	if err != nil {
		t.Fatalf("fixture loader: %v", err)
	}
	pkgs := make([]*analysis.Package, 0, len(pkgPaths))
	for _, path := range pkgPaths {
		pkg, err := loader.LoadPath(path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		pkgs = append(pkgs, pkg)
	}
	diags, err := analysis.Run(pkgs, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	perDir := map[string][]analysis.Diagnostic{}
	for _, d := range diags {
		dir := filepath.Dir(d.Pos.Filename)
		perDir[dir] = append(perDir[dir], d)
	}
	for _, pkg := range pkgs {
		checkWants(t, pkg, perDir[pkg.Dir])
	}
}

type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// wantArg pulls the expectation strings out of a want comment; both Go
// string literal forms are accepted.
var wantArg = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

func collectWants(t *testing.T, pkg *analysis.Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				idx := strings.Index(text, "want ")
				if idx < 0 || strings.TrimSpace(text[:idx]) != "" {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				args := text[idx+len("want "):]
				ms := wantArg.FindAllStringSubmatch(args, -1)
				if len(ms) == 0 {
					t.Errorf("%s: malformed want comment %q", pos, c.Text)
					continue
				}
				for _, m := range ms {
					raw := m[1]
					if raw == "" {
						raw = m[2]
					}
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", pos, raw, err)
						continue
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, raw: raw})
				}
			}
		}
	}
	return wants
}

func checkWants(t *testing.T, pkg *analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	wants := collectWants(t, pkg)
	for _, d := range diags {
		if !matchWant(wants, d.Pos, d.Message) {
			t.Errorf("%s: unexpected diagnostic: [%s] %s", d.Pos, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.raw)
		}
	}
}

func matchWant(wants []*want, pos token.Position, msg string) bool {
	for _, w := range wants {
		if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}
