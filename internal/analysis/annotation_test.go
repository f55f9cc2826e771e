package analysis

import (
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

var testKnown = map[string]bool{
	"determinism": true,
	"chunkalias":  true,
	"atomicmix":   true,
	"metricname":  true,
	"spanbalance": true,
}

// suppressed reports whether d falls inside an allow for its analyzer.
func suppressed(d Diagnostic, allows []Allow) bool {
	return suppressIndex(d, allows) >= 0
}

func parseForAllows(t *testing.T, src string) (*token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return fset, f
}

func TestParseAllowsTrailing(t *testing.T) {
	src := `package p

func f() int {
	x := g() //icilint:allow chunkalias(ownership transferred by contract)
	return x
}

func g() int { return 0 }
`
	fset, f := parseForAllows(t, src)
	allows, errs := ParseAllows(fset, f, testKnown)
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if len(allows) != 1 {
		t.Fatalf("got %d allows, want 1", len(allows))
	}
	a := allows[0]
	if a.Analyzer != "chunkalias" || a.Reason != "ownership transferred by contract" {
		t.Fatalf("bad allow parsed: %+v", a)
	}
	// Trailing annotation on line 4 covers lines 4-5.
	if a.FromLine != 4 || a.ToLine != 5 {
		t.Fatalf("allow covers %d-%d, want 4-5", a.FromLine, a.ToLine)
	}
	d := Diagnostic{Analyzer: "chunkalias", Pos: token.Position{Line: 4}}
	if !suppressed(d, allows) {
		t.Fatal("diagnostic on the annotated line not suppressed")
	}
	wrong := Diagnostic{Analyzer: "determinism", Pos: token.Position{Line: 4}}
	if suppressed(wrong, allows) {
		t.Fatal("allow for chunkalias must not suppress determinism")
	}
}

func TestParseAllowsStandaloneCoversNextLine(t *testing.T) {
	src := `package p

import "time"

func f() time.Time {
	//icilint:allow determinism(wall clock is the fallback)
	return time.Now()
}
`
	fset, f := parseForAllows(t, src)
	allows, errs := ParseAllows(fset, f, testKnown)
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if len(allows) != 1 {
		t.Fatalf("got %d allows, want 1", len(allows))
	}
	d := Diagnostic{Analyzer: "determinism", Pos: token.Position{Line: 7}}
	if !suppressed(d, allows) {
		t.Fatal("diagnostic on the line after the annotation not suppressed")
	}
	far := Diagnostic{Analyzer: "determinism", Pos: token.Position{Line: 8}}
	if suppressed(far, allows) {
		t.Fatal("allow must not reach two lines past the comment")
	}
}

func TestParseAllowsMultiClause(t *testing.T) {
	src := `package p

//icilint:allow determinism(seeded bench), chunkalias(buffer reused by design)
var x int
`
	fset, f := parseForAllows(t, src)
	allows, errs := ParseAllows(fset, f, testKnown)
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if len(allows) != 2 {
		t.Fatalf("got %d allows, want 2: %+v", len(allows), allows)
	}
	if allows[0].Analyzer != "determinism" || allows[1].Analyzer != "chunkalias" {
		t.Fatalf("bad analyzers: %+v", allows)
	}
}

// A wrong-category allow must be a finding, never a silent no-op: the
// annotation the author thought was protecting a line isn't, and the
// analyzer they typo'd would otherwise report the line anyway with no
// hint why the suppression failed.
func TestParseAllowsUnknownAnalyzerIsError(t *testing.T) {
	src := `package p

//icilint:allow determinsm(typo in the category)
var x int
`
	fset, f := parseForAllows(t, src)
	allows, errs := ParseAllows(fset, f, testKnown)
	if len(allows) != 0 {
		t.Fatalf("typo'd allow must not parse: %+v", allows)
	}
	if len(errs) != 1 {
		t.Fatalf("got %d errors, want 1: %v", len(errs), errs)
	}
	if errs[0].Analyzer != allowErrAnalyzer {
		t.Fatalf("error attributed to %q, want %q", errs[0].Analyzer, allowErrAnalyzer)
	}
	if !strings.Contains(errs[0].Message, `"determinsm"`) {
		t.Fatalf("error should name the unknown analyzer: %s", errs[0].Message)
	}
}

func TestParseAllowsEmptyReasonIsError(t *testing.T) {
	src := `package p

//icilint:allow determinism()
var x int
`
	fset, f := parseForAllows(t, src)
	allows, errs := ParseAllows(fset, f, testKnown)
	if len(allows) != 0 || len(errs) != 1 {
		t.Fatalf("want 0 allows + 1 error, got %d/%d", len(allows), len(errs))
	}
	if !strings.Contains(errs[0].Message, "non-empty reason") {
		t.Fatalf("unexpected message: %s", errs[0].Message)
	}
}

func TestParseAllowsMalformedClauseIsError(t *testing.T) {
	src := `package p

//icilint:allow determinism no-parens
var x int
`
	fset, f := parseForAllows(t, src)
	allows, errs := ParseAllows(fset, f, testKnown)
	if len(allows) != 0 || len(errs) != 1 {
		t.Fatalf("want 0 allows + 1 error, got %d/%d", len(allows), len(errs))
	}
	if !strings.Contains(errs[0].Message, "malformed") {
		t.Fatalf("unexpected message: %s", errs[0].Message)
	}
}

// Annotations must keep covering the same statements after gofmt: gofmt
// realigns and re-indents comments but never moves one off its line, so
// the (line-of-annotation, line-after) span is format-stable. Pin that by
// reformatting deliberately ragged source and re-running the parser.
func TestAllowsSurviveGofmt(t *testing.T) {
	src := "package p\n\nimport \"time\"\n\nfunc f() time.Time {\n      //icilint:allow    determinism(fallback clock)\n\treturn   time.Now()\n}\n\nfunc g() time.Time {\n\treturn time.Now()    //icilint:allow determinism(fallback clock)\n}\n"
	formatted, err := format.Source([]byte(src))
	if err != nil {
		t.Fatalf("format.Source: %v", err)
	}
	for name, text := range map[string]string{"raw": src, "gofmt": string(formatted)} {
		fset, f := parseForAllows(t, text)
		allows, errs := ParseAllows(fset, f, testKnown)
		if len(errs) != 0 {
			t.Fatalf("%s: unexpected errors: %v", name, errs)
		}
		if len(allows) != 2 {
			t.Fatalf("%s: got %d allows, want 2", name, len(allows))
		}
		// Both time.Now calls must be covered, wherever formatting put them.
		covered := 0
		for line := 1; line <= strings.Count(text, "\n")+1; line++ {
			if suppressed(Diagnostic{Analyzer: "determinism", Pos: token.Position{Line: line}}, allows) {
				covered++
			}
		}
		// Standalone form covers 2 lines, trailing form covers 2 lines.
		if covered != 4 {
			t.Fatalf("%s: %d lines covered, want 4", name, covered)
		}
		for _, a := range allows {
			lineText := strings.Split(text, "\n")[a.ToLine-1]
			if !strings.Contains(lineText, "time.Now") && !strings.Contains(lineText, "}") {
				t.Fatalf("%s: allow span %d-%d drifted off the guarded statement", name, a.FromLine, a.ToLine)
			}
		}
	}
}
