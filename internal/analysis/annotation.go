package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// The `//icilint:allow` annotation grammar (documented in DESIGN.md):
//
//	//icilint:allow analyzer(reason)
//	//icilint:allow analyzer(reason), analyzer2(reason)
//
// The analyzer name must be one of the registered analyzers — an unknown
// name is itself a finding (wrong-category allows must never silently
// swallow a real diagnostic) — and the reason must be non-empty, so every
// suppression carries its justification in the source.
//
// Placement: an annotation suppresses matching diagnostics on the lines the
// comment group spans and on the line immediately after it. That covers
// both idiomatic placements —
//
//	x.f = buf //icilint:allow chunkalias(ownership transferred by contract)
//
// and
//
//	//icilint:allow determinism(wall clock is the disabled-tracer fallback)
//	start := time.Now()
//
// — and both survive gofmt, which never moves a comment off its line.

// allowErrAnalyzer attributes malformed-annotation findings.
const allowErrAnalyzer = "icilint"

// Allow is one parsed suppression: category, justification, and the line
// span it covers.
type Allow struct {
	Analyzer string
	Reason   string
	File     string
	FromLine int // first line of the comment group
	ToLine   int // last covered line (line after the comment group)
}

// allowMarker matches the annotation lead-in; gofmt may normalize `//x` to
// `// x`, so optional space is accepted.
var allowMarker = regexp.MustCompile(`^//\s*icilint:allow\s+(.*)$`)

// allowClause matches one `analyzer(reason)` group.
var allowClause = regexp.MustCompile(`^([a-zA-Z0-9_-]+)\(([^)]*)\)\s*(?:,\s*|$)`)

// ParseAllows extracts every icilint:allow annotation from f. known maps
// valid analyzer names; a clause naming an unknown analyzer or carrying an
// empty reason is returned as an error diagnostic instead of an Allow.
func ParseAllows(fset *token.FileSet, f *ast.File, known map[string]bool) ([]Allow, []Diagnostic) {
	var allows []Allow
	var errs []Diagnostic
	reportErr := func(pos token.Pos, format string, args ...any) {
		errs = append(errs, Diagnostic{
			Analyzer: allowErrAnalyzer,
			Pos:      fset.Position(pos),
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := allowMarker.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			rest := strings.TrimSpace(m[1])
			if rest == "" {
				reportErr(c.Pos(), "empty icilint:allow annotation; want icilint:allow analyzer(reason)")
				continue
			}
			start, end := fset.Position(c.Pos()), fset.Position(c.End())
			for rest != "" {
				cm := allowClause.FindStringSubmatch(rest)
				if cm == nil {
					reportErr(c.Pos(), "malformed icilint:allow clause %q; want analyzer(reason)", rest)
					break
				}
				name, reason := cm[1], strings.TrimSpace(cm[2])
				switch {
				case !known[name]:
					reportErr(c.Pos(), "icilint:allow names unknown analyzer %q (known: %s)", name, knownNames(known))
				case reason == "":
					reportErr(c.Pos(), "icilint:allow %s() needs a non-empty reason", name)
				default:
					allows = append(allows, Allow{
						Analyzer: name,
						Reason:   reason,
						File:     start.Filename,
						FromLine: start.Line,
						ToLine:   end.Line + 1,
					})
				}
				rest = rest[len(cm[0]):]
			}
		}
	}
	return allows, errs
}

func knownNames(known map[string]bool) string {
	names := make([]string, 0, len(known))
	for n := range known {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// suppressIndex returns the index of the allow covering d, or -1.
// Run uses the index to mark which annotation matched, which is what makes
// stale allows detectable. Among several covering allows the
// CLOSEST one (largest FromLine) gets the credit: with trailing
// annotations on adjacent lines, the previous line's allow also spans
// this line, and crediting it would mark this line's own annotation
// stale.
func suppressIndex(d Diagnostic, allows []Allow) int {
	best := -1
	for i, a := range allows {
		if a.Analyzer != d.Analyzer || d.Pos.Line < a.FromLine || d.Pos.Line > a.ToLine {
			continue
		}
		if best < 0 || a.FromLine > allows[best].FromLine {
			best = i
		}
	}
	return best
}

// staleAllow is the finding for an annotation that suppressed nothing.
func staleAllow(a Allow) Diagnostic {
	return Diagnostic{
		Analyzer: allowErrAnalyzer,
		Pos:      token.Position{Filename: a.File, Line: a.FromLine, Column: 1},
		Message: fmt.Sprintf("stale icilint:allow %s(%s): no diagnostic matched this annotation; delete it or re-check the reason",
			a.Analyzer, a.Reason),
	}
}
