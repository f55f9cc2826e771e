// Package analyzers holds the repo-specific invariant checkers cmd/icilint
// runs. Each analyzer encodes one bug family this repo actually shipped and
// carries golden fixtures (testdata/src) reproducing the historical bug.
// `icilint -list` prints the suite from All, with what each analyzer
// polices; DESIGN.md "Static analysis" keeps the ledger of the real-tree
// edit each one is known to catch.
package analyzers

import (
	"go/ast"
	"go/types"

	"icistrategy/internal/analysis"
)

// All returns the full icilint suite in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Determinism,
		ChunkAlias,
		AtomicMix,
		MetricName,
		SpanBalance,
		GoroLeak,
		EpochRes,
	}
}

// --- shared type/AST helpers -------------------------------------------------

// calleeFunc resolves the called function or method of call, or nil for
// indirect calls, type conversions, and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// funcFromPkg reports whether fn is the named function/method of the given
// package path (matched on full path or, for fixture stubs, the path's last
// element — fixture packages sit at top-level paths like "trace").
func funcFromPkg(fn *types.Func, pkgPath, name string) bool {
	if fn == nil || fn.Name() != name || fn.Pkg() == nil {
		return false
	}
	return pkgPathMatches(fn.Pkg().Path(), pkgPath)
}

// pkgPathMatches compares an import path against a target: exact match, or
// the last path element equals the target (so "icistrategy/internal/trace"
// and the fixture path "trace" both match target "trace").
func pkgPathMatches(path, target string) bool {
	if path == target {
		return true
	}
	return lastPathElem(path) == target
}

func lastPathElem(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}

// isByteSlice reports whether t's underlying type is []byte.
func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// namedOrNil unwraps t (through pointers and aliases) to its *types.Named,
// or nil.
func namedOrNil(t types.Type) *types.Named {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n
	}
	return nil
}

// recvNamed returns the named type of a method's receiver (through a
// pointer), or nil for plain functions.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return namedOrNil(sig.Recv().Type())
}
