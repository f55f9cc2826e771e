package analyzers

import (
	"go/ast"
	"go/types"

	"icistrategy/internal/analysis"
)

// AtomicMix encodes the PR-3 metrics.Counter bug family: a counter field
// incremented through sync/atomic on one path and read (or written) with a
// plain load on another, which raced under -race and silently lost updates
// before that. Lock-bearing values passed by value are go vet's copylocks
// check, which CI runs.
var AtomicMix = &analysis.Analyzer{
	Name: "atomicmix",
	Doc: `flag struct fields accessed both atomically and plainly

Historical bug (PR 3): metrics.Counter kept a plain int64 bumped with
atomic.AddInt64 but read with a bare load; the racy read shipped, and the
fix moved the field to atomic.Int64 so every access goes through the
atomic API. This analyzer reports any field that has both an atomic access
(sync/atomic call on its address, or an atomic.* method call) and a plain
read/write in the same package.`,
	Run: runAtomicMix,
}

// fieldAccess accumulates how one struct field is touched in the package.
type fieldAccess struct {
	atomicPos []ast.Node // sites of atomic access
	plainPos  []ast.Node // sites of plain access
}

func runAtomicMix(pass *analysis.Pass) error {
	acc := map[*types.Var]*fieldAccess{}
	get := func(f *types.Var) *fieldAccess {
		fa := acc[f]
		if fa == nil {
			fa = &fieldAccess{}
			acc[f] = fa
		}
		return fa
	}

	for _, f := range pass.Files {
		var walk func(n ast.Node, parents []ast.Node) // manual walk keeps the parent path
		visit := func(n ast.Node, parents []ast.Node) {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return
			}
			selection, ok := pass.TypesInfo.Selections[sel]
			if !ok || selection.Kind() != types.FieldVal {
				return
			}
			fobj := selection.Obj().(*types.Var)
			switch classifyFieldUse(pass.TypesInfo, sel, parents) {
			case useAtomic:
				get(fobj).atomicPos = append(get(fobj).atomicPos, sel)
			case usePlain:
				get(fobj).plainPos = append(get(fobj).plainPos, sel)
			}
		}
		walk = func(n ast.Node, parents []ast.Node) {
			visit(n, parents)
			parents = append(parents, n)
			ast.Inspect(n, func(c ast.Node) bool {
				if c == nil || c == n {
					return c == n
				}
				walk(c, parents)
				return false
			})
		}
		walk(f, nil)
	}

	for fobj, fa := range acc {
		if len(fa.atomicPos) == 0 || len(fa.plainPos) == 0 {
			continue
		}
		atomicAt := pass.Fset.Position(fa.atomicPos[0].Pos())
		for _, p := range fa.plainPos {
			pass.Reportf(p.Pos(),
				"field %s is accessed atomically at %s but plainly here; every access must go through the atomic API (racy Counter, PR-3 family)",
				fobj.Name(), atomicAt)
		}
	}
	return nil
}

type fieldUse int

const (
	useNeutral fieldUse = iota
	useAtomic
	usePlain
)

// classifyFieldUse decides whether the selector `x.f` at the end of
// parents is an atomic access, a plain read/write, or neutral (e.g. its
// address escaping to a non-atomic callee, which is tracked by neither
// side).
func classifyFieldUse(info *types.Info, sel *ast.SelectorExpr, parents []ast.Node) fieldUse {
	fobj := info.Selections[sel].Obj().(*types.Var)
	atomicTyped := isAtomicType(fobj.Type())

	// Walk outward: parents[len-1] is the immediate parent.
	parent := func(i int) ast.Node {
		idx := len(parents) - 1 - i
		if idx < 0 {
			return nil
		}
		return parents[idx]
	}
	p0 := parent(0)

	// A selector that is merely the X part of a bigger selector (a.b in
	// a.b.c) is traversal, not access — except an atomic-typed field whose
	// method is being called, which is the atomic API in action.
	if outer, ok := p0.(*ast.SelectorExpr); ok && outer.X == sel {
		if atomicTyped {
			if call, ok2 := parent(1).(*ast.CallExpr); ok2 && call.Fun == outer {
				return useAtomic
			}
		}
		return useNeutral
	}

	if atomicTyped {
		// Any direct assignment or copy of the atomic value is plain.
		switch pn := p0.(type) {
		case *ast.AssignStmt:
			return usePlain // copying or overwriting the atomic value
		case *ast.UnaryExpr:
			if pn.Op.String() == "&" {
				return useNeutral // &c.v passed along; ownership unclear
			}
			return usePlain
		case *ast.CallExpr, *ast.KeyValueExpr, *ast.CompositeLit, *ast.ReturnStmt:
			return usePlain // the value is copied out
		}
		return useNeutral
	}

	// Plain-typed field: atomic when &x.f feeds a sync/atomic call.
	if un, ok := p0.(*ast.UnaryExpr); ok && un.Op.String() == "&" && un.X == sel {
		if call, ok := parent(1).(*ast.CallExpr); ok {
			if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" {
				return useAtomic
			}
		}
		return useNeutral // address escapes; can't tell
	}
	return usePlain
}

// isAtomicType reports whether t is one of sync/atomic's value types.
func isAtomicType(t types.Type) bool {
	n := namedOrNil(t)
	return n != nil && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync/atomic"
}
