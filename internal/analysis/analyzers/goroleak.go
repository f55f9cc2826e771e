package analyzers

import (
	"go/ast"
	"go/types"

	"icistrategy/internal/analysis"
)

// GoroLeak encodes the PR-6 pipe-drain bug family: a server/runner
// launches worker goroutines, and Close/Wait returns while some of them
// are still draining a pipe — the test harness then reads a truncated
// stream, or the process exits with writes in flight. The fix wired every
// launched goroutine to a join: wg.Add(1) before the `go`, defer
// wg.Done() inside, and wg.Wait() in Close (or an equivalent done
// channel).
//
// The analyzer checks every `go` statement in the lifecycle-bearing
// packages for JOIN EVIDENCE, either of:
//
//   - WaitGroup: a wg.Add(...) lexically before the go statement in the
//     launching function, and a Done() on some WaitGroup inside the
//     launched body (a func literal, or a same-package function/method's
//     declaration);
//   - done channel: the launched body closes or sends on a channel that
//     the launching function receives from, stores into a struct field,
//     or that is itself a struct field (someone receives it at teardown).
//
// Fire-and-forget goroutines that are genuinely unjoinable — a watcher
// fed by an external reader — are annotated:
// //icilint:allow goroleak(reason).
var GoroLeak = &analysis.Analyzer{
	Name: "goroleak",
	Doc: `flag goroutines launched without join evidence (WaitGroup or done channel)

Historical bug (PR 6): Server.Close returned while the per-connection
pipe-drain goroutines were still copying; the contest harness read a
truncated result stream and failed nondeterministically under load. Join
every goroutine you launch — wg.Add(1) before go, defer wg.Done() inside,
wg.Wait() in Close — or hand it a done channel someone receives.`,
	Run: runGoroLeak,
}

// goroleakPkgs scopes the analyzer to the packages whose types own
// goroutine lifecycles (plus the fixture).
var goroleakPkgs = map[string]bool{
	"netx":     true,
	"gateway":  true,
	"contest":  true,
	"par":      true,
	"watchsrv": true,
}

func runGoroLeak(pass *analysis.Pass) error {
	if !goroleakPkgs[lastPathElem(pass.Pkg.Path())] {
		return nil
	}
	// Map same-package functions to their declarations so `go s.loop()`
	// can be followed into loop's body.
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
				}
			}
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkGoroLeak(pass, fd, decls)
		}
	}
	return nil
}

func checkGoroLeak(pass *analysis.Pass, fd *ast.FuncDecl, decls map[*types.Func]*ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		body := launchedBody(pass, gs, decls)
		if body == nil {
			return true // indirect launch (go fn() via variable): unjudgeable
		}
		if waitGroupJoin(pass, fd, gs, body) || doneChannelJoin(pass, fd, gs, body) {
			return true
		}
		pass.Reportf(gs.Pos(),
			"goroutine launched without join evidence; Close/Wait can return while it still runs — wg.Add(1) before go with defer wg.Done() inside (and wg.Wait() at teardown), or hand it a done channel, or annotate icilint:allow goroleak(reason)")
		return true
	})
}

// launchedBody resolves the body the go statement runs: a func literal's
// own body, or the declaration of a same-package function/method.
func launchedBody(pass *analysis.Pass, gs *ast.GoStmt, decls map[*types.Func]*ast.FuncDecl) *ast.BlockStmt {
	switch fun := ast.Unparen(gs.Call.Fun).(type) {
	case *ast.FuncLit:
		return fun.Body
	default:
		fn := calleeFunc(pass.TypesInfo, gs.Call)
		if fn == nil {
			return nil
		}
		if fd, ok := decls[fn]; ok {
			return fd.Body
		}
	}
	return nil
}

// isWaitGroup reports whether e's type (through a pointer) is
// sync.WaitGroup.
func isWaitGroup(pass *analysis.Pass, e ast.Expr) bool {
	n := namedOrNil(pass.TypesInfo.TypeOf(e))
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "sync" && n.Obj().Name() == "WaitGroup"
}

// waitGroupJoin checks the WaitGroup protocol: an Add before the go
// statement in the launching function, and a Done inside the launched
// body.
func waitGroupJoin(pass *analysis.Pass, fd *ast.FuncDecl, gs *ast.GoStmt, body *ast.BlockStmt) bool {
	addBefore := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() >= gs.Pos() {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if sel.Sel.Name == "Add" && isWaitGroup(pass, sel.X) {
				addBefore = true
			}
		}
		return !addBefore
	})
	if !addBefore {
		return false
	}
	doneInside := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if sel.Sel.Name == "Done" && isWaitGroup(pass, sel.X) {
				doneInside = true
			}
		}
		return !doneInside
	})
	return doneInside
}

// doneChannelJoin checks the done-channel protocol: the launched body
// closes or sends on a channel, and the launching function receives from
// that channel, stores it into a struct field, or the channel is itself
// a field (teardown receives it elsewhere).
func doneChannelJoin(pass *analysis.Pass, fd *ast.FuncDecl, gs *ast.GoStmt, body *ast.BlockStmt) bool {
	// Channels the body signals on.
	signaled := map[types.Object]bool{}
	signaledField := false
	ast.Inspect(body, func(n ast.Node) bool {
		var ch ast.Expr
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
				ch = n.Args[0]
			}
		case *ast.SendStmt:
			ch = n.Chan
		}
		if ch == nil {
			return true
		}
		switch ch := ast.Unparen(ch).(type) {
		case *ast.Ident:
			if obj := pass.TypesInfo.ObjectOf(ch); obj != nil {
				signaled[obj] = true
			}
		case *ast.SelectorExpr:
			// Signaling a struct field: the field outlives the launch, so
			// whoever tears the struct down can receive it.
			if fobj, ok := pass.TypesInfo.ObjectOf(ch.Sel).(*types.Var); ok && fobj.IsField() {
				signaledField = true
			}
		}
		return true
	})
	if signaledField {
		return true
	}
	if len(signaled) == 0 {
		return false
	}
	// The launching function must anchor one of those channels: receive
	// from it, or store it into a field.
	anchored := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if anchored {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				if obj := identObj(pass, n.X); obj != nil && signaled[obj] {
					anchored = true
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				if _, ok := ast.Unparen(lhs).(*ast.SelectorExpr); !ok {
					continue
				}
				if obj := identObj(pass, n.Rhs[i]); obj != nil && signaled[obj] {
					anchored = true
				}
			}
		}
		return !anchored
	})
	return anchored
}

// identObj resolves a plain identifier expression to its object.
func identObj(pass *analysis.Pass, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	return pass.TypesInfo.ObjectOf(id)
}
