package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"icistrategy/internal/analysis"
	"icistrategy/internal/analysis/cfg"
)

// Deadline encodes the PR-7 roundTrip bug family: a blocking Read/Write
// on a net.Conn that no SetDeadline dominates. The historical bug hung
// every retrieval worker on one dead peer because the client's roundTrip
// wrote the request and read the response with no deadline armed; the
// fix armed conn.SetDeadline(now+timeout) before the exchange. This
// analyzer proves the fix shape with a must-dataflow over the CFG: at
// every direct I/O event on a deadline-capable value, the "deadline
// armed" fact must hold on ALL paths from the function entry.
//
//   - Tracked values: parameters, locals, and one-level field selectors
//     (c.conn) whose type has SetDeadline in its method set — net.Conn,
//     *net.TCPConn, and the repo's own conn wrappers that forward it.
//     Wrappers WITHOUT SetDeadline (io.ReadWriter views, counting
//     wrappers) are invisible by design: I/O through them inherits
//     whatever the underlying conn armed.
//   - Events: v.Read/v.Write method calls, and calls to the message
//     helpers (ReadMessage, WriteMessage, ReadFrame, WriteFrame,
//     io.ReadFull, io.Copy, CopyN, ReadAll) passing a tracked value.
//   - Arming: v.SetDeadline / SetReadDeadline / SetWriteDeadline.
//     Reassigning v disarms it.
//
// One diagnostic per value per function (at its first unarmed event).
// Deliberately deadline-free I/O — an accept loop's first read that a
// Close teardown unblocks — is annotated:
// //icilint:allow deadline(reason).
var Deadline = &analysis.Analyzer{
	Name: "deadline",
	Doc: `flag conn Read/Write not dominated by a SetDeadline arm (must-dataflow over the CFG)

Historical bug (PR 7): netx client roundTrip performed the request/response
exchange with no deadline armed; one unresponsive peer wedged the
retrieval worker pool forever. Arm conn.SetDeadline(time.Now().Add(
timeout)) on every path before blocking I/O, or annotate the intentional
blocking read.`,
	Run: runDeadline,
}

// deadlinePkgs scopes the analyzer to the transport packages (plus the
// fixture), where unarmed I/O is the historical hazard.
var deadlinePkgs = map[string]bool{
	"netx":    true,
	"gateway": true,
	"wire":    true,
}

// ioHelperNames are helper functions whose blocking I/O happens on the
// tracked argument itself.
var ioHelperNames = map[string]bool{
	"ReadMessage":  true,
	"WriteMessage": true,
	"ReadFrame":    true,
	"WriteFrame":   true,
	"ReadFull":     true,
	"ReadAll":      true,
	"Copy":         true,
	"CopyN":        true,
}

func runDeadline(pass *analysis.Pass) error {
	if !deadlinePkgs[lastPathElem(pass.Pkg.Path())] {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkDeadline(pass, fd)
		}
	}
	return nil
}

// connKey names one tracked deadline-capable value: a plain object, or a
// one-level field path (base object + field).
type connKey struct {
	obj   types.Object
	field *types.Var
}

// deadlineCapable reports whether t's method set includes SetDeadline.
func deadlineCapable(pkg *types.Package, t types.Type) bool {
	if t == nil {
		return false
	}
	obj, _, _ := types.LookupFieldOrMethod(t, true, pkg, "SetDeadline")
	_, ok := obj.(*types.Func)
	return ok
}

// connKeyOf resolves e to a tracked value key, or a zero key.
func connKeyOf(pass *analysis.Pass, e ast.Expr) (connKey, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.ObjectOf(e)
		if obj == nil || !deadlineCapable(pass.Pkg, obj.Type()) {
			return connKey{}, false
		}
		return connKey{obj: obj}, true
	case *ast.SelectorExpr:
		base, ok := ast.Unparen(e.X).(*ast.Ident)
		if !ok {
			return connKey{}, false
		}
		baseObj := pass.TypesInfo.ObjectOf(base)
		fobj, _ := pass.TypesInfo.ObjectOf(e.Sel).(*types.Var)
		if baseObj == nil || fobj == nil || !fobj.IsField() || !deadlineCapable(pass.Pkg, fobj.Type()) {
			return connKey{}, false
		}
		return connKey{obj: baseObj, field: fobj}, true
	}
	return connKey{}, false
}

// connEvent is one occurrence relevant to the analysis, in source order.
type connEvent struct {
	kind byte // 'a' arm, 'i' io, 'k' kill (reassignment)
	key  connKey
	pos  token.Pos
	name string // rendered value name for the message
}

// collectEvents walks one statement (not descending into func literals)
// and appends its events in lexical order.
func collectEvents(pass *analysis.Pass, n ast.Node, out *[]connEvent) {
	ast.Inspect(n, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for _, lhs := range c.Lhs {
				if key, ok := connKeyOf(pass, lhs); ok {
					*out = append(*out, connEvent{kind: 'k', key: key, pos: lhs.Pos()})
				}
			}
		case *ast.CallExpr:
			sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr)
			if ok {
				if key, keyed := connKeyOf(pass, sel.X); keyed {
					switch sel.Sel.Name {
					case "SetDeadline", "SetReadDeadline", "SetWriteDeadline":
						*out = append(*out, connEvent{kind: 'a', key: key, pos: c.Pos()})
						return true
					case "Read", "Write":
						*out = append(*out, connEvent{kind: 'i', key: key, pos: c.Pos(), name: renderConn(sel.X) + "." + sel.Sel.Name})
						return true
					}
				}
			}
			if fn := calleeFunc(pass.TypesInfo, c); fn != nil && ioHelperNames[fn.Name()] {
				for _, arg := range c.Args {
					if key, keyed := connKeyOf(pass, arg); keyed {
						*out = append(*out, connEvent{kind: 'i', key: key, pos: c.Pos(), name: fn.Name() + "(" + renderConn(arg) + ")"})
						break
					}
				}
			}
		}
		return true
	})
}

func renderConn(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return renderConn(e.X) + "." + e.Sel.Name
	}
	return "conn"
}

func checkDeadline(pass *analysis.Pass, fd *ast.FuncDecl) {
	// Events per CFG block, in block order.
	g := cfg.New(fd.Body)
	blockEvents := make([][]connEvent, len(g.Blocks))
	keyIndex := map[connKey]int{}
	var keys []connKey
	hasIO := false
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			collectEvents(pass, n, &blockEvents[b.Index])
		}
		for _, ev := range blockEvents[b.Index] {
			if _, ok := keyIndex[ev.key]; !ok && len(keys) < 64 {
				keyIndex[ev.key] = len(keys)
				keys = append(keys, ev.key)
			}
			if ev.kind == 'i' {
				hasIO = true
			}
		}
	}
	if !hasIO || len(keys) == 0 {
		return
	}

	transfer := func(b *cfg.Block, in cfg.Bits) cfg.Bits {
		bits := in
		for _, ev := range blockEvents[b.Index] {
			i, ok := keyIndex[ev.key]
			if !ok {
				continue
			}
			switch ev.kind {
			case 'a':
				bits = bits.With(i)
			case 'k':
				bits = bits.Without(i)
			}
		}
		return bits
	}
	in := g.Solve(transfer, 0)

	// Report the first unarmed I/O event per value.
	first := map[connKey]connEvent{}
	for _, b := range g.Blocks {
		bits := in[b.Index]
		for _, ev := range blockEvents[b.Index] {
			i, ok := keyIndex[ev.key]
			if !ok {
				continue
			}
			switch ev.kind {
			case 'a':
				bits = bits.With(i)
			case 'k':
				bits = bits.Without(i)
			case 'i':
				if !bits.Has(i) {
					if prev, seen := first[ev.key]; !seen || ev.pos < prev.pos {
						first[ev.key] = ev
					}
				}
			}
		}
	}
	var evs []connEvent
	for _, ev := range first {
		evs = append(evs, ev)
	}
	// Deterministic order for multiple values in one function.
	for i := 0; i < len(evs); i++ {
		for j := i + 1; j < len(evs); j++ {
			if evs[j].pos < evs[i].pos {
				evs[i], evs[j] = evs[j], evs[i]
			}
		}
	}
	for _, ev := range evs {
		pass.Reportf(ev.pos,
			"%s blocks with no deadline armed on some path from the function entry; a dead peer wedges this call forever — SetDeadline before the I/O or annotate icilint:allow deadline(reason)", ev.name)
	}
}
