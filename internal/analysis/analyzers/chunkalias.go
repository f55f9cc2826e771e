package analyzers

import (
	"go/ast"
	"go/types"

	"icistrategy/internal/analysis"
)

// ChunkAlias encodes the PR-2 storage.Store bug family: a put path that
// retained the caller's chunk buffer (so a later caller-side mutation
// corrupted the "stored" chunk), and a get path that handed out the
// internal buffer (so a reader could corrupt the store). Both were fixed
// with copy-on-put / copy-on-read; this analyzer keeps them fixed.
//
// Two checks, intraprocedural and lexical:
//
//  1. Store-side: inside a function taking a []byte parameter (or a struct
//     value with []byte fields, like storage.Chunk), assigning that
//     parameter — or a slice of it, or a local alias of it — into a field,
//     map/slice element, or pointer target is flagged unless the buffer was
//     first re-pointed at a fresh allocation (append/copy/clone call).
//  2. Read-side: a pointer-receiver method returning a []byte field of its
//     receiver (or an interior slice of one) without copying is flagged.
//
// Intentional ownership transfer is annotated:
// //icilint:allow chunkalias(reason).
var ChunkAlias = &analysis.Analyzer{
	Name: "chunkalias",
	Doc: `flag retained or leaked []byte buffers shared with callers (copy-on-put / copy-on-read)

Historical bug (PR 2): storage.Store.PutChunk stored the caller's chunk
slice; the proposer reused its scratch buffer for the next block and every
"stored" chunk silently mutated, failing digest verification cluster-wide.
Store caller-supplied buffers only after append([]byte(nil), p...) (or an
equivalent copy), and return internal buffers only as copies.`,
	Run: runChunkAlias,
}

// aliasParam is one parameter whose buffer the caller may retain: either a
// []byte itself, or a struct value carrying []byte fields.
type aliasParam struct {
	obj *types.Var
	// byteFields holds the struct kind's []byte field objects; nil for the
	// plain []byte kind.
	byteFields map[*types.Var]bool
	// sanitized tracks which byte fields (or, for the []byte kind, the
	// parameter itself under the nil key) have been re-pointed at a fresh
	// allocation so far in the lexical walk.
	sanitized map[*types.Var]bool
}

func (p *aliasParam) clean() bool {
	if p.byteFields == nil {
		return p.sanitized[nil]
	}
	for f := range p.byteFields {
		if !p.sanitized[f] {
			return false
		}
	}
	return true
}

func runChunkAlias(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			storeSide(pass, fd)
			readSide(pass, fd)
		}
	}
	return nil
}

// --- store side --------------------------------------------------------------

// storeSide reports every caller-shared buffer fd stores without a copy.
func storeSide(pass *analysis.Pass, fd *ast.FuncDecl) {
	params := collectAliasParams(pass, fd)
	if len(params) == 0 {
		return
	}
	// aliasOf maps local variables to the parameter they alias (tmp := p,
	// tmp := p[4:], tmp := c.Data ...).
	aliasOf := map[types.Object]*aliasParam{}

	find := func(e ast.Expr) (*aliasParam, bool) {
		return findAliasSource(pass.TypesInfo, e, params, aliasOf)
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true // multi-value call: RHS is a call, never a raw alias
			}
			for i, lhs := range n.Lhs {
				rhs := n.Rhs[i]
				src, direct := find(rhs)
				switch lhs := ast.Unparen(lhs).(type) {
				case *ast.Ident:
					obj := pass.TypesInfo.ObjectOf(lhs)
					if obj == nil {
						continue
					}
					if src != nil {
						aliasOf[obj] = src // tmp := p (or p re-assigned: stays itself)
					} else {
						delete(aliasOf, obj) // re-pointed at something fresh
						if p := paramByObj(params, obj); p != nil && callRooted(rhs) {
							p.sanitized[nil] = true
						}
					}
				case *ast.SelectorExpr:
					// p.Data = append([]byte(nil), p.Data...) sanitizes that
					// field of a struct-kind parameter.
					if base, fobj := selectorOnParam(pass.TypesInfo, lhs, params); base != nil {
						if src == nil && callRooted(rhs) {
							base.sanitized[fobj] = true
						}
						continue
					}
					if src != nil && direct {
						reportStore(pass, rhs, src)
					}
				case *ast.IndexExpr, *ast.StarExpr:
					if src != nil && direct {
						reportStore(pass, rhs, src)
					}
				}
			}
		case *ast.FuncLit:
			// Closures share the outer scope; keep walking so stores inside
			// them are still seen (lexically).
			return true
		}
		return true
	})
}

// collectAliasParams gathers the function's caller-shared buffer
// parameters.
func collectAliasParams(pass *analysis.Pass, fd *ast.FuncDecl) []*aliasParam {
	var out []*aliasParam
	if fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			obj, ok := pass.TypesInfo.Defs[name].(*types.Var)
			if !ok {
				continue
			}
			t := obj.Type()
			if isByteSlice(t) {
				out = append(out, &aliasParam{obj: obj, sanitized: map[*types.Var]bool{}})
				continue
			}
			// Struct value with []byte fields (the storage.Chunk shape).
			// Pointers are excluded: *T is whole-object sharing by intent.
			if st, ok := t.Underlying().(*types.Struct); ok {
				fields := map[*types.Var]bool{}
				for i := 0; i < st.NumFields(); i++ {
					if isByteSlice(st.Field(i).Type()) {
						fields[st.Field(i)] = true
					}
				}
				if len(fields) > 0 {
					out = append(out, &aliasParam{obj: obj, byteFields: fields, sanitized: map[*types.Var]bool{}})
				}
			}
		}
	}
	return out
}

func paramByObj(params []*aliasParam, obj types.Object) *aliasParam {
	for _, p := range params {
		if p.obj == obj {
			return p
		}
	}
	return nil
}

// selectorOnParam resolves sel as `param.field` where param is a
// struct-kind alias parameter and field one of its []byte fields.
func selectorOnParam(info *types.Info, sel *ast.SelectorExpr, params []*aliasParam) (*aliasParam, *types.Var) {
	base, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil, nil
	}
	p := paramByObj(params, info.ObjectOf(base))
	if p == nil || p.byteFields == nil {
		return nil, nil
	}
	fobj, _ := info.ObjectOf(sel.Sel).(*types.Var)
	if fobj == nil || !p.byteFields[fobj] {
		return nil, nil
	}
	return p, fobj
}

// findAliasSource reports whether e still aliases a caller-shared
// parameter buffer: the parameter itself, a slice of it, one of a struct
// parameter's []byte fields, a composite literal embedding one, or a local
// variable recorded in aliasOf. Crossing a call expression ends the search
// (append/copy/clone make fresh buffers; other callees own their results).
// direct is false only for the nil result.
func findAliasSource(info *types.Info, e ast.Expr, params []*aliasParam, aliasOf map[types.Object]*aliasParam) (src *aliasParam, direct bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.ObjectOf(e)
		if p := paramByObj(params, obj); p != nil && !p.clean() {
			return p, true
		}
		if p, ok := aliasOf[obj]; ok && !p.clean() {
			return p, true
		}
	case *ast.SliceExpr:
		return findAliasSource(info, e.X, params, aliasOf)
	case *ast.SelectorExpr:
		if base, fobj := selectorOnParam(info, e, params); base != nil && !base.sanitized[fobj] {
			return base, true
		}
	case *ast.UnaryExpr:
		if e.Op.String() == "&" {
			return findAliasSource(info, e.X, params, aliasOf)
		}
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			v := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			if p, ok := findAliasSource(info, v, params, aliasOf); ok {
				return p, true
			}
		}
	}
	return nil, false
}

// callRooted reports whether e's value comes out of a call (append, copy
// helpers, constructors) — the lexical signal that a fresh buffer was
// allocated.
func callRooted(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		return true
	case *ast.SliceExpr:
		return callRooted(e.X)
	}
	return false
}

func reportStore(pass *analysis.Pass, at ast.Expr, src *aliasParam) {
	pass.Reportf(at.Pos(),
		"storing caller-owned buffer of parameter %q without copy; the caller can mutate stored state — copy first (append([]byte(nil), p...)) or annotate icilint:allow chunkalias(reason)",
		src.obj.Name())
}

// --- read side ---------------------------------------------------------------

// readSide reports every internal []byte field fd returns without a copy.
func readSide(pass *analysis.Pass, fd *ast.FuncDecl) {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return
	}
	// Pointer receivers only: a value receiver already works on a copy of
	// the struct (though its slices still alias, the stored-state smell is
	// the pointer-receiver store type).
	recvField := fd.Recv.List[0]
	if _, ok := recvField.Type.(*ast.StarExpr); !ok {
		return
	}
	if len(recvField.Names) == 0 {
		return
	}
	recvObj := pass.TypesInfo.Defs[recvField.Names[0]]
	if recvObj == nil {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok && fl != nil {
			return true
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if sel := receiverByteField(pass.TypesInfo, res, recvObj); sel != nil {
				pass.Reportf(res.Pos(),
					"returning internal buffer %s without copy-on-read; callers can mutate stored state — return append([]byte(nil), %s...) or annotate icilint:allow chunkalias(reason)",
					exprString(sel), exprString(sel))
			}
		}
		return true
	})
}

// receiverByteField reports the `recv.field` selector if e is a []byte
// field of the receiver, or an interior slice of one.
func receiverByteField(info *types.Info, e ast.Expr, recv types.Object) *ast.SelectorExpr {
	switch e := ast.Unparen(e).(type) {
	case *ast.SliceExpr:
		return receiverByteField(info, e.X, recv)
	case *ast.SelectorExpr:
		base, ok := ast.Unparen(e.X).(*ast.Ident)
		if !ok || info.ObjectOf(base) != recv {
			return nil
		}
		fobj, _ := info.ObjectOf(e.Sel).(*types.Var)
		if fobj != nil && fobj.IsField() && isByteSlice(fobj.Type()) {
			return e
		}
	}
	return nil
}

// exprString renders a short selector like "s.buf" for messages.
func exprString(sel *ast.SelectorExpr) string {
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		return id.Name + "." + sel.Sel.Name
	}
	return sel.Sel.Name
}
