package cfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// build parses a function body and returns its CFG.
func build(t *testing.T, body string) *CFG {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fd := file.Decls[0].(*ast.FuncDecl)
	return New(fd.Body)
}

// hasCall reports whether the block contains a call to name.
func hasCall(b *Block, name string) bool {
	for _, n := range b.Nodes {
		found := false
		ast.Inspect(n, func(c ast.Node) bool {
			if call, ok := c.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == name {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

func blockWithCall(t *testing.T, g *CFG, name string) *Block {
	t.Helper()
	for _, b := range g.Blocks {
		if hasCall(b, name) {
			return b
		}
	}
	t.Fatalf("no block contains call to %s", name)
	return nil
}

// reaches reports whether to is reachable from from along Succs.
func reaches(from, to *Block) bool {
	seen := map[int]bool{}
	var dfs func(b *Block) bool
	dfs = func(b *Block) bool {
		if b == to {
			return true
		}
		if seen[b.Index] {
			return false
		}
		seen[b.Index] = true
		for _, s := range b.Succs {
			if dfs(s) {
				return true
			}
		}
		return false
	}
	return dfs(from)
}

func TestIfJoin(t *testing.T) {
	g := build(t, `
		a()
		if cond() {
			b()
		} else {
			c()
		}
		d()`)
	bb, cb, db := blockWithCall(t, g, "b"), blockWithCall(t, g, "c"), blockWithCall(t, g, "d")
	if reaches(bb, cb) || reaches(cb, bb) {
		t.Fatalf("then and else branches must not reach each other")
	}
	if !reaches(bb, db) || !reaches(cb, db) {
		t.Fatalf("both branches must reach the join")
	}
}

func TestIfWithoutElseBypass(t *testing.T) {
	g := build(t, `
		if cond() {
			b()
		}
		d()`)
	cond := blockWithCall(t, g, "cond")
	db := blockWithCall(t, g, "d")
	// The condition must have a direct edge to the join (the not-taken
	// path) in addition to the then-branch path.
	direct := false
	for _, s := range cond.Succs {
		if s == db {
			direct = true
		}
	}
	if !direct {
		t.Fatalf("if without else must have a bypass edge cond->join; succs=%v", indices(cond.Succs))
	}
}

func TestForLoopBackedge(t *testing.T) {
	g := build(t, `
		for i := 0; i < n(); i++ {
			body()
		}
		after()`)
	nb, bb, ab := blockWithCall(t, g, "n"), blockWithCall(t, g, "body"), blockWithCall(t, g, "after")
	if !reaches(bb, nb) {
		t.Fatalf("loop body must reach the condition via the back edge")
	}
	if !reaches(nb, ab) {
		t.Fatalf("condition must reach the loop exit")
	}
	if !reaches(g.Blocks[0], bb) {
		t.Fatalf("entry must reach the body")
	}
}

func TestInfiniteLoopExitOnlyViaBreak(t *testing.T) {
	g := build(t, `
		for {
			if cond() {
				break
			}
			body()
		}
		after()`)
	ab := blockWithCall(t, g, "after")
	cond := blockWithCall(t, g, "cond")
	if !reaches(cond, ab) {
		t.Fatalf("break must reach the loop exit")
	}
	// Without the break the exit is unreachable.
	g2 := build(t, `
		for {
			body()
		}
		after()`)
	ab2 := blockWithCall(t, g2, "after")
	if reaches(g2.Blocks[0], ab2) {
		t.Fatalf("infinite loop without break must not reach code after it")
	}
}

func TestReturnTerminates(t *testing.T) {
	g := build(t, `
		if cond() {
			early()
			return
		}
		late()`)
	eb, lb := blockWithCall(t, g, "early"), blockWithCall(t, g, "late")
	if reaches(eb, lb) {
		t.Fatalf("return must not fall through to following code")
	}
}

func TestPanicMarksBlock(t *testing.T) {
	g := build(t, `
		if cond() {
			panic("boom")
		}
		late()`)
	if reaches(blockWithCall(t, g, "panic"), blockWithCall(t, g, "late")) {
		t.Fatalf("panic must not fall through")
	}
}

func TestSwitchDefaultAndFallthrough(t *testing.T) {
	g := build(t, `
		switch tag() {
		case 1:
			one()
			fallthrough
		case 2:
			two()
		default:
			dflt()
		}
		after()`)
	one, two, ab := blockWithCall(t, g, "one"), blockWithCall(t, g, "two"), blockWithCall(t, g, "after")
	if !reaches(one, two) {
		t.Fatalf("fallthrough must connect case 1 to case 2")
	}
	for _, c := range []*Block{one, two, blockWithCall(t, g, "dflt")} {
		if !reaches(c, ab) {
			t.Fatalf("case block %d must reach the switch exit", c.Index)
		}
	}
	// With a default clause, the tag block must NOT bypass all cases.
	tag := blockWithCall(t, g, "tag")
	for _, s := range tag.Succs {
		if s == ab {
			t.Fatalf("switch with default must not have a direct tag->exit edge")
		}
	}
}

func TestLabeledBreak(t *testing.T) {
	g := build(t, `
	outer:
		for a() {
			for bcond() {
				if c() {
					break outer
				}
				inner()
			}
		}
		after()`)
	cb, ab, ib := blockWithCall(t, g, "c"), blockWithCall(t, g, "after"), blockWithCall(t, g, "inner")
	if !reaches(cb, ab) {
		t.Fatalf("labeled break must reach the outer loop's exit")
	}
	// The break path must not pass through the inner loop body again:
	// find the break block (successor of cb that is not ib's block).
	_ = ib
}

func TestSelectCases(t *testing.T) {
	g := build(t, `
		select {
		case <-ch1():
			one()
		case <-ch2():
			two()
		}
		after()`)
	one, two, ab := blockWithCall(t, g, "one"), blockWithCall(t, g, "two"), blockWithCall(t, g, "after")
	if reaches(one, two) || reaches(two, one) {
		t.Fatalf("select cases must be mutually exclusive")
	}
	if !reaches(one, ab) || !reaches(two, ab) {
		t.Fatalf("select cases must reach the join")
	}
}

func TestRevPostorderEntryFirst(t *testing.T) {
	g := build(t, `
		if cond() {
			b()
		}
		for x() {
			y()
		}
		d()`)
	rpo := g.RevPostorder()
	if len(rpo) == 0 || rpo[0] != g.Blocks[0] {
		t.Fatalf("reverse postorder must start at the entry block")
	}
	// Every block must appear at most once.
	seen := map[int]bool{}
	for _, b := range rpo {
		if seen[b.Index] {
			t.Fatalf("block %d appears twice in RPO", b.Index)
		}
		seen[b.Index] = true
	}
}

// TestMustAnalysisDeadlineShape runs the exact lattice problem the
// deadline analyzer solves: fact 0 is "armed"; the arm call generates it;
// the must-meet requires it on every path into the read.
func TestMustAnalysisDeadlineShape(t *testing.T) {
	const armed = 0
	run := func(body string) (inAtRead Bits) {
		g := build(t, body)
		in := g.Solve(func(b *Block, in Bits) Bits {
			if hasCall(b, "arm") {
				in = in.With(armed)
			}
			return in
		}, 0)
		rb := blockWithCall(t, g, "read")
		return in[rb.Index]
	}

	// Armed on only one branch: must-meet kills the fact at the join.
	in := run(`
		if cond() {
			arm()
		}
		read()`)
	if in.Has(armed) {
		t.Fatalf("armed on one branch only must not survive an Intersect join")
	}

	// Armed on both branches: fact survives.
	in = run(`
		if cond() {
			arm()
		} else {
			arm()
		}
		read()`)
	if !in.Has(armed) {
		t.Fatalf("armed on both branches must survive an Intersect join")
	}

	// Armed before the loop: back edge must not erase it.
	in = run(`
		arm()
		for cond() {
			read()
		}`)
	if !in.Has(armed) {
		t.Fatalf("fact armed before a loop must hold inside it")
	}
}

func indices(bs []*Block) string {
	var sb strings.Builder
	for i, b := range bs {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(string(rune('0' + b.Index)))
	}
	return sb.String()
}
