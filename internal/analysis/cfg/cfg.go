// Package cfg builds per-function control-flow graphs from go/ast and
// solves forward must-dataflow problems over them. It is the flow-sensitive
// backbone of the deadline analyzer: an unarmed wire deadline is a path
// property that a purely syntactic walker cannot see.
//
// The graph is statement-granular: every Block holds the AST nodes that
// execute in it, in execution order, so an analyzer can refine a block's
// transfer function by scanning Nodes sequentially (an arm followed by a
// read inside one block is armed; the reverse is not).
//
// Like the rest of internal/analysis, this restates the slice of
// golang.org/x/tools (go/cfg, go/ssa's dominance idioms) the repo needs,
// on the stdlib only.
package cfg

import (
	"go/ast"
	"go/token"
)

// Block is one straight-line run of AST nodes with a single entry point.
type Block struct {
	// Index is the block's position in CFG.Blocks (entry is 0).
	Index int
	// Nodes are the statements and sub-expressions that execute in this
	// block, in execution order. An *ast.IfStmt contributes its Init and
	// Cond here; its branches are separate blocks.
	Nodes []ast.Node
	// Succs and Preds are the control-flow edges. A block ending in a
	// return or a call to panic has no successors.
	Succs, Preds []*Block
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	// Blocks holds every block; Blocks[0] is the entry. Unreachable
	// blocks (after return/panic/branch) are retained but have no Preds.
	Blocks []*Block
}

// builder carries the construction state: the current block being filled
// and the branch targets of the enclosing loops/switches.
type builder struct {
	g *CFG
	// cur is the block new nodes append to; nil after a terminator until
	// the next statement starts a fresh (unreachable) block.
	cur *Block
	// breaks/continues map enclosing statements to their exit/backedge
	// targets; labels resolves labeled break/continue/goto.
	breaks    []branchTarget
	continues []branchTarget
	labels    map[string]*labelInfo
	// gotos are forward gotos resolved after the walk.
	gotos []pendingGoto
	// pendingLabel carries the label of an enclosing LabeledStmt to the
	// loop/switch statement it names, so labeled break/continue resolve.
	pendingLabel string
}

type branchTarget struct {
	label string // "" for the innermost unlabeled target
	block *Block
}

type labelInfo struct {
	// block is the labeled statement's entry block (goto target).
	block *Block
}

type pendingGoto struct {
	from  *Block
	label string
}

// New builds the CFG of body. Function literals nested inside body are
// treated as opaque values: their statements do not join this graph (an
// analyzer that cares builds a separate CFG per literal).
func New(body *ast.BlockStmt) *CFG {
	b := &builder{g: &CFG{}, labels: map[string]*labelInfo{}}
	entry := b.newBlock()
	b.cur = entry
	b.stmtList(body.List)
	for _, pg := range b.gotos {
		if li, ok := b.labels[pg.label]; ok {
			b.edgeFrom(pg.from, li.block)
		}
	}
	return b.g
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// startBlock makes blk current, assuming control flowed here already.
func (b *builder) startBlock(blk *Block) { b.cur = blk }

// edge links the current block to to (no-op when control already ended).
func (b *builder) edge(to *Block) {
	if b.cur != nil {
		b.edgeFrom(b.cur, to)
	}
}

func (b *builder) edgeFrom(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// add appends a node to the current block, opening a fresh unreachable
// block if control has terminated (dead code keeps its nodes so analyzers
// can still inspect it).
func (b *builder) add(n ast.Node) {
	if n == nil {
		return
	}
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		b.add(s.Init)
		b.add(s.Cond)
		if b.cur == nil {
			b.cur = b.newBlock()
		}
		cond := b.cur
		thenB := b.newBlock()
		b.edgeFrom(cond, thenB)
		var elseB *Block
		if s.Else != nil {
			elseB = b.newBlock()
			b.edgeFrom(cond, elseB)
		}
		join := b.newBlock()
		if s.Else == nil {
			b.edgeFrom(cond, join)
		}
		b.startBlock(thenB)
		b.stmt(s.Body)
		b.edge(join)
		if s.Else != nil {
			b.startBlock(elseB)
			b.stmt(s.Else)
			b.edge(join)
		}
		b.startBlock(join)

	case *ast.ForStmt:
		b.add(s.Init)
		head := b.newBlock() // condition
		b.edge(head)
		b.startBlock(head)
		b.add(s.Cond)
		body := b.newBlock()
		exit := b.newBlock()
		post := b.newBlock() // continue target
		b.edgeFrom(head, body)
		if s.Cond != nil {
			b.edgeFrom(head, exit)
		}
		// An infinite loop (no cond) still gets the exit edge reachable
		// only via break.
		cp := b.pushTargets(labelOf(s, b), exit, post)
		b.startBlock(body)
		b.stmt(s.Body)
		b.popTargets(cp)
		b.edge(post)
		b.startBlock(post)
		b.add(s.Post)
		b.edge(head)
		b.startBlock(exit)

	case *ast.RangeStmt:
		b.add(s.X)
		head := b.newBlock()
		b.edge(head)
		b.startBlock(head)
		if s.Key != nil {
			b.add(s.Key)
		}
		if s.Value != nil {
			b.add(s.Value)
		}
		body := b.newBlock()
		exit := b.newBlock()
		b.edgeFrom(head, body)
		b.edgeFrom(head, exit)
		cp := b.pushTargets(labelOf(s, b), exit, head)
		b.startBlock(body)
		b.stmt(s.Body)
		b.popTargets(cp)
		b.edge(head)
		b.startBlock(exit)

	case *ast.SwitchStmt:
		b.add(s.Init)
		b.add(s.Tag)
		b.switchBody(labelOf(s, b), s.Body, func(cc *ast.CaseClause) {
			for _, e := range cc.List {
				b.add(e)
			}
		})

	case *ast.TypeSwitchStmt:
		b.add(s.Init)
		b.add(s.Assign)
		b.switchBody(labelOf(s, b), s.Body, func(cc *ast.CaseClause) {
			for _, e := range cc.List {
				b.add(e)
			}
		})

	case *ast.SelectStmt:
		// Every comm clause is a possible successor; the scheduler picks.
		head := b.cur
		if head == nil {
			head = b.newBlock()
			b.cur = head
		}
		exit := b.newBlock()
		cp := b.pushTargets(labelOf(s, b), exit, nil)
		for _, cl := range s.Body.List {
			cc, ok := cl.(*ast.CommClause)
			if !ok {
				continue
			}
			caseB := b.newBlock()
			b.edgeFrom(head, caseB)
			b.startBlock(caseB)
			b.add(cc.Comm)
			b.stmtList(cc.Body)
			b.edge(exit)
		}
		b.popTargets(cp)
		// Control only leaves a select through a case; the degenerate
		// empty select blocks forever and never continues.
		if len(s.Body.List) == 0 {
			b.cur = nil
			return
		}
		b.startBlock(exit)

	case *ast.LabeledStmt:
		target := b.newBlock()
		b.edge(target)
		b.startBlock(target)
		b.labels[s.Label.Name] = &labelInfo{block: target}
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.BranchStmt:
		b.add(s)
		switch s.Tok {
		case token.BREAK:
			if t := b.findTarget(b.breaks, s.Label); t != nil {
				b.edge(t)
			}
			b.cur = nil
		case token.CONTINUE:
			if t := b.findTarget(b.continues, s.Label); t != nil {
				b.edge(t)
			}
			b.cur = nil
		case token.GOTO:
			if b.cur != nil && s.Label != nil {
				b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: s.Label.Name})
			}
			b.cur = nil
		case token.FALLTHROUGH:
			// Handled structurally by switchBody (fallthrough must be the
			// clause's final statement); nothing to do here.
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.cur = nil

	case *ast.ExprStmt:
		b.add(s)
		if isPanic(s.X) {
			b.cur = nil
		}

	case *ast.DeferStmt, *ast.GoStmt, *ast.AssignStmt, *ast.DeclStmt,
		*ast.IncDecStmt, *ast.SendStmt, *ast.EmptyStmt:
		b.add(s)

	default:
		b.add(s)
	}
}

// switchBody builds the clause blocks of a (type) switch. addCaseExprs
// appends the clause's guard expressions to the clause block.
func (b *builder) switchBody(label string, body *ast.BlockStmt, addCaseExprs func(*ast.CaseClause)) {
	head := b.cur
	if head == nil {
		head = b.newBlock()
		b.cur = head
	}
	exit := b.newBlock()
	cp := b.pushTargets(label, exit, nil)
	hasDefault := false
	var clauseBlocks []*Block
	var clauses []*ast.CaseClause
	for _, cl := range body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		if len(cc.List) == 0 {
			hasDefault = true
		}
		caseB := b.newBlock()
		b.edgeFrom(head, caseB)
		clauseBlocks = append(clauseBlocks, caseB)
		clauses = append(clauses, cc)
	}
	for i, cc := range clauses {
		b.startBlock(clauseBlocks[i])
		addCaseExprs(cc)
		b.stmtList(cc.Body)
		if fallsThrough(cc) && i+1 < len(clauseBlocks) {
			b.edge(clauseBlocks[i+1])
			b.cur = nil
			continue
		}
		b.edge(exit)
	}
	b.popTargets(cp)
	if !hasDefault {
		// No default: the switch may match nothing and fall through.
		b.edgeFrom(head, exit)
	}
	b.startBlock(exit)
}

// fallsThrough reports whether a case clause ends in fallthrough.
func fallsThrough(cc *ast.CaseClause) bool {
	if len(cc.Body) == 0 {
		return false
	}
	br, ok := cc.Body[len(cc.Body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

// pushTargets registers the break (and, for loops, continue) targets of
// one enclosing construct; the returned flag feeds popTargets so a switch
// never pops an enclosing loop's continue target.
func (b *builder) pushTargets(label string, brk, cont *Block) bool {
	b.breaks = append(b.breaks, branchTarget{label: label, block: brk})
	if cont != nil {
		b.continues = append(b.continues, branchTarget{label: label, block: cont})
		return true
	}
	return false
}

func (b *builder) popTargets(contPushed bool) {
	b.breaks = b.breaks[:len(b.breaks)-1]
	if contPushed {
		b.continues = b.continues[:len(b.continues)-1]
	}
}

// findTarget resolves a break/continue to its target block: the innermost
// enclosing construct, or the one carrying the label.
func (b *builder) findTarget(stack []branchTarget, label *ast.Ident) *Block {
	if len(stack) == 0 {
		return nil
	}
	if label == nil {
		return stack[len(stack)-1].block
	}
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i].label == label.Name {
			return stack[i].block
		}
	}
	return nil
}

// labelOf consumes the pending label set by the enclosing LabeledStmt.
func labelOf(_ ast.Stmt, b *builder) string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// isPanic reports whether e is a direct call to the builtin panic.
func isPanic(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// RevPostorder returns the blocks reachable from the entry in reverse
// postorder — the canonical iteration order for forward dataflow
// worklists (a block's predecessors come before it except on back edges).
func (g *CFG) RevPostorder() []*Block {
	if len(g.Blocks) == 0 {
		return nil
	}
	seen := make([]bool, len(g.Blocks))
	var post []*Block
	var dfs func(b *Block)
	dfs = func(b *Block) {
		seen[b.Index] = true
		for _, s := range b.Succs {
			if !seen[s.Index] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(g.Blocks[0])
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}
