package cfg

// Forward dataflow over the CFG: a reverse-postorder worklist driving
// per-block transfer functions to a fixpoint over a small bitvector
// lattice. Up to 64 facts per problem — a per-function cap the deadline
// analyzer never approaches (one armed bit per connection value).

// Bits is a set of dataflow facts, one per bit.
type Bits uint64

// Has reports whether fact i is in the set.
func (b Bits) Has(i int) bool { return b&(1<<uint(i)) != 0 }

// With returns the set plus fact i.
func (b Bits) With(i int) Bits { return b | 1<<uint(i) }

// Without returns the set minus fact i.
func (b Bits) Without(i int) Bits { return b &^ (1 << uint(i)) }

// Solve runs a forward must-analysis to a fixpoint and returns the entry
// state of every block (indexed by Block.Index): a fact holds at a block's
// entry only if it held at the exit of EVERY predecessor (e.g. "a deadline
// is armed on all paths reaching this read"). transfer is each block's
// monotone transfer function; entryIn seeds the function entry block.
// Unvisited predecessors start at top (all facts), the standard optimistic
// initialization.
func (g *CFG) Solve(transfer func(*Block, Bits) Bits, entryIn Bits) []Bits {
	n := len(g.Blocks)
	in := make([]Bits, n)
	out := make([]Bits, n)
	visited := make([]bool, n)

	rpo := g.RevPostorder()
	order := make([]int, n) // block index -> worklist priority
	for i := range order {
		order[i] = n // unreachable blocks last
	}
	for i, b := range rpo {
		order[b.Index] = i
	}

	inWork := make([]bool, n)
	var work []*Block
	push := func(b *Block) {
		if !inWork[b.Index] {
			inWork[b.Index] = true
			work = append(work, b)
		}
	}
	for _, b := range rpo {
		push(b)
	}

	for len(work) > 0 {
		// Pop the block with the smallest reverse-postorder rank so the
		// common acyclic case converges in one sweep.
		best := 0
		for i := 1; i < len(work); i++ {
			if order[work[i].Index] < order[work[best].Index] {
				best = i
			}
		}
		b := work[best]
		work[best] = work[len(work)-1]
		work = work[:len(work)-1]
		inWork[b.Index] = false

		newIn := entryIn
		if b.Index != 0 {
			newIn = ^Bits(0) // top; also what a block with no predecessors (unreachable) keeps
			for _, p := range b.Preds {
				if visited[p.Index] {
					newIn &= out[p.Index]
				}
			}
		}
		newOut := transfer(b, newIn)
		if visited[b.Index] && newIn == in[b.Index] && newOut == out[b.Index] {
			continue
		}
		visited[b.Index] = true
		in[b.Index] = newIn
		out[b.Index] = newOut
		for _, s := range b.Succs {
			push(s)
		}
	}
	return in
}
