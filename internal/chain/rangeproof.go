package chain

import (
	"fmt"

	"icistrategy/internal/blockcrypto"
)

// RangeProof is what the proofs of a contiguous run of leaves need beyond
// the leaves themselves: the tree's depth and, level by level from the
// leaves up, the sibling hashes at the run's two edges. At each level the
// run covers nodes lo..hi; the left neighbour lo-1 is kept when lo is a
// right child, then the right neighbour hi+1 when hi is a left child (hi
// itself when it is its level's duplicated trailing node, as Prove writes
// it). Every other sibling a proof of the run names is a node the run's own
// leaves hash to, so a run of k leaves under depth d keeps at most 2d
// hashes where its proofs hold k·d.
type RangeProof struct {
	Depth  int
	Hashes []blockcrypto.Hash
}

// Size returns the bytes of hashes the range proof keeps.
func (r RangeProof) Size() int { return len(r.Hashes) * blockcrypto.HashSize }

// RangeProofOf keeps the edge of the run of leaves proofs prove, proofs[i]
// proving leaf start+i. It hashes nothing and needs no leaf count: the
// first proof's left-side siblings and the last proof's right-side siblings
// are the edge. It refuses proofs of unequal depth, a LeafIndex other than
// start+i, and steps whose sides do not spell their LeafIndex (the position
// rule VerifyProof applies); that the siblings lead to a root is not
// checked here, so proofs should have been verified first. No proofs keep
// the zero RangeProof.
func RangeProofOf(start int, proofs []Proof) (RangeProof, error) {
	if len(proofs) == 0 {
		return RangeProof{}, nil
	}
	depth := len(proofs[0].Steps)
	for i := range proofs {
		p := &proofs[i]
		if p.LeafIndex != start+i {
			return RangeProof{}, fmt.Errorf("%w: proof %d has leaf index %d, want %d", ErrProofMalformed, i, p.LeafIndex, start+i)
		}
		if len(p.Steps) != depth {
			return RangeProof{}, fmt.Errorf("%w: proof %d has %d steps, proof 0 has %d", ErrProofMalformed, i, len(p.Steps), depth)
		}
		if err := checkPosition(*p); err != nil {
			return RangeProof{}, fmt.Errorf("proof %d: %w", i, err)
		}
	}
	first, last := proofs[0].Steps, proofs[len(proofs)-1].Steps
	r := RangeProof{Depth: depth}
	for l := range first {
		if first[l].Left {
			r.Hashes = append(r.Hashes, first[l].Sibling)
		}
		if !last[l].Left {
			r.Hashes = append(r.Hashes, last[l].Sibling)
		}
	}
	return r, nil
}

// Proofs rebuilds the proof of every transaction of body, an encoded
// (sub-)body whose first transaction is leaf start of the tree r was kept
// from: each transaction is hashed where it lies (walkBody), the run's
// nodes are hashed level by level with r's edge beside them, and every
// proof takes its siblings from those levels. For the body r was kept for,
// the proofs are the ones RangeProofOf was given, as Prove returns them;
// they share one step array, each proof's steps capped. Nothing is checked
// against a root: a reader verifies what it is served. It fails on a body
// that does not frame, a run that does not fit under r.Depth levels, and an
// edge of another length than the run needs.
func (r RangeProof) Proofs(start int, body []byte) ([]Proof, error) {
	count, err := BodyTxCount(body)
	if err != nil {
		return nil, err
	}
	level := make([]blockcrypto.Hash, 0, count)
	if err := walkBody(body, func(_ int, tx []byte) { level = append(level, blockcrypto.Sum256(tx)) }); err != nil {
		return nil, err
	}
	if count == 0 {
		return nil, nil
	}
	d, last := r.Depth, start+count-1
	if start < 0 || d < 0 || d > maxProofDepth || last>>d != 0 {
		return nil, fmt.Errorf("%w: leaves %d..%d under %d levels", ErrProofMalformed, start, last, d)
	}
	proofs := make([]Proof, count)
	steps := make([]ProofStep, count*d)
	for i := range proofs {
		proofs[i].LeafIndex = start + i
		if d > 0 {
			proofs[i].Steps = steps[i*d : (i+1)*d : (i+1)*d]
		}
	}
	edge := r.Hashes
	lo, hi := start, last
	for l := 0; l < d; l++ {
		var left, right blockcrypto.Hash
		if lo&1 == 1 {
			if len(edge) == 0 {
				return nil, fmt.Errorf("%w: edge ends at level %d", ErrProofMalformed, l)
			}
			left, edge = edge[0], edge[1:]
		}
		if hi&1 == 0 {
			if len(edge) == 0 {
				return nil, fmt.Errorf("%w: edge ends at level %d", ErrProofMalformed, l)
			}
			right, edge = edge[0], edge[1:]
		}
		// node returns node x of this level, for x in lo-1..hi+1.
		node := func(x int) blockcrypto.Hash {
			switch {
			case x < lo:
				return left
			case x > hi:
				return right
			}
			return level[x-lo]
		}
		for i := range proofs {
			at := (start + i) >> l
			proofs[i].Steps[l] = ProofStep{Sibling: node(at ^ 1), Left: at&1 == 1}
		}
		// The next level overwrites this one in place: node k of it reads
		// nodes 2k-1 and up of this one, and is written after them.
		n := hi>>1 - lo>>1 + 1
		for k := 0; k < n; k++ {
			x := (lo>>1 + k) * 2
			level[k] = blockcrypto.HashPair(node(x), node(x+1))
		}
		level, lo, hi = level[:n], lo>>1, hi>>1
	}
	if len(edge) != 0 {
		return nil, fmt.Errorf("%w: %d edge hashes left over", ErrProofMalformed, len(edge))
	}
	return proofs, nil
}
