package chain

import (
	"encoding/binary"
	"errors"
	"fmt"

	"icistrategy/internal/blockcrypto"
)

// Merkle tree errors.
var (
	ErrEmptyTree      = errors.New("chain: merkle tree has no leaves")
	ErrLeafOutOfs     = errors.New("chain: merkle leaf index out of range")
	ErrProofInvalid   = errors.New("chain: merkle proof does not verify")
	ErrProofTooLarge  = errors.New("chain: merkle proof longer than tree depth bound")
	ErrProofMalformed = errors.New("chain: merkle proof encoding malformed")
)

// maxProofDepth bounds proof length during verification; 2^64 leaves is
// unreachable, 64 levels is a safe ceiling.
const maxProofDepth = 64

// MerkleTree is a binary hash tree over a sequence of leaf hashes. Odd
// levels duplicate the trailing node (Bitcoin-style). The tree retains all
// interior levels so proofs are O(log n) lookups.
type MerkleTree struct {
	levels [][]blockcrypto.Hash // levels[0] = leaves, last level = [root]
}

// NewMerkleTree builds a tree over the given leaf hashes, which stay the
// caller's: the tree keeps a copy.
func NewMerkleTree(leaves []blockcrypto.Hash) (*MerkleTree, error) {
	return newMerkleTree(append([]blockcrypto.Hash(nil), leaves...))
}

// newMerkleTree builds the tree on level, which becomes its leaf level: the
// caller made the slice for it and keeps no reference.
func newMerkleTree(level []blockcrypto.Hash) (*MerkleTree, error) {
	if len(level) == 0 {
		return nil, ErrEmptyTree
	}
	t := &MerkleTree{}
	t.levels = append(t.levels, level)
	for len(level) > 1 {
		next := make([]blockcrypto.Hash, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, blockcrypto.HashPair(level[i], level[i+1]))
			} else {
				next = append(next, blockcrypto.HashPair(level[i], level[i]))
			}
		}
		t.levels = append(t.levels, next)
		level = next
	}
	return t, nil
}

// TxMerkleTree builds the tree over the IDs of the given transactions.
func TxMerkleTree(txs []*Transaction) (*MerkleTree, error) {
	leaves := make([]blockcrypto.Hash, len(txs))
	for i, tx := range txs {
		leaves[i] = tx.ID()
	}
	return newMerkleTree(leaves)
}

// Root returns the root hash of the tree.
func (t *MerkleTree) Root() blockcrypto.Hash {
	top := t.levels[len(t.levels)-1]
	return top[0]
}

// NumLeaves returns the number of leaves.
func (t *MerkleTree) NumLeaves() int {
	return len(t.levels[0])
}

// LeafIndex returns the position of leaf among the tree's leaves, the first
// if it repeats, or -1 when it is not one of them.
func (t *MerkleTree) LeafIndex(leaf blockcrypto.Hash) int {
	for i := range t.levels[0] {
		if t.levels[0][i] == leaf {
			return i
		}
	}
	return -1
}

// Size returns the bytes of hashes the tree retains, for cache accounting.
func (t *MerkleTree) Size() int {
	n := 0
	for _, level := range t.levels {
		n += len(level) * blockcrypto.HashSize
	}
	return n
}

// ProofStep is one sibling on the path from a leaf to the root.
type ProofStep struct {
	Sibling blockcrypto.Hash
	// Left reports whether the sibling is the left operand of HashPair.
	Left bool
}

// Proof is a Merkle membership proof for a single leaf.
type Proof struct {
	LeafIndex int
	Steps     []ProofStep
}

// EncodedSize returns the wire size of the proof: 4 bytes of index plus
// (hash + side byte) per step. Used by the communication cost accounting.
func (p Proof) EncodedSize() int {
	return 4 + len(p.Steps)*(blockcrypto.HashSize+1)
}

// Prove returns the membership proof for leaf index i.
func (t *MerkleTree) Prove(i int) (Proof, error) {
	if i < 0 || i >= t.NumLeaves() {
		return Proof{}, ErrLeafOutOfs
	}
	proof := Proof{LeafIndex: i}
	if depth := len(t.levels) - 1; depth > 0 {
		proof.Steps = make([]ProofStep, 0, depth) // a one-leaf tree's proof keeps nil steps
	}
	idx := i
	for _, level := range t.levels[:len(t.levels)-1] {
		sib := idx ^ 1
		if sib >= len(level) {
			sib = idx // duplicated trailing node
		}
		proof.Steps = append(proof.Steps, ProofStep{
			Sibling: level[sib],
			Left:    sib < idx,
		})
		idx /= 2
	}
	return proof, nil
}

// VerifyProof checks that leaf is a member of the tree with the given root
// under proof, at the proof's LeafIndex (checkPosition): a proof taken from
// another leaf of the same tree does not verify under a relabeled index.
func VerifyProof(root, leaf blockcrypto.Hash, proof Proof) error {
	if err := checkPosition(proof); err != nil {
		return err
	}
	h := leaf
	for _, s := range proof.Steps {
		if s.Left {
			h = blockcrypto.HashPair(s.Sibling, h)
		} else {
			h = blockcrypto.HashPair(h, s.Sibling)
		}
	}
	if h != root {
		return ErrProofInvalid
	}
	return nil
}

// checkPosition is the rule that ties a proof to its position: the steps'
// sides spell LeafIndex in binary, low bit first (step l's sibling is on the
// left exactly when bit l is set, as Prove writes it), and LeafIndex <
// 2^len(Steps). Without it a chunk could swap two of its transactions and
// their proofs, keep the labels, and still have every proof verify.
func checkPosition(p Proof) error {
	if len(p.Steps) > maxProofDepth {
		return ErrProofTooLarge
	}
	if p.LeafIndex < 0 || p.LeafIndex>>len(p.Steps) != 0 {
		return fmt.Errorf("%w: leaf index %d does not fit %d steps", ErrProofInvalid, p.LeafIndex, len(p.Steps))
	}
	for l, s := range p.Steps {
		if s.Left != (p.LeafIndex>>l&1 == 1) {
			return fmt.Errorf("%w: step %d is on the wrong side for leaf index %d", ErrProofInvalid, l, p.LeafIndex)
		}
	}
	return nil
}

// proofStepSize is the wire size of one step: the sibling hash plus the
// side byte.
const proofStepSize = blockcrypto.HashSize + 1

// AppendProof appends the wire form of p to buf:
//
//	varint leafIndex | uvarint steps | steps × (sibling(32) left(1))
func AppendProof(buf []byte, p Proof) []byte {
	buf = binary.AppendVarint(buf, int64(p.LeafIndex))
	buf = binary.AppendUvarint(buf, uint64(len(p.Steps)))
	for i := range p.Steps {
		buf = append(buf, p.Steps[i].Sibling[:]...)
		side := byte(0)
		if p.Steps[i].Left {
			side = 1
		}
		buf = append(buf, side)
	}
	return buf
}

// frameProof walks the framing of the proof at the front of data: its leaf
// index, its step count (checked against the bytes that follow, side bytes
// included) and its encoded size. Like frameTx it is the format's one
// parser; fillSteps copies what it accepted.
func frameProof(data []byte) (leaf int64, steps, size int, err error) {
	leaf, off := binary.Varint(data)
	if off <= 0 {
		return 0, 0, 0, ErrProofMalformed
	}
	count, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return 0, 0, 0, ErrProofMalformed
	}
	off += n
	if count > uint64(len(data)-off)/proofStepSize {
		return 0, 0, 0, fmt.Errorf("%w: %d steps declared in %d bytes", ErrProofMalformed, count, len(data)-off)
	}
	steps = int(count)
	size = off + steps*proofStepSize
	for at := off + blockcrypto.HashSize; at < size; at += proofStepSize {
		if data[at] > 1 {
			return 0, 0, 0, fmt.Errorf("%w: side byte %d", ErrProofMalformed, data[at])
		}
	}
	return leaf, steps, size, nil
}

// fillSteps decodes len(steps) encoded steps from the end of enc, the
// encoding of one proof frameProof accepted.
func fillSteps(steps []ProofStep, enc []byte) {
	enc = enc[len(enc)-len(steps)*proofStepSize:]
	for i := range steps {
		copy(steps[i].Sibling[:], enc)
		steps[i].Left = enc[blockcrypto.HashSize] == 1
		enc = enc[proofStepSize:]
	}
}

// DecodeProof parses one proof from the front of data and returns it with
// the number of bytes consumed. The proof owns its steps, and the steps it
// allocates are bounded by len(data), never by the declared count.
func DecodeProof(data []byte) (Proof, int, error) {
	leaf, steps, size, err := frameProof(data)
	if err != nil {
		return Proof{}, 0, err
	}
	p := Proof{LeafIndex: int(leaf)}
	if steps > 0 {
		p.Steps = make([]ProofStep, steps)
		fillSteps(p.Steps, data[:size])
	}
	return p, size, nil
}

// AppendProofs appends a count-prefixed list of proofs (see AppendProof).
func AppendProofs(buf []byte, ps []Proof) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ps)))
	for i := range ps {
		buf = AppendProof(buf, ps[i])
	}
	return buf
}

// DecodeProofs parses a list written by AppendProofs and returns it with
// the number of bytes consumed. A first walk validates the framing and
// counts the steps; the proofs then share one step array, each a sub-slice
// with its capacity capped. Like DecodeProof, it allocates no more than
// len(data) allows.
func DecodeProofs(data []byte) ([]Proof, int, error) {
	count, start := binary.Uvarint(data)
	if start <= 0 {
		return nil, 0, ErrProofMalformed
	}
	// The smallest proof is two bytes: index and step count.
	if count > uint64(len(data)-start)/2 {
		return nil, 0, fmt.Errorf("%w: %d proofs declared in %d bytes", ErrProofMalformed, count, len(data)-start)
	}
	if count == 0 {
		return nil, start, nil
	}
	off, total := start, 0
	for i := 0; i < int(count); i++ {
		_, steps, size, err := frameProof(data[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("proof %d: %w", i, err)
		}
		off += size
		total += steps
	}
	ps := make([]Proof, count)
	all := make([]ProofStep, total)
	off = start
	for i := range ps {
		leaf, steps, size, _ := frameProof(data[off:]) // accepted above
		ps[i].LeafIndex = int(leaf)
		if steps > 0 {
			ps[i].Steps, all = all[:steps:steps], all[steps:]
			fillSteps(ps[i].Steps, data[off:off+size])
		}
		off += size
	}
	return ps, off, nil
}
