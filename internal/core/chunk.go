package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/par"
	"icistrategy/internal/storage"
)

// This file is the chunk's rules, stated once: how a block splits into
// proven transaction groups, what an owner checks before it stores one, how
// groups become a block again and where a stored proof is found (who gains a
// chunk when the roster changes is EpochMap.MovesFrom). The simulator's
// Node, the TCP server and cluster client (internal/netx) and the gateway all
// call these; what they keep for themselves is how bytes move (DESIGN.md "One
// chunk, two drivers").

// ErrBadGroup marks a group whose shape is wrong before any hash or
// signature is looked at: proofs that do not pair up with transactions, or a
// proof claiming another position than the group's.
var ErrBadGroup = errors.New("core: malformed chunk")

// Group is one chunk of a block, decoded: a contiguous transaction group
// plus the Merkle proof of every transaction in it.
type Group struct {
	Index   int // chunk index within the block
	Parts   int // total chunks the block was split into
	TxStart int // block position of the first transaction in the group
	Txs     []*chain.Transaction
	Proofs  []chain.Proof // Proofs[i] proves Txs[i] under the header's Merkle root
}

// SplitBlock cuts a block into parts groups by SplitCounts, each
// transaction with its proof from one Merkle tree of the block. A block of
// fewer transactions than parts yields empty trailing groups, which are
// stored and served like any other.
func SplitBlock(b *chain.Block, parts int) ([]Group, error) {
	counts, err := SplitCounts(len(b.Txs), parts)
	if err != nil {
		return nil, err
	}
	tree, err := chain.TxMerkleTree(b.Txs)
	if err != nil {
		return nil, err
	}
	groups := make([]Group, parts)
	proofs := make([]chain.Proof, len(b.Txs))
	for i := range proofs {
		if proofs[i], err = tree.Prove(i); err != nil {
			return nil, err
		}
	}
	start := 0
	for idx, cnt := range counts {
		end := start + cnt
		groups[idx] = Group{Index: idx, Parts: parts, TxStart: start, Txs: b.Txs[start:end:end], Proofs: proofs[start:end:end]}
		start = end
	}
	return groups, nil
}

// DecodeGroup is the inverse of Encode plus the sidecar: data is a group's
// sub-body as stored and as carried by the TCP wire types.
func DecodeGroup(index, parts, txStart int, data []byte, proofs []chain.Proof) (Group, error) {
	txs, err := chain.DecodeBody(data)
	if err != nil {
		return Group{}, err
	}
	return Group{Index: index, Parts: parts, TxStart: txStart, Txs: txs, Proofs: proofs}, nil
}

// storedGroup decodes a stored chunk. A coded share has no transaction
// structure and is refused.
func storedGroup(c *storage.Chunk) (Group, error) {
	if c.CodedK > 0 {
		return Group{}, fmt.Errorf("%w: %s is a coded share", ErrBadGroup, c.ID)
	}
	return DecodeGroup(c.ID.Index, c.Parts, c.TxStart, c.Data, c.Proofs)
}

// Encode serializes the transaction group in the format of a block
// sub-body: what owners persist and what counts as stored bytes.
func (g *Group) Encode() []byte {
	sub := chain.Block{Txs: g.Txs}
	return sub.EncodeBody()
}

// Chunk is the value an owner stores for the group: data, which must be
// g.Encode() (a caller that received the bytes passes them on instead of
// encoding again), with the sidecar beside it.
func (g *Group) Chunk(block blockcrypto.Hash, data []byte) storage.Chunk {
	c := storage.NewChunk(storage.ChunkID{Block: block, Index: g.Index}, data)
	c.Parts, c.TxStart, c.Proofs = g.Parts, g.TxStart, g.Proofs
	return c
}

// Verify checks everything an owner can check about its share against the
// block's Merkle root: proofs pair up with transactions, every proof sits
// at the transaction's block position and leads to the root, and every
// signature is valid. The per-transaction checks fork-join over GOMAXPROCS;
// they read only the group, and the error returned is the lowest failing
// index's, as a sequential loop reports (DESIGN.md "Verification
// concurrency").
func (g *Group) Verify(root blockcrypto.Hash) error { return g.check(root, true) }

// Proves is the Merkle half of Verify, for a reader: the group is what the
// block committed to at that position. Signatures were checked when the
// group was stored, and a transaction that proves into the root is the one
// that was signed. Hashing a proof path is too little work to fork.
func (g *Group) Proves(root blockcrypto.Hash) error { return g.check(root, false) }

// ProvesChunk is a reader's whole check of one copy it was served as chunk
// idx of parts of hdr's block: the group stands where it was served
// (placed), and each transaction proves into the root. Proves alone passes a
// copy cut short with its matching proofs; the block then breaks its root
// with no copy to blame.
func (g *Group) ProvesChunk(hdr chain.Header, parts, idx int) error {
	if err := placed(hdr, parts, idx, g.Index, g.Parts, g.TxStart, len(g.Txs)); err != nil {
		return err
	}
	return g.Proves(hdr.MerkleRoot)
}

// placed is the position rule every reader of a block applies to a copy
// served as chunk idx of parts of hdr's block, before anything of it is
// hashed: the copy says it is chunk idx of parts, and it holds exactly the
// transactions the split puts there — count of them from txStart, the
// header's count cut by ChunkRange. It refuses a missing, repeated or
// misplaced chunk, one cut for another part count (a block read under the
// wrong membership), and one whose cut was moved: two copies that trade a
// transaction across their boundary still join into the right block, and a
// reader that kept them would pair each later with an honest neighbour.
func placed(hdr chain.Header, parts, idx, index, ofParts, txStart, count int) error {
	start, end, err := ChunkRange(int(hdr.TxCount), parts, idx)
	if err != nil {
		return err
	}
	if index != idx || ofParts != parts || txStart != start || count != end-start {
		return fmt.Errorf("%w: position %d of %d holds chunk %d of %d with txs [%d,%d), want txs [%d,%d)",
			ErrBadGroup, idx, parts, index, ofParts, txStart, txStart+count, start, end)
	}
	return nil
}

func (g *Group) check(root blockcrypto.Hash, sigs bool) error {
	if len(g.Txs) != len(g.Proofs) {
		return fmt.Errorf("%w: %d txs with %d proofs", ErrBadGroup, len(g.Txs), len(g.Proofs))
	}
	workers := 1
	if sigs {
		workers = 0
	}
	errs := make([]error, len(g.Txs))
	par.Each(len(g.Txs), workers, func(i int) { errs[i] = g.checkTx(root, i, sigs) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// checkTx checks transaction i of the group: position, proof and, for an
// owner, signature.
func (g *Group) checkTx(root blockcrypto.Hash, i int, sigs bool) error {
	if g.Proofs[i].LeafIndex != g.TxStart+i {
		return fmt.Errorf("%w: proof %d has leaf index %d, want %d", ErrBadGroup, i, g.Proofs[i].LeafIndex, g.TxStart+i)
	}
	if err := chain.VerifyProof(root, g.Txs[i].ID(), g.Proofs[i]); err != nil {
		return fmt.Errorf("core: tx %d proof: %w", g.TxStart+i, err)
	}
	if !sigs {
		return nil
	}
	if err := g.Txs[i].VerifySignature(); err != nil {
		return fmt.Errorf("core: tx %d: %w", g.TxStart+i, err)
	}
	return nil
}

// Reassemble rebuilds the block of hdr from its groups, groups[i] being
// chunk i of len(groups), and verifies it against the header's Merkle root.
// A group that is not where the split puts it (placed) is refused before
// anything is hashed. The Merkle tree the check built comes back with the
// block (chain.Block.VerifiedTree), for a caller that will serve proofs of
// it.
func Reassemble(hdr chain.Header, groups []Group) (*chain.Block, *chain.MerkleTree, error) {
	total := 0
	for i := range groups {
		g := &groups[i]
		if err := placed(hdr, len(groups), i, g.Index, g.Parts, g.TxStart, len(g.Txs)); err != nil {
			return nil, nil, err
		}
		total += len(g.Txs)
	}
	txs := make([]*chain.Transaction, 0, total)
	for i := range groups {
		txs = append(txs, groups[i].Txs...)
	}
	b := &chain.Block{Header: hdr, Txs: txs}
	tree, err := b.VerifiedTree()
	if err != nil {
		return nil, nil, err
	}
	return b, tree, nil
}

// ReassembleEncoding is Reassemble for copies still in the form they are
// stored and served in, and it decodes nothing: copyAt(i) is the copy at
// position i of parts, its index, part count and TxStart, and its group's
// sub-body (Group.Encode). The position rule is Reassemble's (placed), with
// the count each sub-body declares; the sub-bodies are then checked against
// the header's root where they lie (chain.Header.VerifiedBodyTree), each one
// framed on its own as DecodeGroup would, and joined into the block's
// encoding (chain.Block.Encode). The encoding comes back with the Merkle
// tree the check built.
func ReassembleEncoding(hdr chain.Header, parts int, copyAt func(i int) (index, ofParts, txStart int, body []byte)) ([]byte, *chain.MerkleTree, error) {
	bodies := make([][]byte, parts)
	size := chain.HeaderSize + 4
	for i := range bodies {
		index, ofParts, txStart, body := copyAt(i)
		count, err := chain.BodyTxCount(body)
		if err != nil {
			return nil, nil, fmt.Errorf("core: chunk %d: %w", i, err)
		}
		if err := placed(hdr, parts, i, index, ofParts, txStart, count); err != nil {
			return nil, nil, err
		}
		bodies[i] = body
		size += len(body) - 4
	}
	tree, err := hdr.VerifiedBodyTree(bodies...)
	if err != nil {
		return nil, nil, err
	}
	enc := hdr.AppendTo(make([]byte, 0, size))
	enc = binary.BigEndian.AppendUint32(enc, hdr.TxCount)
	for _, body := range bodies {
		enc = append(enc, body[4:]...)
	}
	return enc, tree, nil
}

// StoredTxProof scans the chunks st holds of a block for the transaction
// and returns it with its stored Merkle proof (Header left to the caller):
// the light-client answer, which no member needs the whole block for. Each
// chunk is read in place (storage.Store.LendChunk: its digest is checked, a
// damaged one is skipped) and its transactions are hashed where they lie;
// only the one found is decoded.
func StoredTxProof(st *storage.Store, block, txID blockcrypto.Hash) (TxProof, bool) {
	var p TxProof
	found := false
	for _, idx := range st.ChunksForBlock(block) {
		_ = st.LendChunk(storage.ChunkID{Block: block, Index: idx}, func(c storage.Chunk) {
			if c.CodedK > 0 {
				return // a coded share has no transaction structure
			}
			tx, at, err := chain.FindTx(c.Data, txID)
			if err == nil && at >= 0 && at < len(c.Proofs) {
				p, found = TxProof{Tx: tx, Proof: c.Proofs[at]}, true
			}
		}) // a damaged chunk is skipped: another member holds it
		if found {
			return p, true
		}
	}
	return TxProof{}, false
}
