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
// stored chunks become a block again and where a stored proof is found (what
// a roster change moves is EpochMap.MovesTo). The
// simulator's Node, the TCP server and cluster client (internal/netx) and
// the gateway all call these; what they keep for themselves is how bytes
// move (DESIGN.md "One chunk, two drivers").

// ErrBadGroup marks a group whose shape is wrong before any hash or
// signature is looked at: bytes that do not decode, a group not cut where
// the split cuts (placed), proofs that do not pair up with transactions, or
// a proof claiming another position than the group's.
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

// Encode serializes the transaction group in the format of a block
// sub-body: what owners persist and what counts as stored bytes.
func (g *Group) Encode() []byte {
	sub := chain.Block{Txs: g.Txs}
	return sub.EncodeBody()
}

// Chunk is the value an owner stores for the group: data, which must be
// g.Encode() (AdoptChunk, which received the bytes, passes them on instead
// of encoding again), with the sidecar beside it.
func (g *Group) Chunk(block blockcrypto.Hash, data []byte) storage.Chunk {
	c := storage.NewChunk(storage.ChunkID{Block: block, Index: g.Index}, data)
	c.Parts, c.TxStart, c.Proofs = g.Parts, g.TxStart, g.Proofs
	return c
}

// Verify checks everything an owner can check about its share of hdr's
// block: the group holds exactly the transactions the split puts at its own
// index of its own part count (placed, the rule every reader applies too),
// proofs pair up with transactions, every proof sits at the transaction's
// block position and leads to the header's Merkle root, and every signature
// is valid. The per-transaction checks fork-join over GOMAXPROCS; they read
// only the group, and the error returned is the lowest failing index's, as a
// sequential loop reports (DESIGN.md "Verification concurrency").
func (g *Group) Verify(hdr chain.Header) error {
	if err := placed(hdr, g.Parts, g.Index, g.Index, g.Parts, g.TxStart, len(g.Txs)); err != nil {
		return err
	}
	return g.check(hdr.MerkleRoot, true)
}

// AdoptChunk is the owner's check of a chunk it receives for hdr's block,
// which always arrives as the bytes it is stored in — a share or a fetch
// answer in the simulator, a put over TCP: data, a group's
// sub-body (Group.Encode), is decoded with its sidecar and put through
// Group.Verify. What comes back is the value to store, built from the bytes
// received. A chunk that does not decode is malformed (ErrBadGroup).
func AdoptChunk(hdr chain.Header, index, parts, txStart int, data []byte, proofs []chain.Proof) (storage.Chunk, error) {
	g, err := DecodeGroup(index, parts, txStart, data, proofs)
	if err != nil {
		return storage.Chunk{}, fmt.Errorf("%w: %w", ErrBadGroup, err)
	}
	if err := g.Verify(hdr); err != nil {
		return storage.Chunk{}, err
	}
	return g.Chunk(hdr.Hash(), data), nil
}

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
// hashed — and an owner to a group at its own index of its own part count
// (Group.Verify): the copy says it is chunk idx of parts, and it holds
// exactly the transactions the split puts there — count of them from
// txStart, the header's count cut by ChunkRange. It refuses a missing,
// repeated or misplaced chunk, one cut for another part count (a block read
// under the wrong membership), one cut short, and one whose cut was moved:
// two copies that trade a transaction across their boundary still join
// into the right block, and a reader that kept them would pair each later
// with an honest neighbour.
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

// ReassembleEncoding rebuilds the block of hdr from its chunks in the form
// they are stored and served in, and it decodes nothing: copyAt(i) is the
// copy at position i of parts, its index, part count and TxStart, and its
// group's sub-body (Group.Encode). A copy that is not where the split puts
// it (placed, with the count its sub-body declares) is refused before
// anything is hashed; the sub-bodies are then checked against the header's
// root where they lie (chain.Header.VerifiedBodyTree), each one framed on
// its own as DecodeGroup would, and joined into the block's encoding
// (chain.Block.Encode). The encoding comes back with the Merkle tree the
// check built, for a caller that will serve proofs of it.
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
// and returns it with its Merkle proof (Header left to the caller): the
// light-client answer, which no member needs the whole block for. Each
// chunk is read in place (storage.Store.LendChunk: its digest is checked, a
// damaged one is skipped) and its transactions are hashed where they lie;
// only the one found is decoded, and only the chunk that holds it is read
// again with the proofs the store rebuilds.
func StoredTxProof(st *storage.Store, block, txID blockcrypto.Hash) (TxProof, bool) {
	for _, idx := range st.ChunksForBlock(block) {
		id := storage.ChunkID{Block: block, Index: idx}
		var tx *chain.Transaction
		at := -1
		_ = st.LendChunk(id, false, func(c storage.Chunk) {
			if c.CodedK == 0 { // a coded share has no transaction structure
				tx, at, _ = chain.FindTx(c.Data, txID) // at < 0 unless found
			}
		}) // a damaged chunk is skipped: another member holds it
		if at < 0 {
			continue
		}
		var p TxProof
		found := false
		_ = st.LendChunk(id, true, func(c storage.Chunk) {
			if at < len(c.Proofs) {
				p, found = TxProof{Tx: tx, Proof: c.Proofs[at]}, true
			}
		})
		if found {
			return p, true
		}
	}
	return TxProof{}, false
}
