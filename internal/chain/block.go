package chain

import (
	"encoding/binary"
	"errors"
	"fmt"

	"icistrategy/internal/blockcrypto"
)

// Block errors.
var (
	ErrBlockTruncated   = errors.New("chain: block encoding truncated")
	ErrBlockEmptyBody   = errors.New("chain: block has no transactions")
	ErrBlockBadRoot     = errors.New("chain: merkle root does not match body")
	ErrBlockBadParent   = errors.New("chain: previous-hash does not match parent")
	ErrBlockBadHeight   = errors.New("chain: height does not follow parent")
	ErrBlockInTheFuture = errors.New("chain: block timestamp precedes parent")
	ErrNotFromGenesis   = errors.New("chain: header chain does not start at genesis")
)

// HeaderSize is the fixed encoded size of a block header in bytes. Headers
// are what every node stores regardless of strategy, so their size matters
// for the storage accounting.
const HeaderSize = 8 + blockcrypto.HashSize + blockcrypto.HashSize + 8 + 8 + 4

// Header is the fixed-size summary of a block that every participant keeps.
type Header struct {
	Height     uint64
	PrevHash   blockcrypto.Hash
	MerkleRoot blockcrypto.Hash
	TimeMillis uint64 // virtual simulation time of block production
	Proposer   uint64 // producing node ID
	TxCount    uint32
}

// Encode serializes the header into its canonical HeaderSize bytes.
func (h *Header) Encode() []byte {
	return h.AppendTo(make([]byte, 0, HeaderSize))
}

// AppendTo appends the canonical HeaderSize-byte encoding to buf.
func (h *Header) AppendTo(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, h.Height)
	buf = append(buf, h.PrevHash[:]...)
	buf = append(buf, h.MerkleRoot[:]...)
	buf = binary.BigEndian.AppendUint64(buf, h.TimeMillis)
	buf = binary.BigEndian.AppendUint64(buf, h.Proposer)
	buf = binary.BigEndian.AppendUint32(buf, h.TxCount)
	return buf
}

// DecodeHeader parses a header from data.
func DecodeHeader(data []byte) (Header, error) {
	var h Header
	if len(data) < HeaderSize {
		return h, ErrBlockTruncated
	}
	off := 0
	h.Height = binary.BigEndian.Uint64(data[off:])
	off += 8
	copy(h.PrevHash[:], data[off:])
	off += blockcrypto.HashSize
	copy(h.MerkleRoot[:], data[off:])
	off += blockcrypto.HashSize
	h.TimeMillis = binary.BigEndian.Uint64(data[off:])
	off += 8
	h.Proposer = binary.BigEndian.Uint64(data[off:])
	off += 8
	h.TxCount = binary.BigEndian.Uint32(data[off:])
	return h, nil
}

// Hash returns the content address of the header, which identifies the
// whole block (the Merkle root commits to the body).
func (h *Header) Hash() blockcrypto.Hash {
	var scratch [HeaderSize]byte
	return blockcrypto.Sum256(h.AppendTo(scratch[:0]))
}

// Block is a header plus its transaction body.
type Block struct {
	Header Header
	Txs    []*Transaction
}

// NewBlock assembles a block at the given height on top of prev (ZeroHash
// for genesis), computing the Merkle root from txs.
func NewBlock(height uint64, prev blockcrypto.Hash, txs []*Transaction, timeMillis, proposer uint64) (*Block, error) {
	if len(txs) == 0 {
		return nil, ErrBlockEmptyBody
	}
	tree, err := TxMerkleTree(txs)
	if err != nil {
		return nil, err
	}
	return &Block{
		Header: Header{
			Height:     height,
			PrevHash:   prev,
			MerkleRoot: tree.Root(),
			TimeMillis: timeMillis,
			Proposer:   proposer,
			TxCount:    uint32(len(txs)),
		},
		Txs: txs,
	}, nil
}

// Hash returns the block's identifier (the header hash).
func (b *Block) Hash() blockcrypto.Hash {
	return b.Header.Hash()
}

// EncodeBody serializes only the transaction body: txCount(4) then each
// encoded transaction. The body is what strategies chunk and distribute.
func (b *Block) EncodeBody() []byte {
	return b.appendBody(make([]byte, 0, b.BodySize()))
}

func (b *Block) appendBody(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b.Txs)))
	for _, tx := range b.Txs {
		buf = tx.AppendTo(buf)
	}
	return buf
}

// BodySize returns len(b.EncodeBody()) without allocating.
func (b *Block) BodySize() int {
	n := 4
	for _, tx := range b.Txs {
		n += tx.EncodedSize()
	}
	return n
}

// Encode serializes header followed by body.
func (b *Block) Encode() []byte {
	return b.AppendTo(make([]byte, 0, HeaderSize+b.BodySize()))
}

// AppendTo appends the block's encoding (see Encode) to buf.
func (b *Block) AppendTo(buf []byte) []byte {
	return b.appendBody(b.Header.AppendTo(buf))
}

// minTxEncodedSize is the smallest possible encoded transaction: fixed
// fields plus empty payload, key, and signature. It bounds the declared
// transaction count of a body against its actual length, so a corrupt or
// hostile count prefix cannot trigger a giant allocation.
const minTxEncodedSize = txFixedSize + 4 + 2 + 2

// DecodeBody parses a transaction body produced by EncodeBody. It walks the
// framing once to validate it and size the result, then fills three
// allocations whatever the count: the transactions, the pointers to them,
// and one buffer of exactly the variable-length bytes. The result owns all
// three and nothing of data (DESIGN.md "What a decoded value owns").
func DecodeBody(data []byte) ([]*Transaction, error) {
	if len(data) < 4 {
		return nil, ErrBlockTruncated
	}
	count := int(binary.BigEndian.Uint32(data))
	if count*minTxEncodedSize > len(data)-4 {
		return nil, fmt.Errorf("%w: %d txs declared in %d bytes", ErrBlockTruncated, count, len(data))
	}
	off, varBytes := 4, 0
	for i := 0; i < count; i++ {
		f, err := frameTx(data[off:])
		if err != nil {
			return nil, fmt.Errorf("tx %d: %w", i, err)
		}
		off += f.size()
		varBytes += f.varBytes()
	}
	if off != len(data) {
		return nil, fmt.Errorf("chain: %d trailing bytes after body", len(data)-off)
	}
	slab := make([]Transaction, count)
	txs := make([]*Transaction, count)
	buf := make([]byte, varBytes)
	off = 4
	for i := range slab {
		f, _ := frameTx(data[off:]) // accepted above
		buf = slab[i].fill(data[off:], f, buf)
		txs[i] = &slab[i]
		off += f.size()
	}
	return txs, nil
}

// DecodeBlock parses a full block produced by Encode.
func DecodeBlock(data []byte) (*Block, error) {
	h, err := DecodeHeader(data)
	if err != nil {
		return nil, err
	}
	txs, err := DecodeBody(data[HeaderSize:])
	if err != nil {
		return nil, err
	}
	return &Block{Header: h, Txs: txs}, nil
}

// VerifyShape checks the block's internal consistency: non-empty body,
// TxCount agreement, and Merkle root matching the body. It does not check
// balances or nonces.
func (b *Block) VerifyShape() error {
	_, err := b.VerifiedTree()
	return err
}

// VerifiedTree is VerifyShape for a caller that goes on to cut proofs: it
// returns the Merkle tree the check built, whose root is the header's, so a
// proof from it verifies against the header with no second check.
func (b *Block) VerifiedTree() (*MerkleTree, error) {
	if len(b.Txs) == 0 {
		return nil, ErrBlockEmptyBody
	}
	if int(b.Header.TxCount) != len(b.Txs) {
		return nil, fmt.Errorf("%w: header says %d txs, body has %d", ErrBlockBadRoot, b.Header.TxCount, len(b.Txs))
	}
	tree, err := TxMerkleTree(b.Txs)
	if err != nil {
		return nil, err
	}
	if tree.Root() != b.Header.MerkleRoot {
		return nil, ErrBlockBadRoot
	}
	return tree, nil
}

// VerifyLink checks that b correctly extends parent.
func (b *Block) VerifyLink(parent *Header) error {
	if b.Header.PrevHash != parent.Hash() {
		return ErrBlockBadParent
	}
	if b.Header.Height != parent.Height+1 {
		return ErrBlockBadHeight
	}
	if b.Header.TimeMillis < parent.TimeMillis {
		return ErrBlockInTheFuture
	}
	return nil
}

// VerifyHeaderChain checks a header list is a chain from genesis: the first
// header is at height 0 on the zero hash, and each later one extends the one
// before it (VerifyLink). An empty list is a chain.
func VerifyHeaderChain(headers []Header) error {
	if len(headers) > 0 && (headers[0].Height != 0 || !headers[0].PrevHash.IsZero()) {
		return ErrNotFromGenesis
	}
	for i := 1; i < len(headers); i++ {
		b := Block{Header: headers[i]}
		if err := b.VerifyLink(&headers[i-1]); err != nil {
			return fmt.Errorf("header %d: %w", i, err)
		}
	}
	return nil
}
