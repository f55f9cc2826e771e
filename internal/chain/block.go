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
	return b.appendBody(b.Header.AppendTo(make([]byte, 0, HeaderSize+b.BodySize())))
}

// minTxEncodedSize is the smallest possible encoded transaction: fixed
// fields plus empty payload, key, and signature. It bounds the declared
// transaction count of a body against its actual length, so a corrupt or
// hostile count prefix cannot trigger a giant allocation.
const minTxEncodedSize = txFixedSize + 4 + 2 + 2

// BodyTxCount returns the transaction count an encoded body (see
// EncodeBody) declares, once its length could hold that many: the first step
// of every walk of a body, for a reader that checks where a body belongs
// before it hashes anything of it.
func BodyTxCount(data []byte) (int, error) {
	if len(data) < 4 {
		return 0, ErrBlockTruncated
	}
	count := int(binary.BigEndian.Uint32(data))
	if count*minTxEncodedSize > len(data)-4 {
		return 0, fmt.Errorf("%w: %d txs declared in %d bytes", ErrBlockTruncated, count, len(data))
	}
	return count, nil
}

// walkBody is the one walk over an encoded body's framing: frameTx on each
// transaction in turn, and fn handed its position and its encoded bytes,
// which are data's own. It accepts exactly the bodies DecodeBody accepts, and
// fn has seen every transaction when it returns nil. A transaction's ID is
// the SHA-256 of exactly those bytes, so a reader can hash a body where it
// lies instead of decoding it.
func walkBody(data []byte, fn func(i int, tx []byte)) error {
	count, err := BodyTxCount(data)
	if err != nil {
		return err
	}
	off := 4
	for i := 0; i < count; i++ {
		f, err := frameTx(data[off:])
		if err != nil {
			return fmt.Errorf("tx %d: %w", i, err)
		}
		fn(i, data[off:off+f.size()])
		off += f.size()
	}
	if off != len(data) {
		return fmt.Errorf("chain: %d trailing bytes after body", len(data)-off)
	}
	return nil
}

// DecodeBody parses a transaction body produced by EncodeBody. It walks the
// framing once to validate it and size the result, then fills three
// allocations whatever the count: the transactions, the pointers to them,
// and one buffer of exactly the variable-length bytes. The result owns all
// three and nothing of data (DESIGN.md "What a decoded value owns").
func DecodeBody(data []byte) ([]*Transaction, error) {
	count, varBytes := 0, 0
	if err := walkBody(data, func(_ int, tx []byte) {
		count++
		varBytes += len(tx) - minTxEncodedSize
	}); err != nil {
		return nil, err
	}
	slab := make([]Transaction, count)
	txs := make([]*Transaction, count)
	buf := make([]byte, varBytes)
	off := 4
	for i := range slab {
		f, _ := frameTx(data[off:]) // accepted above
		buf = slab[i].fill(data[off:], f, buf)
		txs[i] = &slab[i]
		off += f.size()
	}
	return txs, nil
}

// FindTx looks for the transaction with the given ID in an encoded body by
// hashing each transaction's bytes where they lie, and decodes only the one
// it finds: that transaction and its position, or nil and -1 when the body
// does not hold it. It fails where DecodeBody fails.
func FindTx(body []byte, id blockcrypto.Hash) (*Transaction, int, error) {
	return findTx(body, func(_ int, tx []byte) bool { return blockcrypto.Sum256(tx) == id })
}

// TxAt decodes transaction i of an encoded body and no other: the framing
// is walked to it, nothing is hashed. It fails where DecodeBody fails, and
// with ErrLeafOutOfs when the body holds no transaction i.
func TxAt(body []byte, i int) (*Transaction, error) {
	tx, at, err := findTx(body, func(j int, _ []byte) bool { return j == i })
	if err == nil && at < 0 {
		err = fmt.Errorf("%w: transaction %d", ErrLeafOutOfs, i)
	}
	return tx, err
}

// findTx decodes the first transaction of an encoded body that match
// accepts, once the whole body has been walked.
func findTx(body []byte, match func(i int, tx []byte) bool) (*Transaction, int, error) {
	at, found := -1, []byte(nil)
	if err := walkBody(body, func(i int, tx []byte) {
		if at < 0 && match(i, tx) {
			at, found = i, tx
		}
	}); err != nil || at < 0 {
		return nil, -1, err
	}
	tx, _, err := DecodeTransaction(found)
	return tx, at, err
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
	if err := b.Header.checkCount(len(b.Txs)); err != nil {
		return nil, err
	}
	tree, err := TxMerkleTree(b.Txs)
	if err != nil {
		return nil, err
	}
	return b.Header.checkRoot(tree)
}

// VerifiedBodyTree is VerifiedTree for the header's block while its body is
// still encoded, in one piece or in several: bodies are encoded bodies (see
// EncodeBody) whose transactions, in order, are the block's. Each is walked
// on its own and must be one DecodeBody accepts; each transaction is hashed
// where it lies, and nothing is decoded.
func (h *Header) VerifiedBodyTree(bodies ...[]byte) (*MerkleTree, error) {
	count := 0
	for i, body := range bodies {
		n, err := BodyTxCount(body)
		if err != nil {
			return nil, fmt.Errorf("body %d: %w", i, err)
		}
		count += n
	}
	if err := h.checkCount(count); err != nil {
		return nil, err
	}
	tree, err := bodyTree(count, bodies)
	if err != nil {
		return nil, err
	}
	return h.checkRoot(tree)
}

// bodyTree builds the Merkle tree of the transactions of bodies, count of
// them in all, each leaf the SHA-256 of a transaction's bytes where they lie.
func bodyTree(count int, bodies [][]byte) (*MerkleTree, error) {
	leaves := make([]blockcrypto.Hash, 0, count)
	for i, body := range bodies {
		if err := walkBody(body, func(_ int, tx []byte) { leaves = append(leaves, blockcrypto.Sum256(tx)) }); err != nil {
			return nil, fmt.Errorf("body %d: %w", i, err)
		}
	}
	return newMerkleTree(leaves)
}

// checkCount refuses a body of count transactions for the header before
// anything of it is hashed.
func (h *Header) checkCount(count int) error {
	if count == 0 {
		return ErrBlockEmptyBody
	}
	if int(h.TxCount) != count {
		return fmt.Errorf("%w: header says %d txs, body has %d", ErrBlockBadRoot, h.TxCount, count)
	}
	return nil
}

// checkRoot returns tree when its root is the header's.
func (h *Header) checkRoot(tree *MerkleTree) (*MerkleTree, error) {
	if tree.Root() != h.MerkleRoot {
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
