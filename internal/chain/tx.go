// Package chain implements the blockchain data model used by every storage
// strategy in this repository: signed transactions, Merkle trees with
// membership proofs, and blocks. The encodings are deterministic, length-prefixed binary so that
// hashes and storage accounting are stable across runs.
package chain

import (
	"encoding/binary"
	"errors"
	"fmt"

	"icistrategy/internal/blockcrypto"
)

// Transaction errors.
var (
	ErrTxBadSignature = errors.New("chain: transaction signature invalid")
	ErrTxTruncated    = errors.New("chain: transaction encoding truncated")
	ErrTxZeroAmount   = errors.New("chain: transaction amount must be positive")
	ErrTxSelfTransfer = errors.New("chain: sender and recipient are identical")
)

// AccountID identifies an account: the hash of its public key.
type AccountID = blockcrypto.Hash

// Transaction is a signed value transfer between two accounts, with an
// optional opaque payload to model non-trivial transaction sizes.
type Transaction struct {
	From      AccountID
	To        AccountID
	Amount    uint64
	Nonce     uint64 // per-sender sequence number, for replay protection
	Fee       uint64
	Payload   []byte
	PublicKey []byte // sender's Ed25519 public key
	Signature []byte
}

// SigningBytes returns the canonical byte string covered by the signature:
// every field except PublicKey and Signature.
func (tx *Transaction) SigningBytes() []byte {
	return tx.appendSigningBytes(make([]byte, 0, 2*blockcrypto.HashSize+24+len(tx.Payload)))
}

func (tx *Transaction) appendSigningBytes(buf []byte) []byte {
	buf = append(buf, tx.From[:]...)
	buf = append(buf, tx.To[:]...)
	buf = binary.BigEndian.AppendUint64(buf, tx.Amount)
	buf = binary.BigEndian.AppendUint64(buf, tx.Nonce)
	buf = binary.BigEndian.AppendUint64(buf, tx.Fee)
	buf = append(buf, tx.Payload...)
	return buf
}

// Sign populates PublicKey and Signature using key, which must belong to the
// From account.
func (tx *Transaction) Sign(key blockcrypto.KeyPair) {
	tx.PublicKey = append([]byte(nil), key.Public...)
	tx.Signature = key.Sign(tx.SigningBytes())
}

// ID returns the content address of the encoded transaction.
func (tx *Transaction) ID() blockcrypto.Hash {
	var scratch [txScratchSize]byte
	return blockcrypto.Sum256(tx.AppendTo(scratch[:0]))
}

// txScratchSize is the stack buffer ID and VerifySignature encode into, so
// that checking a transaction of ordinary size allocates nothing; a larger
// one grows onto the heap.
const txScratchSize = 512

// VerifySignature checks structural sanity and that Signature is a valid
// signature of SigningBytes under PublicKey, and that PublicKey hashes to
// the From account.
func (tx *Transaction) VerifySignature() error {
	if tx.Amount == 0 {
		return ErrTxZeroAmount
	}
	if tx.From == tx.To {
		return ErrTxSelfTransfer
	}
	if blockcrypto.PublicKeyHash(tx.PublicKey) != tx.From {
		return fmt.Errorf("%w: public key does not hash to sender account", ErrTxBadSignature)
	}
	var scratch [txScratchSize]byte
	if err := blockcrypto.Verify(tx.PublicKey, tx.appendSigningBytes(scratch[:0]), tx.Signature); err != nil {
		return fmt.Errorf("%w: %v", ErrTxBadSignature, err)
	}
	return nil
}

// Encode serializes the transaction to the canonical binary form:
//
//	from(32) to(32) amount(8) nonce(8) fee(8)
//	payloadLen(4) payload pubKeyLen(2) pubKey sigLen(2) sig
func (tx *Transaction) Encode() []byte {
	return tx.AppendTo(make([]byte, 0, tx.EncodedSize()))
}

// AppendTo appends the canonical encoding (see Encode) to buf.
func (tx *Transaction) AppendTo(buf []byte) []byte {
	buf = append(buf, tx.From[:]...)
	buf = append(buf, tx.To[:]...)
	buf = binary.BigEndian.AppendUint64(buf, tx.Amount)
	buf = binary.BigEndian.AppendUint64(buf, tx.Nonce)
	buf = binary.BigEndian.AppendUint64(buf, tx.Fee)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(tx.Payload)))
	buf = append(buf, tx.Payload...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(tx.PublicKey)))
	buf = append(buf, tx.PublicKey...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(tx.Signature)))
	buf = append(buf, tx.Signature...)
	return buf
}

// EncodedSize returns len(tx.Encode()) without allocating.
func (tx *Transaction) EncodedSize() int {
	return minTxEncodedSize + len(tx.Payload) + len(tx.PublicKey) + len(tx.Signature)
}

// txFrame is the framing of one encoded transaction: the lengths of its
// three variable-length fields, which fix where everything sits.
type txFrame struct {
	payload, pubKey, sig int
}

// varBytes is the number of bytes a decoded copy of the fields owns.
func (f txFrame) varBytes() int { return f.payload + f.pubKey + f.sig }

// size is the encoded size of the whole transaction.
func (f txFrame) size() int { return minTxEncodedSize + f.varBytes() }

// txFixedSize is the encoded size of From, To, Amount, Nonce and Fee.
const txFixedSize = 2*blockcrypto.HashSize + 24

// frameTx walks the framing of the transaction at the front of data. It is
// the one parser of the format: decoding is frameTx, then Transaction.fill
// into memory sized from what it found.
func frameTx(data []byte) (txFrame, error) {
	var f txFrame
	if len(data) < txFixedSize+4 {
		return f, ErrTxTruncated
	}
	off := txFixedSize
	f.payload = int(binary.BigEndian.Uint32(data[off:]))
	off += 4 + f.payload
	if len(data) < off+2 {
		return f, ErrTxTruncated
	}
	f.pubKey = int(binary.BigEndian.Uint16(data[off:]))
	off += 2 + f.pubKey
	if len(data) < off+2 {
		return f, ErrTxTruncated
	}
	f.sig = int(binary.BigEndian.Uint16(data[off:]))
	if len(data) < off+2+f.sig {
		return f, ErrTxTruncated
	}
	return f, nil
}

// fill sets tx from the transaction at the front of data, which frameTx
// framed as f, copying the variable-length fields into the front of buf, and
// returns what is left of buf (the caller sized it from varBytes). Each
// field's capacity is capped at its length, so appending to one reallocates
// instead of reaching the next; a zero-length field stays nil.
func (tx *Transaction) fill(data []byte, f txFrame, buf []byte) []byte {
	copy(tx.From[:], data)
	copy(tx.To[:], data[blockcrypto.HashSize:])
	nums := data[2*blockcrypto.HashSize:]
	tx.Amount = binary.BigEndian.Uint64(nums)
	tx.Nonce = binary.BigEndian.Uint64(nums[8:])
	tx.Fee = binary.BigEndian.Uint64(nums[16:])
	off := txFixedSize + 4
	tx.Payload, buf = carve(buf, data[off:off+f.payload])
	off += f.payload + 2
	tx.PublicKey, buf = carve(buf, data[off:off+f.pubKey])
	off += f.pubKey + 2
	tx.Signature, buf = carve(buf, data[off:off+f.sig])
	return buf
}

// carve copies src into the front of buf and returns the copy, capacity
// capped, with the rest of buf.
func carve(buf, src []byte) (field, rest []byte) {
	if len(src) == 0 {
		return nil, buf
	}
	n := copy(buf, src)
	return buf[:n:n], buf[n:]
}

// DecodeTransaction parses one transaction from the front of data and
// returns it along with the number of bytes consumed. The transaction owns
// its bytes: one buffer holds its three variable-length fields.
func DecodeTransaction(data []byte) (*Transaction, int, error) {
	f, err := frameTx(data)
	if err != nil {
		return nil, 0, err
	}
	tx := new(Transaction)
	tx.fill(data, f, make([]byte, f.varBytes()))
	return tx, f.size(), nil
}
