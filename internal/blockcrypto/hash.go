// Package blockcrypto provides the cryptographic primitives used throughout
// the ICIStrategy implementation: SHA-256 content addressing and Ed25519
// signatures with deterministic key derivation for reproducible simulations.
//
// Everything in this package is a thin, allocation-conscious wrapper around
// the Go standard library; no third-party cryptography is used.
package blockcrypto

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// HashSize is the size in bytes of a Hash.
const HashSize = sha256.Size

// Hash is a SHA-256 digest used as a content address for transactions,
// blocks, and chunks. The zero value is the "null hash" and is never the
// digest of real content in practice.
type Hash [HashSize]byte

// ZeroHash is the all-zero hash, used as the previous-block pointer of a
// genesis block.
var ZeroHash Hash

// Sum256 hashes data with SHA-256.
func Sum256(data []byte) Hash {
	return sha256.Sum256(data)
}

// SumConcat hashes the concatenation of the given byte slices without
// materializing the concatenation.
func SumConcat(parts ...[]byte) Hash {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	var out Hash
	h.Sum(out[:0])
	return out
}

// HashPair hashes the concatenation of two hashes. It is the interior-node
// combiner for Merkle trees.
func HashPair(a, b Hash) Hash {
	h := sha256.New()
	h.Write(a[:])
	h.Write(b[:])
	var out Hash
	h.Sum(out[:0])
	return out
}

// IsZero reports whether h is the all-zero hash.
func (h Hash) IsZero() bool {
	return h == ZeroHash
}

// String returns the full lowercase hex encoding of the hash.
func (h Hash) String() string {
	return hex.EncodeToString(h[:])
}

// Short returns the first 8 hex characters, for logs and tables.
func (h Hash) Short() string {
	return hex.EncodeToString(h[:4])
}

// Uint64 folds the first 8 bytes of the hash into a uint64. It is used for
// rendezvous hashing and deterministic pseudo-random placement decisions.
func (h Hash) Uint64() uint64 {
	return binary.BigEndian.Uint64(h[:8])
}
