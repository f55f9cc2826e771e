package blockcrypto

import (
	"crypto/ed25519"
	"encoding/binary"
	"errors"
)

// Signature and key sizes, re-exported so callers never import crypto/ed25519
// directly.
const (
	SignatureSize = ed25519.SignatureSize
	PublicKeySize = ed25519.PublicKeySize
	SeedSize      = ed25519.SeedSize
)

var (
	// ErrBadSignature is returned when signature verification fails.
	ErrBadSignature = errors.New("blockcrypto: signature verification failed")
	// ErrBadKeyLength is returned when key material has the wrong size.
	ErrBadKeyLength = errors.New("blockcrypto: invalid key length")
)

// KeyPair is an Ed25519 signing key pair.
type KeyPair struct {
	Public  ed25519.PublicKey
	private ed25519.PrivateKey
}

// DeriveKeyPair deterministically derives an Ed25519 key pair from a
// simulation seed and an entity index. Deterministic keys make every
// simulation run byte-for-byte reproducible; they must never be used outside
// a simulation.
func DeriveKeyPair(simSeed uint64, index uint64) KeyPair {
	var buf [16 + 8]byte
	copy(buf[:], "icistrategy/key/")
	binary.BigEndian.PutUint64(buf[16:], simSeed)
	first := Sum256(buf[:])
	binary.BigEndian.PutUint64(buf[16:], index)
	second := SumConcat(first[:], buf[16:])
	priv := ed25519.NewKeyFromSeed(second[:SeedSize])
	return KeyPair{Public: priv.Public().(ed25519.PublicKey), private: priv}
}

// Sign signs msg with the private key.
func (k KeyPair) Sign(msg []byte) []byte {
	return ed25519.Sign(k.private, msg)
}

// Verify reports whether sig is a valid signature of msg under pub.
func Verify(pub ed25519.PublicKey, msg, sig []byte) error {
	if len(pub) != PublicKeySize {
		return ErrBadKeyLength
	}
	if len(sig) != SignatureSize || !ed25519.Verify(pub, msg, sig) {
		return ErrBadSignature
	}
	return nil
}

// PublicKeyHash returns the content address of a public key; it doubles as a
// compact account identifier.
func PublicKeyHash(pub ed25519.PublicKey) Hash {
	return Sum256(pub)
}
