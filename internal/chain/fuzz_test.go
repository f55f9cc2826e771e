package chain

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"icistrategy/internal/blockcrypto"
)

// The decoders this package had before a body became one slab and a proof
// list one step array: one allocation per field, per transaction, per proof.
// Kept as the reference the fuzz targets compare the live decoders against.

func refDecodeTransaction(data []byte) (*Transaction, int, error) {
	fixed := 2*blockcrypto.HashSize + 24 + 4
	if len(data) < fixed {
		return nil, 0, ErrTxTruncated
	}
	var tx Transaction
	off := 0
	copy(tx.From[:], data[off:])
	off += blockcrypto.HashSize
	copy(tx.To[:], data[off:])
	off += blockcrypto.HashSize
	tx.Amount = binary.BigEndian.Uint64(data[off:])
	off += 8
	tx.Nonce = binary.BigEndian.Uint64(data[off:])
	off += 8
	tx.Fee = binary.BigEndian.Uint64(data[off:])
	off += 8
	payloadLen := int(binary.BigEndian.Uint32(data[off:]))
	off += 4
	if len(data) < off+payloadLen+2 {
		return nil, 0, ErrTxTruncated
	}
	if payloadLen > 0 {
		tx.Payload = append([]byte(nil), data[off:off+payloadLen]...)
	}
	off += payloadLen
	pubLen := int(binary.BigEndian.Uint16(data[off:]))
	off += 2
	if len(data) < off+pubLen+2 {
		return nil, 0, ErrTxTruncated
	}
	if pubLen > 0 {
		tx.PublicKey = append([]byte(nil), data[off:off+pubLen]...)
	}
	off += pubLen
	sigLen := int(binary.BigEndian.Uint16(data[off:]))
	off += 2
	if len(data) < off+sigLen {
		return nil, 0, ErrTxTruncated
	}
	if sigLen > 0 {
		tx.Signature = append([]byte(nil), data[off:off+sigLen]...)
	}
	off += sigLen
	return &tx, off, nil
}

func refDecodeBody(data []byte) ([]*Transaction, error) {
	if len(data) < 4 {
		return nil, ErrBlockTruncated
	}
	count := int(binary.BigEndian.Uint32(data))
	if count*minTxEncodedSize > len(data)-4 {
		return nil, fmt.Errorf("%w: %d txs declared in %d bytes", ErrBlockTruncated, count, len(data))
	}
	off := 4
	txs := make([]*Transaction, 0, count)
	for i := 0; i < count; i++ {
		tx, n, err := refDecodeTransaction(data[off:])
		if err != nil {
			return nil, fmt.Errorf("tx %d: %w", i, err)
		}
		off += n
		txs = append(txs, tx)
	}
	if off != len(data) {
		return nil, fmt.Errorf("chain: %d trailing bytes after body", len(data)-off)
	}
	return txs, nil
}

func refDecodeBlock(data []byte) (*Block, error) {
	h, err := DecodeHeader(data)
	if err != nil {
		return nil, err
	}
	txs, err := refDecodeBody(data[HeaderSize:])
	if err != nil {
		return nil, err
	}
	return &Block{Header: h, Txs: txs}, nil
}

func refDecodeProof(data []byte) (Proof, int, error) {
	leaf, off := binary.Varint(data)
	if off <= 0 {
		return Proof{}, 0, ErrProofMalformed
	}
	steps, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return Proof{}, 0, ErrProofMalformed
	}
	off += n
	if steps > uint64(len(data)-off)/proofStepSize {
		return Proof{}, 0, fmt.Errorf("%w: %d steps declared in %d bytes", ErrProofMalformed, steps, len(data)-off)
	}
	p := Proof{LeafIndex: int(leaf)}
	if steps == 0 {
		return p, off, nil
	}
	p.Steps = make([]ProofStep, steps)
	for i := range p.Steps {
		copy(p.Steps[i].Sibling[:], data[off:])
		switch data[off+blockcrypto.HashSize] {
		case 0:
		case 1:
			p.Steps[i].Left = true
		default:
			return Proof{}, 0, fmt.Errorf("%w: side byte %d", ErrProofMalformed, data[off+blockcrypto.HashSize])
		}
		off += proofStepSize
	}
	return p, off, nil
}

func refDecodeProofs(data []byte) ([]Proof, int, error) {
	count, off := binary.Uvarint(data)
	if off <= 0 {
		return nil, 0, ErrProofMalformed
	}
	if count > uint64(len(data)-off)/2 {
		return nil, 0, fmt.Errorf("%w: %d proofs declared in %d bytes", ErrProofMalformed, count, len(data)-off)
	}
	if count == 0 {
		return nil, off, nil
	}
	ps := make([]Proof, count)
	for i := range ps {
		p, n, err := refDecodeProof(data[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("proof %d: %w", i, err)
		}
		ps[i] = p
		off += n
	}
	return ps, off, nil
}

// sameVerdict fails the test unless the live decoder and the reference
// agree on accept/reject and, on reject, on the error: its text and which of
// the sentinels it wraps. It reports whether both accepted.
func sameVerdict(t *testing.T, what string, got, want error, sentinels ...error) bool {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: decoder says %v, reference says %v", what, got, want)
	}
	if got == nil {
		return true
	}
	if got.Error() != want.Error() {
		t.Fatalf("%s: decoder fails with %q, reference with %q", what, got, want)
	}
	for _, s := range sentinels {
		if errors.Is(got, s) != errors.Is(want, s) {
			t.Fatalf("%s: errors.Is(%v) is %v for the decoder's %v, %v for the reference's", what, s, errors.Is(got, s), got, errors.Is(want, s))
		}
	}
	return false
}

// fuzzSeedBody builds a small valid encoded body to seed the corpus. Every
// third transaction has no payload, so zero-length fields are in it.
func fuzzSeedBody(tb testing.TB, txCount int) []byte {
	tb.Helper()
	key := blockcrypto.DeriveKeyPair(42, 1)
	txs := make([]*Transaction, txCount)
	for i := range txs {
		tx := &Transaction{
			Amount: uint64(100 + i),
			Nonce:  uint64(i),
			Fee:    1,
		}
		if i%3 != 2 {
			tx.Payload = []byte("fuzz-seed-payload")
		}
		tx.To[0] = byte(i)
		tx.Sign(key)
		txs[i] = tx
	}
	b := Block{Txs: txs}
	return b.EncodeBody()
}

// FuzzDecodeBody feeds arbitrary bytes to the body decoder and to the
// per-element decoder it replaced. The two must accept exactly the same
// inputs, fail with the same error, and yield deep-equal transactions; what
// is accepted must re-encode to the identical bytes. Neither may panic or
// over-allocate from a hostile count prefix.
func FuzzDecodeBody(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Add(fuzzSeedBody(f, 1))
	f.Add(fuzzSeedBody(f, 5))
	f.Add(append(fuzzSeedBody(f, 2), 0))                                 // trailing byte
	f.Add(append([]byte{0, 0, 0, 1}, make([]byte, minTxEncodedSize)...)) // every field empty
	f.Fuzz(func(t *testing.T, data []byte) {
		txs, err := DecodeBody(data)
		want, werr := refDecodeBody(data)
		if !sameVerdict(t, "body", err, werr, ErrTxTruncated, ErrBlockTruncated) {
			return
		}
		if !reflect.DeepEqual(txs, want) {
			t.Fatalf("decoder and reference disagree on an accepted %d-byte body", len(data))
		}
		re := (&Block{Txs: txs}).EncodeBody()
		if !bytes.Equal(re, data) {
			t.Fatalf("decode/encode round-trip drifted: %d bytes in, %d out", len(data), len(re))
		}
		if len(txs) > 0 {
			one, n, err := DecodeTransaction(data[4:])
			if err != nil || n != txs[0].EncodedSize() || !reflect.DeepEqual(one, want[0]) {
				t.Fatalf("DecodeTransaction on the first transaction: %+v, %d, %v", one, n, err)
			}
		}
	})
}

// FuzzDecodeBlock is FuzzDecodeBody for the full-block decoder: header plus
// body, differential against the reference, byte-exact round trip, and a
// header hash stable across it.
func FuzzDecodeBlock(f *testing.F) {
	f.Add([]byte{})
	body := fuzzSeedBody(f, 3)
	txs, err := DecodeBody(body)
	if err != nil {
		f.Fatal(err)
	}
	b, err := NewBlock(7, blockcrypto.ZeroHash, txs, 1234, 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b.Encode())
	f.Add(b.Encode()[:HeaderSize])
	f.Add(b.Encode()[:len(b.Encode())-1])
	f.Fuzz(func(t *testing.T, data []byte) {
		blk, err := DecodeBlock(data)
		want, werr := refDecodeBlock(data)
		if !sameVerdict(t, "block", err, werr, ErrTxTruncated, ErrBlockTruncated) {
			return
		}
		if !reflect.DeepEqual(blk, want) {
			t.Fatalf("decoder and reference disagree on an accepted %d-byte block", len(data))
		}
		re := blk.Encode()
		if !bytes.Equal(re, data) {
			t.Fatalf("block round-trip drifted: %d bytes in, %d out", len(data), len(re))
		}
		blk2, err := DecodeBlock(re)
		if err != nil {
			t.Fatalf("re-decode of accepted block failed: %v", err)
		}
		if blk2.Header.Hash() != blk.Header.Hash() {
			t.Fatal("header hash unstable across round-trip")
		}
	})
}

// FuzzDecodeProofs feeds arbitrary bytes to the proof-list decoder and to
// the per-proof decoder it replaced: same accept/reject, same error, same
// byte count, deep-equal proofs. It must never panic or allocate by a
// declared count, and what it accepts must survive an encode/decode round
// trip (a varint need not be minimal, so the bytes themselves may differ).
func FuzzDecodeProofs(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0})
	f.Add(AppendProofs(nil, proofsOf(f, 8, 0, 3)))
	f.Add(AppendProofs(nil, []Proof{{LeafIndex: -1}, {LeafIndex: 5, Steps: []ProofStep{{Left: true}}}}))
	f.Add(append(append([]byte{1, 0, 1}, make([]byte, 32)...), 2)) // side byte neither 0 nor 1
	f.Fuzz(func(t *testing.T, data []byte) {
		ps, n, err := DecodeProofs(data)
		want, wn, werr := refDecodeProofs(data)
		if !sameVerdict(t, "proofs", err, werr, ErrProofMalformed) {
			return
		}
		if n != wn || !reflect.DeepEqual(ps, want) {
			t.Fatalf("decoder read %d bytes, reference %d; proofs equal: %v", n, wn, reflect.DeepEqual(ps, want))
		}
		for i := range ps {
			if cap(ps[i].Steps) != len(ps[i].Steps) {
				t.Fatalf("proof %d: %d steps with capacity %d: an append would reach the next proof's", i, len(ps[i].Steps), cap(ps[i].Steps))
			}
		}
		again, m, err := DecodeProofs(AppendProofs(nil, ps))
		if err != nil || m == 0 || !reflect.DeepEqual(again, ps) {
			t.Fatalf("re-decode of accepted proofs: %d bytes, %v", m, err)
		}
		if len(ps) > 0 {
			_, at := binary.Uvarint(data)
			one, _, err := DecodeProof(data[at:])
			if err != nil || !reflect.DeepEqual(one, want[0]) {
				t.Fatalf("DecodeProof on the first proof: %+v, %v", one, err)
			}
		}
	})
}
