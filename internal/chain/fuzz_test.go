package chain

import (
	"bytes"
	"testing"

	"icistrategy/internal/blockcrypto"
)

// fuzzSeedBody builds a small valid encoded body to seed the corpus.
func fuzzSeedBody(tb testing.TB, txCount int) []byte {
	tb.Helper()
	key := blockcrypto.DeriveKeyPair(42, 1)
	txs := make([]*Transaction, txCount)
	for i := range txs {
		tx := &Transaction{
			Amount:  uint64(100 + i),
			Nonce:   uint64(i),
			Fee:     1,
			Payload: []byte("fuzz-seed-payload"),
		}
		tx.To[0] = byte(i)
		tx.Sign(key)
		txs[i] = tx
	}
	b := Block{Txs: txs}
	return b.EncodeBody()
}

// FuzzDecodeBody feeds arbitrary bytes to the body decoder. It must never
// panic and never over-allocate from a hostile count prefix, and anything
// it accepts must re-encode to the identical bytes (round-trip property).
func FuzzDecodeBody(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Add(fuzzSeedBody(f, 1))
	f.Add(fuzzSeedBody(f, 5))
	f.Fuzz(func(t *testing.T, data []byte) {
		txs, err := DecodeBody(data)
		if err != nil {
			return
		}
		re := (&Block{Txs: txs}).EncodeBody()
		if !bytes.Equal(re, data) {
			t.Fatalf("decode/encode round-trip drifted: %d bytes in, %d out", len(data), len(re))
		}
	})
}

// FuzzDecodeBlock feeds arbitrary bytes to the full-block decoder: header
// plus body. Accepted inputs must round-trip byte-exactly, and the header
// hash must be stable across the round-trip.
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
	f.Fuzz(func(t *testing.T, data []byte) {
		blk, err := DecodeBlock(data)
		if err != nil {
			return
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

// FuzzDecodeProofs feeds arbitrary bytes to the proof-list decoder. It must
// never panic or allocate by a declared count, and what it accepts must
// survive an encode/decode round trip with every step intact.
func FuzzDecodeProofs(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0})
	f.Add(AppendProofs(nil, proofsOf(f, 8, 0, 3)))
	f.Add(AppendProofs(nil, []Proof{{LeafIndex: -1}, {LeafIndex: 5, Steps: []ProofStep{{Left: true}}}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		ps, n, err := DecodeProofs(data)
		if err != nil {
			return
		}
		again, m, err := DecodeProofs(AppendProofs(nil, ps))
		if err != nil {
			t.Fatalf("re-decode of accepted proofs: %v", err)
		}
		if len(again) != len(ps) || n > len(data) || m == 0 {
			t.Fatalf("round trip changed %d proofs into %d", len(ps), len(again))
		}
		for i := range ps {
			if again[i].LeafIndex != ps[i].LeafIndex || len(again[i].Steps) != len(ps[i].Steps) {
				t.Fatalf("proof %d drifted across the round trip", i)
			}
			for j := range ps[i].Steps {
				if again[i].Steps[j] != ps[i].Steps[j] {
					t.Fatalf("proof %d step %d drifted across the round trip", i, j)
				}
			}
		}
	})
}
