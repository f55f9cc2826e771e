package chain

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"icistrategy/internal/blockcrypto"
)

// newTestBlock builds a block with n signed transactions at the given height.
func newTestBlock(t testing.TB, height uint64, prev blockcrypto.Hash, n int) *Block {
	t.Helper()
	txs := make([]*Transaction, n)
	for i := range txs {
		tx, _ := newTestTx(t, uint64(i+1), uint64(i+2), 10, height, []byte("p"))
		txs[i] = tx
	}
	b, err := NewBlock(height, prev, txs, height*1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewBlockRejectsEmpty(t *testing.T) {
	if _, err := NewBlock(0, blockcrypto.ZeroHash, nil, 0, 0); err == nil {
		t.Fatal("empty block accepted")
	}
}

func TestHeaderEncodeDecodeRoundTrip(t *testing.T) {
	b := newTestBlock(t, 3, blockcrypto.Sum256([]byte("prev")), 5)
	enc := b.Header.Encode()
	if len(enc) != HeaderSize {
		t.Fatalf("encoded header is %d bytes, want %d", len(enc), HeaderSize)
	}
	got, err := DecodeHeader(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got != b.Header {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, b.Header)
	}
}

func TestDecodeHeaderTruncated(t *testing.T) {
	if _, err := DecodeHeader(make([]byte, HeaderSize-1)); err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestBlockEncodeDecodeRoundTrip(t *testing.T) {
	b := newTestBlock(t, 0, blockcrypto.ZeroHash, 8)
	enc := b.Encode()
	got, err := DecodeBlock(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash() != b.Hash() {
		t.Fatal("round trip changed block hash")
	}
	if err := got.VerifyShape(); err != nil {
		t.Fatalf("decoded block fails shape check: %v", err)
	}
}

func TestBodySizeMatchesEncoding(t *testing.T) {
	b := newTestBlock(t, 0, blockcrypto.ZeroHash, 13)
	if got, want := b.BodySize(), len(b.EncodeBody()); got != want {
		t.Fatalf("BodySize() = %d, len(EncodeBody()) = %d", got, want)
	}
}

func TestDecodeBodyRejectsTrailingBytes(t *testing.T) {
	b := newTestBlock(t, 0, blockcrypto.ZeroHash, 2)
	body := append(b.EncodeBody(), 0x00)
	if _, err := DecodeBody(body); err == nil {
		t.Fatal("body with trailing garbage accepted")
	}
}

func TestDecodeBodyTruncated(t *testing.T) {
	b := newTestBlock(t, 0, blockcrypto.ZeroHash, 3)
	body := b.EncodeBody()
	if _, err := DecodeBody(body[:len(body)-5]); err == nil {
		t.Fatal("truncated body accepted")
	}
	if _, err := DecodeBody(nil); err == nil {
		t.Fatal("nil body accepted")
	}
}

func TestVerifyShapeDetectsTamperedBody(t *testing.T) {
	b := newTestBlock(t, 0, blockcrypto.ZeroHash, 4)
	b.Txs[2].Amount++ // breaks the Merkle root
	if err := b.VerifyShape(); err == nil {
		t.Fatal("tampered body passed shape verification")
	}
}

func TestVerifyShapeDetectsWrongTxCount(t *testing.T) {
	b := newTestBlock(t, 0, blockcrypto.ZeroHash, 4)
	b.Header.TxCount = 3
	if err := b.VerifyShape(); err == nil {
		t.Fatal("wrong TxCount passed shape verification")
	}
}

func TestVerifyLink(t *testing.T) {
	genesis := newTestBlock(t, 0, blockcrypto.ZeroHash, 2)
	next := newTestBlock(t, 1, genesis.Hash(), 2)
	if err := next.VerifyLink(&genesis.Header); err != nil {
		t.Fatalf("valid link rejected: %v", err)
	}

	wrongParent := newTestBlock(t, 1, blockcrypto.Sum256([]byte("other")), 2)
	if err := wrongParent.VerifyLink(&genesis.Header); err == nil {
		t.Fatal("wrong parent accepted")
	}

	wrongHeight := newTestBlock(t, 5, genesis.Hash(), 2)
	if err := wrongHeight.VerifyLink(&genesis.Header); err == nil {
		t.Fatal("wrong height accepted")
	}
}

func TestVerifyLinkRejectsTimeRegression(t *testing.T) {
	genesis := newTestBlock(t, 0, blockcrypto.ZeroHash, 2)
	genesis.Header.TimeMillis = 10_000
	txs := []*Transaction{genesis.Txs[0]}
	next, err := NewBlock(1, genesis.Hash(), txs, 5_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := next.VerifyLink(&genesis.Header); err == nil {
		t.Fatal("time-regressing block accepted")
	}
}

func TestBlockHashDependsOnHeaderOnly(t *testing.T) {
	b := newTestBlock(t, 0, blockcrypto.ZeroHash, 4)
	h1 := b.Hash()
	// Mutating the body without updating the root does not change the block
	// ID — the Merkle root is the commitment, and VerifyShape catches the
	// inconsistency.
	b.Txs[0].Amount++
	if b.Hash() != h1 {
		t.Fatal("block hash changed without a header change")
	}
	if err := b.VerifyShape(); err == nil {
		t.Fatal("inconsistent body undetected")
	}
}

func BenchmarkBlockEncode(b *testing.B) {
	blk := newTestBlock(b, 0, blockcrypto.ZeroHash, 256)
	b.SetBytes(int64(len(blk.Encode())))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blk.Encode()
	}
}

// BenchmarkDecodeBody decodes the benchmark's block shape: 96 transactions.
func BenchmarkDecodeBody(b *testing.B) {
	body := newTestBlock(b, 0, blockcrypto.ZeroHash, 96).EncodeBody()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBody(body); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBlockVerifyShape(b *testing.B) {
	blk := newTestBlock(b, 0, blockcrypto.ZeroHash, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := blk.VerifyShape(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestVerifyHeaderChain(t *testing.T) {
	genesis := newTestBlock(t, 0, blockcrypto.ZeroHash, 2)
	b1 := newTestBlock(t, 1, genesis.Hash(), 2)
	b2 := newTestBlock(t, 2, b1.Hash(), 2)
	chainOf := func(bs ...*Block) []Header {
		out := make([]Header, len(bs))
		for i, b := range bs {
			out[i] = b.Header
		}
		return out
	}
	orphan := newTestBlock(t, 2, genesis.Hash(), 2) // right height, wrong parent
	rooted := newTestBlock(t, 0, blockcrypto.Sum256([]byte("prev")), 2)
	for _, tc := range []struct {
		name    string
		headers []Header
		want    error
	}{
		{"empty", nil, nil},
		{"genesis alone", chainOf(genesis), nil},
		{"three linked", chainOf(genesis, b1, b2), nil},
		{"starts above genesis", chainOf(b1, b2), ErrNotFromGenesis},
		{"height 0 on a parent", chainOf(rooted), ErrNotFromGenesis},
		{"broken link", chainOf(genesis, b1, orphan), ErrBlockBadParent},
		{"skipped height", chainOf(genesis, b2), ErrBlockBadParent},
	} {
		if err := VerifyHeaderChain(tc.headers); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// ownershipBody is a body whose transactions differ in every field and
// include empty payloads, an empty key and an empty signature.
func ownershipBody(t testing.TB) []byte {
	t.Helper()
	txs := newTestBlock(t, 3, blockcrypto.ZeroHash, 7).Txs
	txs[1].Payload = nil
	txs[2].Payload = bytes.Repeat([]byte{9}, 300)
	txs[4].Payload, txs[4].PublicKey, txs[4].Signature = nil, nil, nil
	txs[6].Signature = nil
	return (&Block{Txs: txs}).EncodeBody()
}

// checkOwnedFields fails unless every variable-length field of tx has no
// spare capacity (an append must reallocate, not reach what lies behind it
// in the slab) and a zero-length field is nil, as the per-element decoder
// left it.
func checkOwnedFields(t *testing.T, i int, tx *Transaction) {
	t.Helper()
	for name, f := range map[string][]byte{"Payload": tx.Payload, "PublicKey": tx.PublicKey, "Signature": tx.Signature} {
		if cap(f) != len(f) {
			t.Errorf("tx %d %s: len %d, cap %d", i, name, len(f), cap(f))
		}
		if len(f) == 0 && f != nil {
			t.Errorf("tx %d %s: empty but not nil", i, name)
		}
	}
}

// TestDecodedBodyOwnsItsBytes: a decoded body shares nothing with its input
// (a pooled frame buffer in every caller) and its transactions, though cut
// from one slab, cannot reach each other through an append.
func TestDecodedBodyOwnsItsBytes(t *testing.T) {
	data := ownershipBody(t)
	want, err := refDecodeBody(data)
	if err != nil {
		t.Fatal(err)
	}
	in := append([]byte(nil), data...)
	txs, err := DecodeBody(in)
	if err != nil {
		t.Fatal(err)
	}
	one, n, err := DecodeTransaction(in[4:])
	if err != nil || n != want[0].EncodedSize() {
		t.Fatalf("DecodeTransaction: %d bytes, %v", n, err)
	}
	for i := range in {
		in[i] ^= 0xa5
	}
	if !reflect.DeepEqual(txs, want) || !reflect.DeepEqual(one, want[0]) {
		t.Fatal("scribbling over the input changed the decoded transactions")
	}
	checkOwnedFields(t, 0, one)
	for i, tx := range txs {
		checkOwnedFields(t, i, tx)
	}
	// Grow every field of every transaction in turn; the others must not move.
	for i, tx := range txs {
		tx.Payload = append(tx.Payload, 0xee, 0xee)
		tx.PublicKey = append(tx.PublicKey, 0xee)
		tx.Signature = append(tx.Signature, 0xee)
		for j, other := range txs {
			if j > i && !reflect.DeepEqual(other, want[j]) {
				t.Fatalf("appending to transaction %d changed transaction %d", i, j)
			}
		}
	}
	if re := (&Block{Txs: want}).EncodeBody(); !bytes.Equal(re, data) {
		t.Fatal("reference decode does not re-encode to the input")
	}
}

// TestDecodeAllocations gates what the slab bought: a body costs three
// allocations whatever its transaction count, one transaction two, a proof
// list two — and what building a block's Merkle tree costs.
func TestDecodeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race include the detector's own")
	}
	block := newTestBlock(t, 0, blockcrypto.ZeroHash, 96)
	body := block.EncodeBody()
	proofs := AppendProofs(nil, proofsOf(t, 96, 12, 24))
	for _, tc := range []struct {
		name string
		max  float64
		run  func() error
	}{
		{"DecodeBody of 96 transactions", 3, func() error { _, err := DecodeBody(body); return err }},
		{"DecodeTransaction", 2, func() error { _, _, err := DecodeTransaction(body[4:]); return err }},
		{"DecodeProofs of 12 proofs", 2, func() error { _, _, err := DecodeProofs(proofs); return err }},
		// The tree, its 8 levels (the leaf level is the one slice of ids
		// TxMerkleTree fills, not a copy of it) and the 4 growths of the
		// level list.
		{"TxMerkleTree of 96 transactions", 13, func() error { _, err := TxMerkleTree(block.Txs); return err }},
	} {
		allocs := testing.AllocsPerRun(50, func() {
			if err := tc.run(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.max {
			t.Errorf("%s: %.0f allocations, want at most %.0f", tc.name, allocs, tc.max)
		}
	}
}
