package chain

import (
	"bytes"
	"testing"
	"testing/quick"

	"icistrategy/internal/blockcrypto"
)

// newTestTx builds a signed transaction between deterministic accounts.
func newTestTx(t testing.TB, fromIdx, toIdx uint64, amount, nonce uint64, payload []byte) (*Transaction, blockcrypto.KeyPair) {
	t.Helper()
	from := blockcrypto.DeriveKeyPair(1000, fromIdx)
	to := blockcrypto.DeriveKeyPair(1000, toIdx)
	tx := &Transaction{
		From:    blockcrypto.PublicKeyHash(from.Public),
		To:      blockcrypto.PublicKeyHash(to.Public),
		Amount:  amount,
		Nonce:   nonce,
		Fee:     1,
		Payload: payload,
	}
	tx.Sign(from)
	return tx, from
}

func TestTransactionSignVerify(t *testing.T) {
	tx, _ := newTestTx(t, 1, 2, 100, 0, []byte("memo"))
	if err := tx.VerifySignature(); err != nil {
		t.Fatalf("valid tx rejected: %v", err)
	}
}

func TestTransactionVerifyRejectsTampering(t *testing.T) {
	base := func() *Transaction {
		tx, _ := newTestTx(t, 1, 2, 100, 0, []byte("memo"))
		return tx
	}
	cases := []struct {
		name   string
		mutate func(*Transaction)
	}{
		{"amount", func(tx *Transaction) { tx.Amount++ }},
		{"nonce", func(tx *Transaction) { tx.Nonce++ }},
		{"fee", func(tx *Transaction) { tx.Fee++ }},
		{"payload", func(tx *Transaction) { tx.Payload = []byte("other") }},
		{"recipient", func(tx *Transaction) { tx.To[0] ^= 1 }},
		{"sender", func(tx *Transaction) { tx.From[0] ^= 1 }},
		{"signature", func(tx *Transaction) { tx.Signature[0] ^= 1 }},
		{"public key", func(tx *Transaction) { tx.PublicKey[0] ^= 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tx := base()
			tc.mutate(tx)
			if err := tx.VerifySignature(); err == nil {
				t.Fatal("tampered transaction accepted")
			}
		})
	}
}

func TestTransactionVerifyRejectsZeroAmount(t *testing.T) {
	from := blockcrypto.DeriveKeyPair(1000, 1)
	tx := &Transaction{
		From:   blockcrypto.PublicKeyHash(from.Public),
		To:     blockcrypto.PublicKeyHash(blockcrypto.DeriveKeyPair(1000, 2).Public),
		Amount: 0,
	}
	tx.Sign(from)
	if err := tx.VerifySignature(); err == nil {
		t.Fatal("zero-amount transaction accepted")
	}
}

func TestTransactionVerifyRejectsSelfTransfer(t *testing.T) {
	from := blockcrypto.DeriveKeyPair(1000, 1)
	id := blockcrypto.PublicKeyHash(from.Public)
	tx := &Transaction{From: id, To: id, Amount: 5}
	tx.Sign(from)
	if err := tx.VerifySignature(); err == nil {
		t.Fatal("self transfer accepted")
	}
}

func TestTransactionEncodeDecodeRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xab}, 500)}
	for _, p := range payloads {
		tx, _ := newTestTx(t, 3, 4, 77, 9, p)
		enc := tx.Encode()
		if len(enc) != tx.EncodedSize() {
			t.Fatalf("EncodedSize() = %d, actual %d", tx.EncodedSize(), len(enc))
		}
		got, n, err := DecodeTransaction(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if n != len(enc) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(enc))
		}
		if got.ID() != tx.ID() {
			t.Fatal("round trip changed the transaction ID")
		}
		if err := got.VerifySignature(); err != nil {
			t.Fatalf("decoded tx fails verification: %v", err)
		}
	}
}

func TestDecodeTransactionTruncated(t *testing.T) {
	tx, _ := newTestTx(t, 1, 2, 10, 0, []byte("payload"))
	enc := tx.Encode()
	for cut := 0; cut < len(enc); cut += 7 {
		if _, _, err := DecodeTransaction(enc[:cut]); err == nil {
			t.Fatalf("decoding %d-byte prefix succeeded", cut)
		}
	}
}

func TestDecodeTransactionPropertyNoPanic(t *testing.T) {
	// Arbitrary bytes must never panic the decoder.
	f := func(data []byte) bool {
		_, _, _ = DecodeTransaction(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTransactionIDChangesWithContent(t *testing.T) {
	a, _ := newTestTx(t, 1, 2, 10, 0, nil)
	b, _ := newTestTx(t, 1, 2, 11, 0, nil)
	if a.ID() == b.ID() {
		t.Fatal("different transactions share an ID")
	}
}

func BenchmarkTransactionEncode(b *testing.B) {
	tx, _ := newTestTx(b, 1, 2, 10, 0, bytes.Repeat([]byte{1}, 120))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tx.Encode()
	}
}

func BenchmarkTransactionVerify(b *testing.B) {
	tx, _ := newTestTx(b, 1, 2, 10, 0, bytes.Repeat([]byte{1}, 120))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := tx.VerifySignature(); err != nil {
			b.Fatal(err)
		}
	}
}

// ID and VerifySignature encode into a stack buffer: checking a transaction
// of ordinary size must not allocate (every replica does it for every
// transaction it stores, on all cores at once), and one that outgrows the
// buffer must hash and verify the same.
func TestTransactionChecksDoNotAllocate(t *testing.T) {
	tx, _ := newTestTx(t, 1, 2, 10, 0, bytes.Repeat([]byte{1}, 120))
	if allocs := testing.AllocsPerRun(20, func() { tx.ID() }); allocs != 0 {
		t.Errorf("ID: %.0f allocations, want 0", allocs)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := tx.VerifySignature(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("VerifySignature: %.0f allocations, want 0", allocs)
	}

	big, _ := newTestTx(t, 1, 2, 10, 0, bytes.Repeat([]byte{7}, 4*txScratchSize))
	if got, want := big.ID(), blockcrypto.Sum256(big.Encode()); got != want {
		t.Errorf("ID of a %d-byte transaction: got %s, want %s", big.EncodedSize(), got.Short(), want.Short())
	}
	if err := big.VerifySignature(); err != nil {
		t.Errorf("valid %d-byte transaction rejected: %v", big.EncodedSize(), err)
	}
	big.Payload[0] ^= 1
	if err := big.VerifySignature(); err == nil {
		t.Error("tampered large transaction accepted")
	}
}
