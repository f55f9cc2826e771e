package workload

import (
	"bytes"
	"runtime"
	"testing"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
)

func TestNewGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(Config{Accounts: 1}); err == nil {
		t.Fatal("one account accepted")
	}
	if _, err := NewGenerator(Config{Accounts: 5, PayloadBytes: -1}); err == nil {
		t.Fatal("negative payload accepted")
	}
}

func TestGeneratedTxsAreValid(t *testing.T) {
	g, err := NewGenerator(Config{Accounts: 20, PayloadBytes: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		tx := g.NextTx()
		if err := tx.VerifySignature(); err != nil {
			t.Fatalf("tx %d invalid: %v", i, err)
		}
	}
}

// TestGeneratedChainKeepsItsPromise checks what the generator promises of
// every chain it packs: every signature verifies, no transaction id repeats,
// each block links to the one before, and each sender's nonces run 0, 1,
// 2, ... with no gap.
func TestGeneratedChainKeepsItsPromise(t *testing.T) {
	g, err := NewGenerator(Config{Accounts: 30, PayloadBytes: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	cb, err := NewChainBuilder(g, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[blockcrypto.Hash]bool{}
	next := map[chain.AccountID]uint64{}
	prev := blockcrypto.ZeroHash
	for i := 0; i < 20; i++ {
		b, err := cb.NextBlock(25)
		if err != nil {
			t.Fatal(err)
		}
		if b.Header.Height != uint64(i) || b.Header.PrevHash != prev {
			t.Fatalf("block %d: height %d, parent %s, want parent %s", i, b.Header.Height, b.Header.PrevHash.Short(), prev.Short())
		}
		prev = b.Hash()
		for j, tx := range b.Txs {
			if err := tx.VerifySignature(); err != nil {
				t.Fatalf("block %d tx %d: %v", i, j, err)
			}
			if id := tx.ID(); seen[id] {
				t.Fatalf("block %d tx %d: id %s repeats", i, j, id.Short())
			} else {
				seen[id] = true
			}
			if tx.Nonce != next[tx.From] {
				t.Fatalf("block %d tx %d: nonce %d, want %d", i, j, tx.Nonce, next[tx.From])
			}
			next[tx.From]++
		}
	}
	if cb.Height() != 20 || len(seen) != 20*25 {
		t.Fatalf("chain height %d with %d transactions, want 20 and 500", cb.Height(), len(seen))
	}
}

func TestUniformTxSizes(t *testing.T) {
	g, err := NewGenerator(Config{Accounts: 10, PayloadBytes: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := g.TxSize()
	for i := 0; i < 50; i++ {
		if got := g.NextTx().EncodedSize(); got != want {
			t.Fatalf("tx %d encodes to %d bytes, TxSize says %d", i, got, want)
		}
	}
}

func TestDeterministicWorkload(t *testing.T) {
	build := func() blockcrypto.Hash {
		g, err := NewGenerator(Config{Accounts: 10, PayloadBytes: 8, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		txs := g.NextTxs(50)
		tree, err := chain.TxMerkleTree(txs)
		if err != nil {
			t.Fatal(err)
		}
		return tree.Root()
	}
	if build() != build() {
		t.Fatal("identical seeds produced different workloads")
	}
}

// firstBlockSeed42 is the hash of the first block a ChainBuilder packs from
// seed 42 (64 accounts, 40 payload bytes, 96 transactions), as the one-at-a-
// time generator produced it before NextTxs signed side by side.
const firstBlockSeed42 = "81cc998e23203be371d56139e8adf4f9d7aa4ef1d7975c4556cc0c9e390e6e3b"

// TestNextTxsIsTheSequentialStream requires NextTxs(n) to be the stream n
// calls to NextTx draw, byte for byte, and pins the first block of a seeded
// chain, so a draw moved out of stream order fails even when both paths
// move it the same way. It signs on four Ps whatever the machine has: on one
// P par.Each is the plain loop, and a signature collected in completion
// order would come out in stream order anyway.
func TestNextTxsIsTheSequentialStream(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cfg := Config{Accounts: 64, PayloadBytes: 40, Seed: 42}
	for _, n := range []int{0, 1, 2, 96, 257} {
		batched, err := NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		single, err := NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		txs := batched.NextTxs(n)
		if len(txs) != n {
			t.Fatalf("NextTxs(%d) returned %d transactions", n, len(txs))
		}
		for i, tx := range txs {
			if got, want := tx.Encode(), single.NextTx().Encode(); !bytes.Equal(got, want) {
				t.Fatalf("NextTxs(%d): transaction %d differs from NextTx call %d", n, i, i+1)
			}
		}
		// The two streams must also leave off at the same place.
		if !bytes.Equal(batched.NextTx().Encode(), single.NextTx().Encode()) {
			t.Fatalf("NextTxs(%d) left the stream somewhere else than %d calls to NextTx", n, n)
		}
	}

	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := NewChainBuilder(g, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cb.NextBlock(96)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Hash().String(); got != firstBlockSeed42 {
		t.Fatalf("seed 42's first block hashes to %s, want %s", got, firstBlockSeed42)
	}
}

func TestAccountsCopy(t *testing.T) {
	g, _ := NewGenerator(Config{Accounts: 5, Seed: 6})
	a := g.Accounts()
	a[0] = chain.AccountID{}
	b := g.Accounts()
	if b[0] == (chain.AccountID{}) {
		t.Fatal("Accounts() exposes internal state")
	}
}

func TestChainBuilderValidation(t *testing.T) {
	g, _ := NewGenerator(Config{Accounts: 5, Seed: 7})
	if _, err := NewChainBuilder(g, 0); err == nil {
		t.Fatal("zero interval accepted")
	}
}

func BenchmarkNextTx(b *testing.B) {
	g, err := NewGenerator(Config{Accounts: 1000, PayloadBytes: 40, Seed: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.NextTx()
	}
}

// BenchmarkNextTxs generates one block's worth of transactions per op, the
// batch ChainBuilder.NextBlock asks for; run with -cpu 1,2 to see the
// signatures spread.
func BenchmarkNextTxs(b *testing.B) {
	g, err := NewGenerator(Config{Accounts: 1000, PayloadBytes: 40, Seed: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.NextTxs(96)
	}
}
