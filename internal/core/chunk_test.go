package core

import (
	"errors"
	"reflect"
	"testing"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
)

func fixtureBlock(t testing.TB, txs int) *chain.Block {
	t.Helper()
	b, err := chain.NewBlock(0, blockcrypto.ZeroHash, fixtureTxs(t)[:txs], 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSplitReassembleRoundTrip splits a block into 1, 2, a cluster's worth
// and one-per-transaction groups, and more groups than transactions: the
// groups tile the block in SplitCounts' sizes, each verifies against the
// root as split and as decoded back from its stored bytes, and together they
// reassemble into the block.
func TestSplitReassembleRoundTrip(t *testing.T) {
	const txs = 37
	b := fixtureBlock(t, txs)
	for _, parts := range []int{1, 2, 16, txs, txs + 3} {
		groups, err := SplitBlock(b, parts)
		if err != nil {
			t.Fatalf("parts=%d: %v", parts, err)
		}
		counts, _ := SplitCounts(txs, parts)
		stored := make([]Group, parts)
		next := 0
		for i, g := range groups {
			if g.Index != i || g.Parts != parts || g.TxStart != next || len(g.Txs) != counts[i] {
				t.Fatalf("parts=%d group %d: index %d of %d, %d txs from %d; want %d txs from %d", parts, i, g.Index, g.Parts, len(g.Txs), g.TxStart, counts[i], next)
			}
			next += len(g.Txs)
			if err := g.Verify(b.Header.MerkleRoot); err != nil {
				t.Fatalf("parts=%d group %d: %v", parts, i, err)
			}
			chk := g.Chunk(b.Hash(), g.Encode())
			if stored[i], err = storedGroup(&chk); err != nil {
				t.Fatalf("parts=%d group %d from its stored bytes: %v", parts, i, err)
			}
			if err := stored[i].Verify(b.Header.MerkleRoot); err != nil {
				t.Fatalf("parts=%d group %d from its stored bytes: %v", parts, i, err)
			}
		}
		for _, set := range [][]Group{groups, stored} {
			got, tree, err := Reassemble(b.Header, set)
			if err != nil {
				t.Fatalf("parts=%d: %v", parts, err)
			}
			if got.Hash() != b.Hash() || !reflect.DeepEqual(got.EncodeBody(), b.EncodeBody()) {
				t.Fatalf("parts=%d: reassembled another block", parts)
			}
			if tree.Root() != b.Header.MerkleRoot || tree.NumLeaves() != len(b.Txs) {
				t.Fatalf("parts=%d: the tree handed up is not the block's", parts)
			}
		}
	}
	if _, err := SplitBlock(b, 0); !errors.Is(err, ErrBadParts) {
		t.Fatalf("split into 0 parts: %v", err)
	}
}

// TestReassembleRejects hands Reassemble every wrong set of groups a reader
// can end up with.
func TestReassembleRejects(t *testing.T) {
	b := fixtureBlock(t, 37)
	split := func(parts int) []Group {
		groups, err := SplitBlock(b, parts)
		if err != nil {
			t.Fatal(err)
		}
		return groups
	}
	g := split(4)
	other := fixtureBlock(t, 36)
	for _, tc := range []struct {
		name   string
		groups []Group
		hdr    chain.Header
		want   error
	}{
		{"missing index", []Group{g[0], {}, g[2], g[3]}, b.Header, ErrBadGroup},
		{"missing first index", []Group{{}, g[1], g[2], g[3]}, b.Header, ErrBadGroup},
		{"duplicate index", []Group{g[0], g[1], g[1], g[3]}, b.Header, ErrBadGroup},
		{"groups out of order", []Group{g[1], g[0], g[2], g[3]}, b.Header, ErrBadGroup},
		{"last group missing", g[:3], b.Header, ErrBadGroup},
		{"cut for another part count", split(5)[:4], b.Header, ErrBadGroup},
		{"another block's header", g, other.Header, chain.ErrBlockBadRoot},
		{"no groups", nil, b.Header, chain.ErrBlockEmptyBody},
	} {
		if _, _, err := Reassemble(tc.hdr, tc.groups); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	tampered := split(4)
	tx := *tampered[2].Txs[0]
	tx.Amount++
	tampered[2].Txs = append([]*chain.Transaction{&tx}, tampered[2].Txs[1:]...)
	if _, _, err := Reassemble(b.Header, tampered); !errors.Is(err, chain.ErrBlockBadRoot) {
		t.Errorf("tampered transaction: got %v, want %v", err, chain.ErrBlockBadRoot)
	}
}

// TestProvesChunkChecksTheRange: a reader's check of one served copy. The
// copy the split cut passes; one without its last transaction and proof
// passes Proves — every transaction left proves — and is refused by
// ProvesChunk, as is one cut for another part count, one served as another
// index, and one with a tampered transaction.
func TestProvesChunkChecksTheRange(t *testing.T) {
	b := fixtureBlock(t, 37)
	groups, err := SplitBlock(b, 4)
	if err != nil {
		t.Fatal(err)
	}
	for idx := range groups {
		if err := groups[idx].ProvesChunk(b.Header, 4, idx); err != nil {
			t.Fatalf("chunk %d as split: %v", idx, err)
		}
	}
	short := groups[1]
	short.Txs, short.Proofs = short.Txs[:len(short.Txs)-1], short.Proofs[:len(short.Proofs)-1]
	if err := short.Proves(b.Header.MerkleRoot); err != nil {
		t.Fatalf("a shortened copy no longer proves, so the test shows nothing: %v", err)
	}
	if err := short.ProvesChunk(b.Header, 4, 1); !errors.Is(err, ErrBadGroup) {
		t.Errorf("shortened copy: got %v, want %v", err, ErrBadGroup)
	}
	late := groups[1]
	late.TxStart, late.Txs, late.Proofs = late.TxStart+1, late.Txs[1:], late.Proofs[1:]
	if err := late.ProvesChunk(b.Header, 4, 1); !errors.Is(err, ErrBadGroup) {
		t.Errorf("copy without its first transaction: got %v, want %v", err, ErrBadGroup)
	}
	fifths, err := SplitBlock(b, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := fifths[1].ProvesChunk(b.Header, 4, 1); !errors.Is(err, ErrBadGroup) {
		t.Errorf("copy cut for 5 parts read as one of 4: got %v, want %v", err, ErrBadGroup)
	}
	if err := groups[2].ProvesChunk(b.Header, 4, 1); !errors.Is(err, ErrBadGroup) {
		t.Errorf("chunk 2 served as chunk 1: got %v, want %v", err, ErrBadGroup)
	}
	tampered := groups[3]
	tx := *tampered.Txs[0]
	tx.Amount++
	tampered.Txs = append([]*chain.Transaction{&tx}, tampered.Txs[1:]...)
	if err := tampered.ProvesChunk(b.Header, 4, 3); !errors.Is(err, chain.ErrProofInvalid) {
		t.Errorf("tampered transaction: got %v, want %v", err, chain.ErrProofInvalid)
	}
}
