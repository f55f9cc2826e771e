package core

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/storage"
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
		enc, tree, err := reassembleEncoded(b.Header, stored)
		if err != nil {
			t.Fatalf("parts=%d from the stored bytes: %v", parts, err)
		}
		want, _ := chain.TxMerkleTree(b.Txs)
		if !bytes.Equal(enc, b.Encode()) || !reflect.DeepEqual(tree, want) {
			t.Fatalf("parts=%d: the bytes reassembled are not the block's encoding and tree", parts)
		}
	}
	if _, err := SplitBlock(b, 0); !errors.Is(err, ErrBadParts) {
		t.Fatalf("split into 0 parts: %v", err)
	}
}

// reassembleEncoded is ReassembleEncoding over the stored form of groups.
func reassembleEncoded(hdr chain.Header, groups []Group) ([]byte, *chain.MerkleTree, error) {
	return ReassembleEncoding(hdr, len(groups), func(i int) (int, int, int, []byte) {
		return groups[i].Index, groups[i].Parts, groups[i].TxStart, groups[i].Encode()
	})
}

// TestReassembleRejects hands Reassemble every wrong set of groups a reader
// can end up with, and ReassembleEncoding the same sets in their stored
// form: the two share the position rule and the root check.
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
	other, err := chain.NewBlock(0, blockcrypto.ZeroHash, fixtureTxs(t)[1:38], 0, 0) // as many transactions, other ones
	if err != nil {
		t.Fatal(err)
	}
	shorter := fixtureBlock(t, 36)
	// Two copies that trade a transaction across their boundary: 11 + 8
	// where the split cuts 10 + 9. Together they still hold the block.
	moved := split(4)
	moved[0].Txs, moved[0].Proofs = append(moved[0].Txs[:10:10], moved[1].Txs[0]), append(moved[0].Proofs[:10:10], moved[1].Proofs[0])
	moved[1].Txs, moved[1].Proofs, moved[1].TxStart = moved[1].Txs[1:], moved[1].Proofs[1:], moved[1].TxStart+1
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
		{"a header of another count", g, shorter.Header, ErrBadGroup},
		{"a cut moved by one transaction", moved, b.Header, ErrBadGroup},
		{"no groups", nil, b.Header, chain.ErrBlockEmptyBody},
	} {
		if _, _, err := Reassemble(tc.hdr, tc.groups); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
		if _, _, err := reassembleEncoded(tc.hdr, tc.groups); !errors.Is(err, tc.want) {
			t.Errorf("%s, stored form: got %v, want %v", tc.name, err, tc.want)
		}
	}
	tampered := split(4)
	tx := *tampered[2].Txs[0]
	tx.Amount++
	tampered[2].Txs = append([]*chain.Transaction{&tx}, tampered[2].Txs[1:]...)
	if _, _, err := Reassemble(b.Header, tampered); !errors.Is(err, chain.ErrBlockBadRoot) {
		t.Errorf("tampered transaction: got %v, want %v", err, chain.ErrBlockBadRoot)
	}
	if _, _, err := reassembleEncoded(b.Header, tampered); !errors.Is(err, chain.ErrBlockBadRoot) {
		t.Errorf("tampered transaction, stored form: got %v, want %v", err, chain.ErrBlockBadRoot)
	}
	// A stored copy that does not frame on its own is refused, even where
	// the bytes joined would: the last byte of chunk 1 moved to the front of
	// chunk 2.
	bodies := make([][]byte, 4)
	for i := range bodies {
		bodies[i] = g[i].Encode()
	}
	last := len(bodies[1]) - 1
	bodies[2] = append(append(bodies[2][:4:4], bodies[1][last]), bodies[2][4:]...)
	bodies[1] = bodies[1][:last]
	_, _, err = ReassembleEncoding(b.Header, 4, func(i int) (int, int, int, []byte) {
		return g[i].Index, g[i].Parts, g[i].TxStart, bodies[i]
	})
	if !errors.Is(err, chain.ErrTxTruncated) {
		t.Errorf("a byte moved across a boundary: got %v, want %v", err, chain.ErrTxTruncated)
	}
}

// TestStoredTxProofSkipsDamagedChunk: a proof query reads each stored chunk
// where it lies, so the store's digest check is what stands between a
// damaged chunk and a served transaction. Every transaction of an intact
// chunk is found with its stored proof, which is the block tree's; once
// Store.Corrupt damaged a chunk, none of its transactions is found, and the
// other chunks still answer.
func TestStoredTxProofSkipsDamagedChunk(t *testing.T) {
	b := fixtureBlock(t, 37)
	groups, err := SplitBlock(b, 4)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := chain.TxMerkleTree(b.Txs)
	if err != nil {
		t.Fatal(err)
	}
	st := storage.NewStore()
	for i := range groups {
		if err := st.PutChunk(groups[i].Chunk(b.Hash(), groups[i].Encode())); err != nil {
			t.Fatal(err)
		}
	}
	const damaged = 2
	if !st.Corrupt(storage.ChunkID{Block: b.Hash(), Index: damaged}) {
		t.Fatal("chunk to damage is not stored")
	}
	for _, g := range groups {
		for i, tx := range g.Txs {
			p, found := StoredTxProof(st, b.Hash(), tx.ID())
			if g.Index == damaged {
				if found {
					t.Fatalf("transaction %d served from the damaged chunk", g.TxStart+i)
				}
				continue
			}
			want, _ := tree.Prove(g.TxStart + i)
			if !found || !reflect.DeepEqual(p.Tx, tx) || !reflect.DeepEqual(p.Proof, want) {
				t.Fatalf("transaction %d: found %v, not the tree's proof of the transaction", g.TxStart+i, found)
			}
		}
	}
	if _, found := StoredTxProof(st, b.Hash(), blockcrypto.Sum256([]byte("ghost"))); found {
		t.Fatal("a proof of a transaction the block does not hold")
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
