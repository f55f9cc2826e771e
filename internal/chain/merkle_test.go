package chain

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"icistrategy/internal/blockcrypto"
)

func leavesOf(n int) []blockcrypto.Hash {
	out := make([]blockcrypto.Hash, n)
	for i := range out {
		out[i] = blockcrypto.Sum256([]byte(fmt.Sprintf("leaf-%d", i)))
	}
	return out
}

func TestMerkleEmptyRejected(t *testing.T) {
	if _, err := NewMerkleTree(nil); err == nil {
		t.Fatal("empty tree accepted")
	}
}

func TestMerkleSingleLeaf(t *testing.T) {
	leaves := leavesOf(1)
	tree, err := NewMerkleTree(leaves)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root() != leaves[0] {
		t.Fatal("single-leaf root should be the leaf itself")
	}
	proof, err := tree.Prove(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(proof.Steps) != 0 {
		t.Fatalf("single-leaf proof has %d steps, want 0", len(proof.Steps))
	}
	if err := VerifyProof(tree.Root(), leaves[0], proof); err != nil {
		t.Fatal(err)
	}
}

func TestMerkleAllProofsVerify(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 15, 16, 33, 100} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			leaves := leavesOf(n)
			tree, err := NewMerkleTree(leaves)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				proof, err := tree.Prove(i)
				if err != nil {
					t.Fatalf("Prove(%d): %v", i, err)
				}
				if err := VerifyProof(tree.Root(), leaves[i], proof); err != nil {
					t.Fatalf("proof for leaf %d rejected: %v", i, err)
				}
			}
		})
	}
}

func TestMerkleProofRejectsWrongLeaf(t *testing.T) {
	leaves := leavesOf(10)
	tree, _ := NewMerkleTree(leaves)
	proof, _ := tree.Prove(3)
	if err := VerifyProof(tree.Root(), leaves[4], proof); err == nil {
		t.Fatal("proof for leaf 3 verified leaf 4")
	}
}

func TestMerkleProofRejectsWrongRoot(t *testing.T) {
	leaves := leavesOf(10)
	tree, _ := NewMerkleTree(leaves)
	proof, _ := tree.Prove(3)
	badRoot := blockcrypto.Sum256([]byte("not the root"))
	if err := VerifyProof(badRoot, leaves[3], proof); err == nil {
		t.Fatal("proof verified against wrong root")
	}
}

func TestMerkleProofRejectsTamperedStep(t *testing.T) {
	leaves := leavesOf(16)
	tree, _ := NewMerkleTree(leaves)
	proof, _ := tree.Prove(5)
	proof.Steps[1].Sibling[0] ^= 1
	if err := VerifyProof(tree.Root(), leaves[5], proof); err == nil {
		t.Fatal("tampered proof accepted")
	}
}

func TestMerkleProofRejectsFlippedSide(t *testing.T) {
	leaves := leavesOf(16)
	tree, _ := NewMerkleTree(leaves)
	proof, _ := tree.Prove(5)
	proof.Steps[0].Left = !proof.Steps[0].Left
	if err := VerifyProof(tree.Root(), leaves[5], proof); err == nil {
		t.Fatal("side-flipped proof accepted")
	}
}

// TestMerkleProofRejectsRelabeledLeaf: a leaf's own proof does not verify
// under another position's label, whether the label names another leaf of
// the tree or lies beyond what the steps can reach. Otherwise two
// transactions of a chunk could trade places, proofs and all, and every
// proof would still verify at the label of the place it was moved to.
func TestMerkleProofRejectsRelabeledLeaf(t *testing.T) {
	leaves := leavesOf(16)
	tree, _ := NewMerkleTree(leaves)
	proof, _ := tree.Prove(5)
	if err := VerifyProof(tree.Root(), leaves[5], proof); err != nil {
		t.Fatal(err)
	}
	for _, label := range []int{4, 6, 5 + 16, -11} {
		relabeled := proof
		relabeled.LeafIndex = label
		if err := VerifyProof(tree.Root(), leaves[5], relabeled); !errors.Is(err, ErrProofInvalid) {
			t.Errorf("proof of leaf 5 labeled %d: %v, want %v", label, err, ErrProofInvalid)
		}
	}
}

func TestMerkleProveOutOfRange(t *testing.T) {
	tree, _ := NewMerkleTree(leavesOf(4))
	for _, i := range []int{-1, 4, 100} {
		if _, err := tree.Prove(i); err == nil {
			t.Fatalf("Prove(%d) succeeded", i)
		}
	}
}

func TestMerkleProofTooLargeRejected(t *testing.T) {
	leaf := blockcrypto.Sum256([]byte("x"))
	proof := Proof{Steps: make([]ProofStep, maxProofDepth+1)}
	if err := VerifyProof(leaf, leaf, proof); err != ErrProofTooLarge {
		t.Fatalf("got %v, want ErrProofTooLarge", err)
	}
}

func TestMerkleRootSensitiveToAnyLeaf(t *testing.T) {
	f := func(seed uint8, idx uint8) bool {
		n := int(seed%31) + 2
		leaves := leavesOf(n)
		tree, _ := NewMerkleTree(leaves)
		i := int(idx) % n
		mutated := append([]blockcrypto.Hash(nil), leaves...)
		mutated[i][0] ^= 0xff
		tree2, _ := NewMerkleTree(mutated)
		return tree.Root() != tree2.Root()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMerkleProofSizeLogarithmic(t *testing.T) {
	tree, _ := NewMerkleTree(leavesOf(1024))
	proof, _ := tree.Prove(512)
	if len(proof.Steps) != 10 {
		t.Fatalf("1024-leaf proof has %d steps, want 10", len(proof.Steps))
	}
	if got := proof.EncodedSize(); got != 4+10*(blockcrypto.HashSize+1) {
		t.Fatalf("EncodedSize() = %d", got)
	}
}

func TestMerkleDeterministic(t *testing.T) {
	a, _ := NewMerkleTree(leavesOf(37))
	b, _ := NewMerkleTree(leavesOf(37))
	if a.Root() != b.Root() {
		t.Fatal("same leaves produced different roots")
	}
}

func BenchmarkMerkleBuild1024(b *testing.B) {
	leaves := leavesOf(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewMerkleTree(leaves); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMerkleProveVerify(b *testing.B) {
	tree, _ := NewMerkleTree(leavesOf(1024))
	leaves := leavesOf(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		idx := i % 1024
		proof, err := tree.Prove(idx)
		if err != nil {
			b.Fatal(err)
		}
		if err := VerifyProof(tree.Root(), leaves[idx], proof); err != nil {
			b.Fatal(err)
		}
	}
}

// proofsOf returns the proofs of leaves [from, to) of a tree over n leaves.
func proofsOf(t testing.TB, n, from, to int) []Proof {
	t.Helper()
	tree, err := NewMerkleTree(leavesOf(n))
	if err != nil {
		t.Fatal(err)
	}
	ps := make([]Proof, 0, to-from)
	for i := from; i < to; i++ {
		p, err := tree.Prove(i)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	return ps
}

func TestProofWireRoundTrip(t *testing.T) {
	lists := [][]Proof{
		nil,
		proofsOf(t, 1, 0, 1),    // no steps at all
		proofsOf(t, 96, 12, 24), // one chunk of the benchmark's block
		{{LeafIndex: -3}, {LeafIndex: 1 << 40, Steps: []ProofStep{{Left: true}}}, {}}, // mixed depths, odd indexes
	}
	for _, ps := range lists {
		enc := AppendProofs([]byte("prefix"), ps)
		got, n, err := DecodeProofs(enc[len("prefix"):])
		if err != nil {
			t.Fatal(err)
		}
		if n != len(enc)-len("prefix") {
			t.Fatalf("consumed %d of %d bytes", n, len(enc)-len("prefix"))
		}
		if len(got) != len(ps) {
			t.Fatalf("%d proofs decoded, want %d", len(got), len(ps))
		}
		for i := range ps {
			if got[i].LeafIndex != ps[i].LeafIndex || !reflect.DeepEqual(got[i].Steps, ps[i].Steps) {
				t.Fatalf("proof %d: got %+v, want %+v", i, got[i], ps[i])
			}
			one, m, err := DecodeProof(AppendProof(nil, ps[i]))
			if err != nil || m != len(AppendProof(nil, ps[i])) || !reflect.DeepEqual(one.Steps, ps[i].Steps) {
				t.Fatalf("single proof %d: %+v, %d, %v", i, one, m, err)
			}
		}
	}
}

func TestDecodeProofsRejectsHostileInput(t *testing.T) {
	good := AppendProofs(nil, proofsOf(t, 8, 0, 3))
	for cut := 0; cut < len(good); cut++ {
		if _, _, err := DecodeProofs(good[:cut]); !errors.Is(err, ErrProofMalformed) {
			t.Fatalf("cut at %d of %d: got %v, want ErrProofMalformed", cut, len(good), err)
		}
	}
	huge := binary.AppendUvarint(nil, 1<<40)
	cases := map[string][]byte{
		"proof count beyond the bytes that follow": append(append([]byte(nil), huge...), 0, 0),
		"step count beyond the bytes that follow":  append(append([]byte{1, 0}, huge...), make([]byte, 33)...),
		"side byte that is neither 0 nor 1":        append(append([]byte{1, 0, 1}, make([]byte, 32)...), 2),
	}
	for name, data := range cases {
		allocs := testing.AllocsPerRun(5, func() {
			if _, _, err := DecodeProofs(data); !errors.Is(err, ErrProofMalformed) {
				t.Fatalf("%s: got %v, want ErrProofMalformed", name, err)
			}
		})
		if allocs > 16 {
			t.Errorf("%s: %.0f allocations for a %d-byte input", name, allocs, len(data))
		}
	}
}

func TestProveAllocatesItsStepsOnce(t *testing.T) {
	tree, err := NewMerkleTree(leavesOf(96))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := tree.Prove(37); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("Prove: %.0f allocations, want 1", allocs)
	}
}
