package consensus

import (
	"bytes"
	"testing"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/simnet"
)

func TestFaultBoundAndQuorum(t *testing.T) {
	// f = ⌊(n−1)/3⌋; a chunk is proven bad by f+1 rejections, and covered by
	// f+1 approvals once replication allows it (TestCoverQuorumFor has the
	// small-r cases).
	cases := []struct{ n, f int }{
		{0, 0}, {1, 0}, {2, 0}, {3, 0},
		{4, 1}, {6, 1}, {7, 2}, {10, 3},
		{64, 21}, {100, 33},
	}
	for _, tc := range cases {
		if got := FaultBound(tc.n); got != tc.f {
			t.Fatalf("FaultBound(%d) = %d, want %d", tc.n, got, tc.f)
		}
		if tc.n == 0 {
			continue
		}
		tbl, err := NewChunkTable(blockcrypto.ZeroHash, 1, tc.n, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		if tbl.RejectQuorum() != tc.f+1 || tbl.CoverQuorum() != tc.f+1 {
			t.Fatalf("n=%d: reject quorum %d, cover quorum %d, want %d for both", tc.n, tbl.RejectQuorum(), tbl.CoverQuorum(), tc.f+1)
		}
	}
}

func TestLeaderRotation(t *testing.T) {
	members := []simnet.NodeID{10, 20, 30}
	seen := map[simnet.NodeID]int{}
	for h := uint64(0); h < 9; h++ {
		l, err := Leader(members, h)
		if err != nil {
			t.Fatal(err)
		}
		seen[l]++
	}
	for _, m := range members {
		if seen[m] != 3 {
			t.Fatalf("leader %d chosen %d times in 9 heights, want 3", m, seen[m])
		}
	}
	if _, err := Leader(nil, 0); err == nil {
		t.Fatal("empty membership accepted")
	}
}

func TestVoteSignatureRoundTrip(t *testing.T) {
	key := blockcrypto.DeriveKeyPair(1, 1)
	block := blockcrypto.Sum256([]byte("b"))
	for _, chunks := range [][]int{{4}, {0, 3, 9}} {
		v := SignShareVote(7, block, chunks, true, key)
		if err := VerifyVote(v, key.Public); err != nil {
			t.Fatalf("valid vote over %v rejected: %v", chunks, err)
		}
		if got, want := v.EncodedSize(), 8+blockcrypto.HashSize+8+8*len(chunks)+1+blockcrypto.SignatureSize; got != want {
			t.Fatalf("EncodedSize() over %v = %d, want %d", chunks, got, want)
		}
		// Flipping the verdict invalidates the signature.
		v.Approve = false
		if err := VerifyVote(v, key.Public); err == nil {
			t.Fatal("verdict-flipped vote accepted")
		}
		v.Approve = true
		v.Voter = 8
		if err := VerifyVote(v, key.Public); err == nil {
			t.Fatal("voter-swapped vote accepted")
		}
		v.Voter = 7
		v.Block[0] ^= 1
		if err := VerifyVote(v, key.Public); err == nil {
			t.Fatal("block-swapped vote accepted")
		}
		v.Block[0] ^= 1
		// The signature covers the chunk set: no chunk can be added, dropped
		// or swapped.
		for name, other := range map[string][]int{
			"extended":  append(append([]int(nil), chunks...), 11),
			"truncated": chunks[:len(chunks)-1],
			"swapped":   append([]int{chunks[0] + 1}, chunks[1:]...),
		} {
			v.Chunks = other
			if err := VerifyVote(v, key.Public); err == nil {
				t.Fatalf("vote over %v accepted with its chunks %s to %v", chunks, name, other)
			}
		}
	}
	if one, set := SignChunkVote(7, block, 4, true, key), SignShareVote(7, block, []int{4}, true, key); !bytes.Equal(one.Signature, set.Signature) {
		t.Fatal("SignChunkVote is not the vote over the one-element set")
	}
}

func TestDecisionString(t *testing.T) {
	for d, want := range map[Decision]string{
		Pending: "pending", Committed: "committed", Rejected: "rejected", Decision(9): "decision(9)",
	} {
		if got := d.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", int(d), got, want)
		}
	}
}
