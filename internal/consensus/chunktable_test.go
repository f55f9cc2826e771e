package consensus

import (
	"errors"
	"reflect"
	"testing"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/metrics"
	"icistrategy/internal/simnet"
)

func TestCoverQuorumFor(t *testing.T) {
	cases := []struct{ n, r, want int }{
		{8, 1, 1},  // r below f+1
		{8, 2, 2},  // r below f+1=3
		{8, 5, 3},  // capped at f+1
		{1, 1, 1},  // singleton
		{4, 4, 2},  // f=1, cap 2
		{10, 0, 1}, // floor at 1
	}
	for _, tc := range cases {
		if got := CoverQuorumFor(tc.n, tc.r); got != tc.want {
			t.Fatalf("CoverQuorumFor(%d,%d) = %d, want %d", tc.n, tc.r, got, tc.want)
		}
	}
}

func newTable(t *testing.T, parts, n, r int) (*ChunkTable, blockcrypto.Hash) {
	t.Helper()
	block := blockcrypto.Sum256([]byte("chunked block"))
	tbl, err := NewChunkTable(block, parts, n, r)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, block
}

func TestNewChunkTableValidation(t *testing.T) {
	if _, err := NewChunkTable(blockcrypto.ZeroHash, 0, 4, 1); err == nil {
		t.Fatal("zero parts accepted")
	}
	if _, err := NewChunkTable(blockcrypto.ZeroHash, 4, 0, 1); err == nil {
		t.Fatal("zero members accepted")
	}
}

func TestChunkTableCommitsOnFullCoverage(t *testing.T) {
	tbl, block := newTable(t, 3, 6, 1)
	for idx := 0; idx < 3; idx++ {
		d, err := tbl.Add(Vote{Voter: simnet.NodeID(idx + 1), Block: block, Chunks: []int{idx}, Approve: true})
		if err != nil {
			t.Fatal(err)
		}
		if idx < 2 && d != Pending {
			t.Fatalf("decision after %d covered chunks = %v", idx+1, d)
		}
		if idx == 2 && d != Committed {
			t.Fatalf("decision after full coverage = %v", d)
		}
	}
}

func TestChunkTableCoverQuorumTwo(t *testing.T) {
	tbl, block := newTable(t, 2, 8, 2)
	if tbl.CoverQuorum() != 2 {
		t.Fatalf("CoverQuorum() = %d", tbl.CoverQuorum())
	}
	votes := []Vote{
		{Voter: 1, Block: block, Chunks: []int{0}, Approve: true},
		{Voter: 2, Block: block, Chunks: []int{0}, Approve: true},
		{Voter: 3, Block: block, Chunks: []int{1}, Approve: true},
	}
	for _, v := range votes {
		if _, err := tbl.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	if d := tbl.Decision(); d != Pending {
		t.Fatalf("decision with chunk 1 half-covered = %v", d)
	}
	if got := tbl.Uncovered(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Uncovered() = %v", got)
	}
	if _, err := tbl.Add(Vote{Voter: 4, Block: block, Chunks: []int{1}, Approve: true}); err != nil {
		t.Fatal(err)
	}
	if d := tbl.Decision(); d != Committed {
		t.Fatalf("decision = %v", d)
	}
}

func TestChunkTableRejectThreshold(t *testing.T) {
	tbl, block := newTable(t, 2, 8, 1) // f=2, rejectQuorum=3
	if tbl.RejectQuorum() != 3 {
		t.Fatalf("RejectQuorum() = %d", tbl.RejectQuorum())
	}
	for i := 0; i < 2; i++ {
		d, err := tbl.Add(Vote{Voter: simnet.NodeID(i + 1), Block: block, Chunks: []int{0}, Approve: false})
		if err != nil {
			t.Fatal(err)
		}
		if d != Pending {
			t.Fatalf("rejected after %d rejects", i+1)
		}
	}
	d, err := tbl.Add(Vote{Voter: 3, Block: block, Chunks: []int{0}, Approve: false})
	if err != nil {
		t.Fatal(err)
	}
	if d != Rejected {
		t.Fatalf("decision after 3 rejects = %v", d)
	}
	if tbl.Rejections(0) != 3 || tbl.Approvals(0) != 0 {
		t.Fatalf("tallies: %d/%d", tbl.Approvals(0), tbl.Rejections(0))
	}
}

func TestChunkTableDecisionsAreFinal(t *testing.T) {
	// Terminal decisions latch: whichever threshold crosses first wins,
	// and later votes cannot flip the outcome.
	t.Run("committed stays committed", func(t *testing.T) {
		tbl, block := newTable(t, 1, 8, 1)
		if d, err := tbl.Add(Vote{Voter: 1, Block: block, Chunks: []int{0}, Approve: true}); err != nil || d != Committed {
			t.Fatalf("d=%v err=%v", d, err)
		}
		for i := 0; i < 3; i++ {
			if d, err := tbl.Add(Vote{Voter: simnet.NodeID(10 + i), Block: block, Chunks: []int{0}, Approve: false}); err != nil || d != Committed {
				t.Fatalf("late reject %d flipped decision to %v (err %v)", i, d, err)
			}
		}
	})
	t.Run("rejected stays rejected", func(t *testing.T) {
		tbl, block := newTable(t, 1, 8, 1)
		for i := 0; i < 3; i++ {
			if _, err := tbl.Add(Vote{Voter: simnet.NodeID(10 + i), Block: block, Chunks: []int{0}, Approve: false}); err != nil {
				t.Fatal(err)
			}
		}
		if d := tbl.Decision(); d != Rejected {
			t.Fatalf("decision = %v, want Rejected", d)
		}
		if d, err := tbl.Add(Vote{Voter: 1, Block: block, Chunks: []int{0}, Approve: true}); err != nil || d != Rejected {
			t.Fatalf("late approval flipped decision to %v (err %v)", d, err)
		}
	})
}

func TestChunkTableEquivocation(t *testing.T) {
	tbl, block := newTable(t, 2, 6, 1)
	if _, err := tbl.Add(Vote{Voter: 1, Block: block, Chunks: []int{0}, Approve: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Add(Vote{Voter: 1, Block: block, Chunks: []int{0}, Approve: false}); err == nil {
		t.Fatal("equivocation accepted")
	}
	// Same voter on a different chunk is fine.
	if _, err := tbl.Add(Vote{Voter: 1, Block: block, Chunks: []int{1}, Approve: true}); err != nil {
		t.Fatal(err)
	}
}

func TestChunkTableWrongSubjectAndRange(t *testing.T) {
	tbl, _ := newTable(t, 2, 6, 1)
	other := blockcrypto.Sum256([]byte("other"))
	if _, err := tbl.Add(Vote{Voter: 1, Block: other, Chunks: []int{0}, Approve: true}); err == nil {
		t.Fatal("wrong-subject vote accepted")
	}
	tblB, block := newTable(t, 2, 6, 1)
	if _, err := tblB.Add(Vote{Voter: 1, Block: block, Chunks: []int{2}, Approve: true}); err == nil {
		t.Fatal("out-of-range chunk accepted")
	}
	if _, err := tblB.Add(Vote{Voter: 1, Block: block, Chunks: []int{-1}, Approve: true}); err == nil {
		t.Fatal("negative chunk accepted")
	}
}

// TestChunkTableAddIsAllOrNothing feeds votes over sets of chunks: a vote
// the table refuses — a chunk out of range, a set that is not strictly
// increasing, an equivocation on any one chunk — records none of its chunks
// and does not count as a vote; an accepted one records every chunk, and
// chunks the member already voted the same way on are counted once.
func TestChunkTableAddIsAllOrNothing(t *testing.T) {
	reg := metrics.NewRegistry()
	tbl, block := newTable(t, 6, 8, 2)
	tbl.Instrument(VoteObserver{Votes: reg.Counter("votes"), Equivocations: reg.Counter("equivocations")})
	voted := func(voter simnet.NodeID) (out []int) {
		for idx := 0; idx < tbl.Parts(); idx++ {
			if tbl.HasVoted(voter, idx) {
				out = append(out, idx)
			}
		}
		return out
	}
	for name, chunks := range map[string][]int{
		"empty":            {},
		"index at parts":   {1, 6},
		"negative index":   {-1, 2},
		"duplicate index":  {1, 1, 3},
		"descending index": {1, 4, 3},
	} {
		if _, err := tbl.Add(Vote{Voter: 1, Block: block, Chunks: chunks, Approve: true}); !errors.Is(err, ErrBadChunks) {
			t.Fatalf("%s %v: err = %v, want ErrBadChunks", name, chunks, err)
		}
		if got := voted(1); got != nil {
			t.Fatalf("%s %v: refused vote recorded chunks %v", name, chunks, got)
		}
	}
	if _, err := tbl.Add(Vote{Voter: 1, Block: block, Chunks: []int{0, 2, 5}, Approve: true}); err != nil {
		t.Fatal(err)
	}
	if got := voted(1); !reflect.DeepEqual(got, []int{0, 2, 5}) {
		t.Fatalf("accepted vote over {0,2,5} recorded %v", got)
	}
	// Rejecting {1,2}: chunk 2 was approved, so chunk 1 is not recorded either.
	if _, err := tbl.Add(Vote{Voter: 1, Block: block, Chunks: []int{1, 2}, Approve: false}); !errors.Is(err, ErrEquivocation) {
		t.Fatalf("equivocation on one chunk of a set: err = %v", err)
	}
	if got := voted(1); !reflect.DeepEqual(got, []int{0, 2, 5}) || tbl.Rejections(1) != 0 {
		t.Fatalf("refused equivocating vote left %v, %d rejections of chunk 1", got, tbl.Rejections(1))
	}
	// An overlapping approval adds only what is new.
	if _, err := tbl.Add(Vote{Voter: 1, Block: block, Chunks: []int{2, 3}, Approve: true}); err != nil {
		t.Fatal(err)
	}
	if tbl.Approvals(2) != 1 || tbl.Approvals(3) != 1 {
		t.Fatalf("overlap: chunk 2 has %d approvals, chunk 3 has %d, want 1 and 1", tbl.Approvals(2), tbl.Approvals(3))
	}
	// A rejection of other chunks by the same member is not equivocation.
	if _, err := tbl.Add(Vote{Voter: 1, Block: block, Chunks: []int{1, 4}, Approve: false}); err != nil {
		t.Fatal(err)
	}
	if tbl.Rejections(1) != 1 || tbl.Rejections(4) != 1 {
		t.Fatalf("rejections of chunks 1 and 4: %d, %d", tbl.Rejections(1), tbl.Rejections(4))
	}
	snap := reg.Snapshot()
	if snap["votes"] != 3 || snap["equivocations"] != 1 {
		t.Fatalf("counted %v votes and %v equivocations, want 3 accepted votes and 1 equivocation", snap["votes"], snap["equivocations"])
	}
}

func TestApprovalCertificate(t *testing.T) {
	tbl, block := newTable(t, 2, 8, 2) // coverQuorum 2
	pool := []Vote{
		{Voter: 1, Block: block, Chunks: []int{0}, Approve: true},
		{Voter: 2, Block: block, Chunks: []int{0}, Approve: true},
		{Voter: 2, Block: block, Chunks: []int{0}, Approve: true},  // duplicate
		{Voter: 3, Block: block, Chunks: []int{0}, Approve: true},  // surplus
		{Voter: 1, Block: block, Chunks: []int{1}, Approve: true},  // voter 1 again, other chunk: counts
		{Voter: 5, Block: block, Chunks: []int{1}, Approve: false}, // reject: skipped
		{Voter: 6, Block: block, Chunks: []int{1}, Approve: true},
	}
	cert, ok := tbl.ApprovalCertificate(pool)
	if !ok {
		t.Fatal("coverable pool reported uncoverable")
	}
	if len(cert) != 4 { // 2 per chunk, trimmed
		t.Fatalf("certificate has %d votes, want 4", len(cert))
	}
	if cert[2].Voter != 1 || len(cert[2].Chunks) != 1 || cert[2].Chunks[0] != 1 {
		t.Fatalf("certificate %v: voter 1's approval of chunk 1 was dropped as a duplicate of its chunk 0 vote", cert)
	}
	// Remove chunk 1's approvals: uncoverable.
	if _, ok := tbl.ApprovalCertificate(pool[:4]); ok {
		t.Fatal("uncoverable pool produced a certificate")
	}
}

// TestApprovalCertificateKeepsVotesThatAddCoverage builds a certificate
// from votes over shares: one vote per member covers several chunks, a vote
// whose chunks are all at quorum already (or all counted for its voter) is
// left out, and the kept votes cover every chunk.
func TestApprovalCertificateKeepsVotesThatAddCoverage(t *testing.T) {
	tbl, block := newTable(t, 4, 8, 2) // coverQuorum 2
	pool := []Vote{
		{Voter: 1, Block: block, Chunks: []int{0, 1}, Approve: true},
		{Voter: 2, Block: block, Chunks: []int{1, 2}, Approve: true},
		{Voter: 1, Block: block, Chunks: []int{0, 1}, Approve: true}, // same member again: adds nothing
		{Voter: 3, Block: block, Chunks: []int{1}, Approve: true},    // chunk 1 is at quorum: adds nothing
		{Voter: 3, Block: block, Chunks: []int{0, 1, 3}, Approve: true},
		{Voter: 4, Block: block, Chunks: []int{2, 3}, Approve: true},
		{Voter: 5, Block: block, Chunks: []int{0, 1, 2, 3}, Approve: true}, // everything at quorum: adds nothing
		{Voter: 6, Block: block, Chunks: []int{7}, Approve: true},          // out of range: skipped
	}
	cert, ok := tbl.ApprovalCertificate(pool)
	if !ok {
		t.Fatal("coverable pool reported uncoverable")
	}
	var voters []simnet.NodeID
	for _, v := range cert {
		voters = append(voters, v.Voter)
	}
	if !reflect.DeepEqual(voters, []simnet.NodeID{1, 2, 3, 4}) || len(cert[2].Chunks) != 3 {
		t.Fatalf("certificate keeps votes of %v (third over %v), want members 1, 2, 3, 4 with 3's vote over {0,1,3}", voters, cert[2].Chunks)
	}
	check, _ := newTable(t, 4, 8, 2)
	for _, v := range cert {
		if _, err := check.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	if check.Decision() != Committed {
		t.Fatalf("kept votes leave %v uncovered", check.Uncovered())
	}
	if _, ok := tbl.ApprovalCertificate(pool[:5]); ok {
		t.Fatal("pool with chunks 2 and 3 below quorum produced a certificate")
	}
}

func TestVerifyCertificateEndToEnd(t *testing.T) {
	block := blockcrypto.Sum256([]byte("certified"))
	keys := map[simnet.NodeID]blockcrypto.KeyPair{}
	for i := simnet.NodeID(1); i <= 6; i++ {
		keys[i] = blockcrypto.DeriveKeyPair(50, uint64(i))
	}
	isMember := func(id simnet.NodeID) bool { _, ok := keys[id]; return ok }
	pubKey := func(id simnet.NodeID) []byte {
		if k, ok := keys[id]; ok {
			return k.Public
		}
		return nil
	}
	var cert []Vote
	for idx := 0; idx < 3; idx++ {
		voter := simnet.NodeID(idx + 1)
		cert = append(cert, SignChunkVote(voter, block, idx, true, keys[voter]))
	}
	if err := VerifyCertificate(block, 3, 6, 1, cert, isMember, pubKey); err != nil {
		t.Fatalf("valid certificate rejected: %v", err)
	}
	// Forged signature: certificate no longer covers.
	forged := append([]Vote(nil), cert...)
	forged[1].Signature = append([]byte(nil), forged[1].Signature...)
	forged[1].Signature[0] ^= 1
	if err := VerifyCertificate(block, 3, 6, 1, forged, isMember, pubKey); err == nil {
		t.Fatal("forged certificate accepted")
	}
	// Non-member votes don't count.
	outsider := blockcrypto.DeriveKeyPair(51, 99)
	bad := []Vote{
		SignChunkVote(99, block, 0, true, outsider),
		cert[1], cert[2],
	}
	if err := VerifyCertificate(block, 3, 6, 1, bad, isMember, pubKey); err == nil {
		t.Fatal("outsider certificate accepted")
	}
	// Missing a chunk entirely.
	if err := VerifyCertificate(block, 3, 6, 1, cert[:2], isMember, pubKey); err == nil {
		t.Fatal("incomplete certificate accepted")
	}
}

// TestChunkTableRandomStreamsTerminalStable feeds random (but
// equivocation-free) vote streams and checks that once a terminal decision
// is reached it never changes.
func TestChunkTableRandomStreamsTerminalStable(t *testing.T) {
	rng := blockcrypto.NewRNG(6060)
	for trial := 0; trial < 100; trial++ {
		parts := rng.Intn(6) + 1
		n := rng.Intn(20) + 1
		r := rng.Intn(3) + 1
		block := blockcrypto.Sum256([]byte{byte(trial)})
		tbl, err := NewChunkTable(block, parts, n, r)
		if err != nil {
			t.Fatal(err)
		}
		voted := map[[2]int]bool{} // (voter, chunk) pairs already cast
		terminal := Pending
		for step := 0; step < 200; step++ {
			voter := rng.Intn(n) + 1
			chunk := rng.Intn(parts)
			if voted[[2]int{voter, chunk}] {
				continue
			}
			voted[[2]int{voter, chunk}] = true
			d, err := tbl.Add(Vote{
				Voter:   simnet.NodeID(voter),
				Block:   block,
				Chunks:  []int{chunk},
				Approve: rng.Intn(4) != 0, // 75% approve
			})
			if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			if terminal != Pending && d != terminal {
				t.Fatalf("trial %d: decision changed after terminal: %v -> %v", trial, terminal, d)
			}
			if d != Pending && terminal == Pending {
				terminal = d
			}
		}
	}
}
