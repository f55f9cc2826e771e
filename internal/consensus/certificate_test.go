package consensus

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/simnet"
)

// verifyCertificateSeq is the sequential loop VerifyCertificate was before
// its signature checks went fork-join, kept as the reference the
// differential test compares against.
func verifyCertificateSeq(block blockcrypto.Hash, parts, n, r int, cert []Vote, isMember func(simnet.NodeID) bool, pubKey func(simnet.NodeID) []byte) error {
	t, err := NewChunkTable(block, parts, n, r)
	if err != nil {
		return err
	}
	for _, v := range cert {
		if !v.Approve || v.Block != block {
			continue
		}
		if !isMember(v.Voter) {
			continue
		}
		pub := pubKey(v.Voter)
		if pub == nil || VerifyVote(v, pub) != nil {
			continue
		}
		if _, err := t.Add(v); err != nil {
			return err
		}
	}
	if t.Decision() != Committed {
		return fmt.Errorf("consensus: certificate does not cover all %d chunks with quorum %d", parts, t.coverQuorum)
	}
	return nil
}

// certFixture is a cluster of n members voting on a block of n chunks with
// replication r, the shape core hands to VerifyCertificate.
type certFixture struct {
	block blockcrypto.Hash
	n, r  int
	keys  map[simnet.NodeID]blockcrypto.KeyPair
	// lookups counts registry calls in a plain map: VerifyCertificate must
	// make them on the caller's goroutine only, or -race reports it.
	lookups map[simnet.NodeID]int
}

func newCertFixture(n, r int) *certFixture {
	f := &certFixture{
		block:   blockcrypto.Sum256([]byte("differential")),
		n:       n,
		r:       r,
		keys:    map[simnet.NodeID]blockcrypto.KeyPair{},
		lookups: map[simnet.NodeID]int{},
	}
	for i := 1; i <= n; i++ {
		f.keys[simnet.NodeID(i)] = blockcrypto.DeriveKeyPair(77, uint64(i))
	}
	return f
}

func (f *certFixture) isMember(id simnet.NodeID) bool {
	f.lookups[id]++
	_, ok := f.keys[id]
	return ok
}

func (f *certFixture) pubKey(id simnet.NodeID) []byte {
	f.lookups[id]++
	if k, ok := f.keys[id]; ok {
		return k.Public
	}
	return nil
}

// cert returns a full certificate: CoverQuorum approvals per chunk, chunk i
// signed by members i+1, i+2, … (wrapping).
func (f *certFixture) cert() []Vote {
	var out []Vote
	for idx := 0; idx < f.n; idx++ {
		for k := 0; k < CoverQuorumFor(f.n, f.r); k++ {
			voter := simnet.NodeID((idx+k)%f.n + 1)
			out = append(out, SignChunkVote(voter, f.block, idx, true, f.keys[voter]))
		}
	}
	return out
}

func badSig(v Vote) Vote {
	v.Signature = append([]byte(nil), v.Signature...)
	v.Signature[3] ^= 0x40
	return v
}

// TestVerifyCertificateMatchesSequential runs the fork-join
// VerifyCertificate against the sequential reference on certificates with
// bad signatures, non-members, an equivocating voter, an out-of-range chunk
// (the one Add error a certificate can reach — first in certificate order
// wins) and a short certificate, at one core and at four.
func TestVerifyCertificateMatchesSequential(t *testing.T) {
	f := newCertFixture(16, 2)
	good := f.cert()
	outsider := blockcrypto.DeriveKeyPair(78, 99)
	other := blockcrypto.Sum256([]byte("another block"))

	mutate := func(fn func(c []Vote) []Vote) []Vote { return fn(append([]Vote(nil), good...)) }
	cases := map[string][]Vote{
		"valid": good,
		"empty": nil,
		"short": good[:len(good)-1],
		"one bad signature": mutate(func(c []Vote) []Vote {
			c[5] = badSig(c[5])
			return c
		}),
		"bad signature on a spare vote": mutate(func(c []Vote) []Vote {
			return append(c, badSig(c[0]))
		}),
		"every signature bad": mutate(func(c []Vote) []Vote {
			for i := range c {
				c[i] = badSig(c[i])
			}
			return c
		}),
		"non-member replaces a vote": mutate(func(c []Vote) []Vote {
			c[7] = SignChunkVote(99, f.block, c[7].ChunkIdx, true, outsider)
			return c
		}),
		"non-member beside a full set": mutate(func(c []Vote) []Vote {
			return append(c, SignChunkVote(99, f.block, 0, true, outsider))
		}),
		"member signs with the wrong key": mutate(func(c []Vote) []Vote {
			c[2] = SignChunkVote(c[2].Voter, f.block, c[2].ChunkIdx, true, outsider)
			return c
		}),
		"equivocating voter": mutate(func(c []Vote) []Vote {
			// The same voter also rejects the chunk it approved: rejections
			// are not certificate material, the approval still counts.
			v := c[4]
			return append(c, SignChunkVote(v.Voter, f.block, v.ChunkIdx, false, f.keys[v.Voter]))
		}),
		"equivocation replaces the approval": mutate(func(c []Vote) []Vote {
			v := c[4]
			c[4] = SignChunkVote(v.Voter, f.block, v.ChunkIdx, false, f.keys[v.Voter])
			return c
		}),
		"vote for another block": mutate(func(c []Vote) []Vote {
			c[9] = SignChunkVote(c[9].Voter, other, c[9].ChunkIdx, true, f.keys[c[9].Voter])
			return c
		}),
		"duplicate votes": mutate(func(c []Vote) []Vote {
			return append(c, c[:6]...)
		}),
		"chunk index out of range": mutate(func(c []Vote) []Vote {
			c[10] = SignChunkVote(c[10].Voter, f.block, f.n+3, true, f.keys[c[10].Voter])
			return c
		}),
		"two out-of-range chunks": mutate(func(c []Vote) []Vote {
			c[20] = SignChunkVote(c[20].Voter, f.block, -1, true, f.keys[c[20].Voter])
			c[10] = SignChunkVote(c[10].Voter, f.block, f.n+3, true, f.keys[c[10].Voter])
			return c
		}),
		"out-of-range chunk with a bad signature": mutate(func(c []Vote) []Vote {
			c[10] = badSig(SignChunkVote(c[10].Voter, f.block, f.n+3, true, f.keys[c[10].Voter]))
			return c
		}),
	}
	errText := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for name, cert := range cases {
			want := errText(verifyCertificateSeq(f.block, f.n, f.n, f.r, cert, f.isMember, f.pubKey))
			got := errText(VerifyCertificate(f.block, f.n, f.n, f.r, cert, f.isMember, f.pubKey))
			if got != want {
				t.Errorf("GOMAXPROCS=%d %s: fork-join says %q, sequential says %q", procs, name, got, want)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
	if got := errText(VerifyCertificate(f.block, f.n, f.n, f.r, good, f.isMember, f.pubKey)); got != "<nil>" {
		t.Fatalf("valid certificate rejected: %s", got)
	}
	if err := VerifyCertificate(f.block, f.n, f.n, f.r, cases["one bad signature"], f.isMember, f.pubKey); err == nil {
		t.Fatal("certificate with a forged vote accepted")
	}
}

// TestVerifyCertificateRandomMutations repeats the comparison on seeded
// random damage: each vote independently kept, forged, re-attributed to a
// non-member, turned into a rejection or dropped.
func TestVerifyCertificateRandomMutations(t *testing.T) {
	f := newCertFixture(8, 2)
	good := f.cert()
	outsider := blockcrypto.DeriveKeyPair(78, 99)
	rng := blockcrypto.NewRNG(1515)
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for trial := 0; trial < 60; trial++ {
		var cert []Vote
		for _, v := range good {
			switch rng.Intn(12) {
			case 0:
				cert = append(cert, badSig(v))
			case 1:
				cert = append(cert, SignChunkVote(99, f.block, v.ChunkIdx, true, outsider))
			case 2:
				cert = append(cert, SignChunkVote(v.Voter, f.block, v.ChunkIdx, false, f.keys[v.Voter]))
			case 3:
				// dropped
			case 4:
				cert = append(cert, SignChunkVote(v.Voter, f.block, f.n, true, f.keys[v.Voter]))
			default:
				cert = append(cert, v)
			}
		}
		want := verifyCertificateSeq(f.block, f.n, f.n, f.r, cert, f.isMember, f.pubKey)
		got := VerifyCertificate(f.block, f.n, f.n, f.r, cert, f.isMember, f.pubKey)
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Fatalf("trial %d: fork-join says %v, sequential says %v", trial, got, want)
		}
	}
}

// TestVoteSigningBytesLayout pins the byte string a vote signature covers:
// voter(8) block(32) chunk(8, two's complement) verdict(1), big-endian.
// Seeded runs replay signatures made over it.
func TestVoteSigningBytesLayout(t *testing.T) {
	block := blockcrypto.Sum256([]byte("layout"))
	for _, tc := range []struct {
		voter   simnet.NodeID
		idx     int
		approve bool
	}{{1, 0, true}, {0x0102030405060708, 258, false}, {7, -1, true}} {
		want := []byte{
			byte(tc.voter >> 56), byte(tc.voter >> 48), byte(tc.voter >> 40), byte(tc.voter >> 32),
			byte(tc.voter >> 24), byte(tc.voter >> 16), byte(tc.voter >> 8), byte(tc.voter),
		}
		want = append(want, block[:]...)
		ci := uint64(int64(tc.idx))
		want = append(want,
			byte(ci>>56), byte(ci>>48), byte(ci>>40), byte(ci>>32),
			byte(ci>>24), byte(ci>>16), byte(ci>>8), byte(ci))
		if tc.approve {
			want = append(want, 1)
		} else {
			want = append(want, 0)
		}
		var scratch [voteSigningSize]byte
		got := appendVoteSigningBytes(scratch[:0], tc.voter, block, tc.idx, tc.approve)
		if !bytes.Equal(got, want) || len(got) != voteSigningSize {
			t.Fatalf("signing bytes for %+v = %x, want %x", tc, got, want)
		}
	}
}

// BenchmarkVerifyCertificate checks a 16-member, replication-2 certificate
// (32 votes), the per-commit cost on every member; run with -cpu 1,2.
func BenchmarkVerifyCertificate(b *testing.B) {
	f := newCertFixture(16, 2)
	cert := f.cert()
	isMember := func(id simnet.NodeID) bool { _, ok := f.keys[id]; return ok }
	pubKey := func(id simnet.NodeID) []byte { return f.keys[id].Public }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := VerifyCertificate(f.block, f.n, f.n, f.r, cert, isMember, pubKey); err != nil {
			b.Fatal(err)
		}
	}
}
