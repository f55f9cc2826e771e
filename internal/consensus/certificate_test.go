package consensus

import (
	"bytes"
	"errors"
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

// shareCert returns a full certificate in the shape core builds: chunk i is
// approved by members i+1, i+4, … of the first voters members (wrapping),
// and each of them signs once, over all the chunks it approved.
func (f *certFixture) shareCert(voters int) []Vote {
	chunks := make([][]int, voters)
	for idx := 0; idx < f.n; idx++ {
		for k := 0; k < CoverQuorumFor(f.n, f.r); k++ {
			m := (idx + 3*k) % voters
			chunks[m] = append(chunks[m], idx)
		}
	}
	var out []Vote
	for m, set := range chunks {
		voter := simnet.NodeID(m + 1)
		out = append(out, SignShareVote(voter, f.block, set, true, f.keys[voter]))
	}
	return out
}

// acceptable states the acceptance rule without a ChunkTable: every chunk
// has CoverQuorum approvals of this block from distinct members under valid
// signatures, and no vote that counts names anything but a strictly
// increasing set of chunks of the block.
func (f *certFixture) acceptable(cert []Vote) bool {
	approvals := make([]map[simnet.NodeID]bool, f.n)
	for i := range approvals {
		approvals[i] = map[simnet.NodeID]bool{}
	}
	for _, v := range cert {
		key, member := f.keys[v.Voter]
		if !v.Approve || v.Block != f.block || !member || VerifyVote(v, key.Public) != nil {
			continue
		}
		if len(v.Chunks) == 0 {
			return false
		}
		for i, idx := range v.Chunks {
			if idx < 0 || idx >= f.n || (i > 0 && idx <= v.Chunks[i-1]) {
				return false
			}
		}
		for _, idx := range v.Chunks {
			approvals[idx][v.Voter] = true
		}
	}
	for _, a := range approvals {
		if len(a) < CoverQuorumFor(f.n, f.r) {
			return false
		}
	}
	return true
}

func badSig(v Vote) Vote {
	v.Signature = append([]byte(nil), v.Signature...)
	v.Signature[3] ^= 0x40
	return v
}

// TestVerifyCertificateMatchesSequential runs the fork-join
// VerifyCertificate against the sequential reference, and both against the
// acceptance rule stated by hand, on certificates of one-chunk votes and of
// votes over shares: bad signatures, non-members, an equivocating voter,
// overlapping and redundant sets, sets that are not strictly increasing or
// leave the block (the Add errors a certificate can reach — first in
// certificate order wins) and short certificates, at one core and at four.
func TestVerifyCertificateMatchesSequential(t *testing.T) {
	f := newCertFixture(16, 2)
	good, shares := f.cert(), f.shareCert(14)
	outsider := blockcrypto.DeriveKeyPair(78, 99)
	other := blockcrypto.Sum256([]byte("another block"))

	mutate := func(fn func(c []Vote) []Vote) []Vote { return fn(append([]Vote(nil), good...)) }
	mutateShares := func(fn func(c []Vote) []Vote) []Vote { return fn(append([]Vote(nil), shares...)) }
	resign := func(v Vote, chunks []int, approve bool) Vote {
		return SignShareVote(v.Voter, f.block, chunks, approve, f.keys[v.Voter])
	}
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
			c[7] = SignShareVote(99, f.block, c[7].Chunks, true, outsider)
			return c
		}),
		"non-member beside a full set": mutate(func(c []Vote) []Vote {
			return append(c, SignChunkVote(99, f.block, 0, true, outsider))
		}),
		"member signs with the wrong key": mutate(func(c []Vote) []Vote {
			c[2] = SignShareVote(c[2].Voter, f.block, c[2].Chunks, true, outsider)
			return c
		}),
		"equivocating voter": mutate(func(c []Vote) []Vote {
			// The same voter also rejects the chunk it approved: rejections
			// are not certificate material, the approval still counts.
			return append(c, resign(c[4], c[4].Chunks, false))
		}),
		"equivocation replaces the approval": mutate(func(c []Vote) []Vote {
			c[4] = resign(c[4], c[4].Chunks, false)
			return c
		}),
		"vote for another block": mutate(func(c []Vote) []Vote {
			c[9] = SignShareVote(c[9].Voter, other, c[9].Chunks, true, f.keys[c[9].Voter])
			return c
		}),
		"duplicate votes": mutate(func(c []Vote) []Vote {
			return append(c, c[:6]...)
		}),
		"chunk index out of range": mutate(func(c []Vote) []Vote {
			c[10] = resign(c[10], []int{f.n + 3}, true)
			return c
		}),
		"two out-of-range chunks": mutate(func(c []Vote) []Vote {
			c[20] = resign(c[20], []int{-1}, true)
			c[10] = resign(c[10], []int{f.n + 3}, true)
			return c
		}),
		"out-of-range chunk with a bad signature": mutate(func(c []Vote) []Vote {
			c[10] = badSig(resign(c[10], []int{f.n + 3}, true))
			return c
		}),

		"shares valid": shares,
		"shares short": shares[1:],
		"share with a bad signature": mutateShares(func(c []Vote) []Vote {
			c[3] = badSig(c[3])
			return c
		}),
		"chunk added to a signed share": mutateShares(func(c []Vote) []Vote {
			c[3].Chunks = append(append([]int(nil), c[3].Chunks...), f.n-1)
			return c
		}),
		"overlapping shares": mutateShares(func(c []Vote) []Vote {
			// Member 3 votes a second time, over the first chunk of its
			// share {2, 13} and a chunk of someone else's.
			return append(c, resign(c[2], []int{c[2].Chunks[0], c[2].Chunks[0] + 1}, true))
		}),
		"share that adds no coverage": mutateShares(func(c []Vote) []Vote {
			return append(c, c[6], resign(c[6], c[6].Chunks[:1], true))
		}),
		"one-chunk votes beside shares": append(append([]Vote(nil), shares...), good[:9]...),
		"rejection of one chunk of an approved share": mutateShares(func(c []Vote) []Vote {
			return append(c, resign(c[4], []int{c[4].Chunks[1], f.n - 1}, false))
		}),
		"rejection replaces a share": mutateShares(func(c []Vote) []Vote {
			c[4] = resign(c[4], c[4].Chunks, false)
			return c
		}),
		"share split in two votes": mutateShares(func(c []Vote) []Vote {
			v := c[8]
			c[8] = resign(v, v.Chunks[:1], true)
			return append(c, resign(v, v.Chunks[1:], true))
		}),
		"share with a chunk dropped": mutateShares(func(c []Vote) []Vote {
			c[8] = resign(c[8], c[8].Chunks[1:], true)
			return c
		}),
		"duplicate index in a share": mutateShares(func(c []Vote) []Vote {
			c[1] = resign(c[1], append([]int{c[1].Chunks[0]}, c[1].Chunks...), true)
			return c
		}),
		"descending indices in a share": mutateShares(func(c []Vote) []Vote {
			c[1] = resign(c[1], []int{c[1].Chunks[1], c[1].Chunks[0]}, true)
			return c
		}),
		"descending indices in a spare vote": mutateShares(func(c []Vote) []Vote {
			return append(c, resign(c[1], []int{c[1].Chunks[1], c[1].Chunks[0]}, true))
		}),
		"share reaching past the block": mutateShares(func(c []Vote) []Vote {
			c[12] = resign(c[12], append(append([]int(nil), c[12].Chunks...), f.n), true)
			return c
		}),
		"empty share": mutateShares(func(c []Vote) []Vote {
			return append(c, resign(c[0], nil, true))
		}),
		"badly formed share with a bad signature": mutateShares(func(c []Vote) []Vote {
			return append(c, badSig(resign(c[0], []int{2, 2}, true)))
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
			if (got == "<nil>") != f.acceptable(cert) {
				t.Errorf("GOMAXPROCS=%d %s: verdict %q, but the rule by hand says acceptable=%v", procs, name, got, f.acceptable(cert))
			}
		}
		runtime.GOMAXPROCS(prev)
	}
	for _, name := range []string{"valid", "shares valid", "overlapping shares", "share that adds no coverage", "share split in two votes", "rejection of one chunk of an approved share"} {
		if err := VerifyCertificate(f.block, f.n, f.n, f.r, cases[name], f.isMember, f.pubKey); err != nil {
			t.Errorf("%s: certificate rejected: %v", name, err)
		}
	}
	for _, name := range []string{"one bad signature", "share with a bad signature", "chunk added to a signed share", "share with a chunk dropped", "rejection replaces a share"} {
		if err := VerifyCertificate(f.block, f.n, f.n, f.r, cases[name], f.isMember, f.pubKey); err == nil {
			t.Errorf("%s: certificate accepted", name)
		}
	}
	for _, name := range []string{"duplicate index in a share", "descending indices in a spare vote", "share reaching past the block", "empty share", "chunk index out of range"} {
		if err := VerifyCertificate(f.block, f.n, f.n, f.r, cases[name], f.isMember, f.pubKey); !errors.Is(err, ErrBadChunks) {
			t.Errorf("%s: err = %v, want ErrBadChunks", name, err)
		}
	}
}

// TestVerifyCertificateRandomMutations repeats the comparison on seeded
// random damage to a certificate of one-chunk votes and to one of shares:
// each vote independently kept, forged, re-attributed to a non-member,
// turned into a rejection, dropped, or re-signed over a set that leaves the
// block, repeats a chunk, loses a chunk or gains one.
func TestVerifyCertificateRandomMutations(t *testing.T) {
	f := newCertFixture(8, 2)
	outsider := blockcrypto.DeriveKeyPair(78, 99)
	rng := blockcrypto.NewRNG(1515)
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	accepted := 0
	for trial := 0; trial < 120; trial++ {
		good := f.cert()
		if trial%2 == 1 {
			good = f.shareCert(6 + trial%3)
		}
		var cert []Vote
		for _, v := range good {
			resign := func(chunks []int, approve bool) Vote {
				return SignShareVote(v.Voter, f.block, chunks, approve, f.keys[v.Voter])
			}
			switch rng.Intn(24) {
			case 0:
				cert = append(cert, badSig(v))
			case 1:
				cert = append(cert, SignShareVote(99, f.block, v.Chunks, true, outsider))
			case 2:
				cert = append(cert, resign(v.Chunks, false))
			case 3:
				// dropped
			case 4:
				cert = append(cert, resign(append(append([]int(nil), v.Chunks...), f.n), true))
			case 5:
				cert = append(cert, resign(append([]int{v.Chunks[0]}, v.Chunks...), true))
			case 6:
				cert = append(cert, resign(v.Chunks[1:], true))
			case 7:
				cert = append(cert, v, resign([]int{rng.Intn(f.n)}, true))
			default:
				cert = append(cert, v)
			}
		}
		want := verifyCertificateSeq(f.block, f.n, f.n, f.r, cert, f.isMember, f.pubKey)
		got := VerifyCertificate(f.block, f.n, f.n, f.r, cert, f.isMember, f.pubKey)
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Fatalf("trial %d: fork-join says %v, sequential says %v", trial, got, want)
		}
		if (got == nil) != f.acceptable(cert) {
			t.Fatalf("trial %d: verdict %v, but the rule by hand says acceptable=%v", trial, got, f.acceptable(cert))
		}
		if got == nil {
			accepted++
		}
	}
	if accepted == 0 || accepted == 120 {
		t.Fatalf("%d of 120 damaged certificates accepted: the damage tells nothing apart", accepted)
	}
}

// TestVoteSigningBytesLayout pins the byte string a vote signature covers:
// voter(8) block(32) count(8) chunk(8, two's complement)… verdict(1),
// big-endian, for the one-chunk vote and for a set. Seeded runs replay
// signatures made over it.
func TestVoteSigningBytesLayout(t *testing.T) {
	block := blockcrypto.Sum256([]byte("layout"))
	be := func(v uint64) []byte {
		return []byte{byte(v >> 56), byte(v >> 48), byte(v >> 40), byte(v >> 32), byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
	}
	for _, tc := range []struct {
		voter   simnet.NodeID
		chunks  []int
		approve bool
	}{
		{1, []int{0}, true},
		{0x0102030405060708, []int{258}, false},
		{7, []int{-1}, true},
		{9, []int{0, 3, 258, 70000}, true},
		{9, nil, false},
		{2, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}, true}, // past the stack scratch
	} {
		want := append(be(uint64(tc.voter)), block[:]...)
		want = append(want, be(uint64(len(tc.chunks)))...)
		for _, idx := range tc.chunks {
			want = append(want, be(uint64(int64(idx)))...)
		}
		if tc.approve {
			want = append(want, 1)
		} else {
			want = append(want, 0)
		}
		var scratch voteScratch
		got := appendVoteSigningBytes(scratch[:0], tc.voter, block, tc.chunks, tc.approve)
		if !bytes.Equal(got, want) || len(got) != voteSigningFixed+8*len(tc.chunks) {
			t.Fatalf("signing bytes for %+v = %x, want %x", tc, got, want)
		}
	}
	// The one-chunk encoding, spelled out: 57 bytes.
	got := appendVoteSigningBytes(nil, 5, blockcrypto.Hash{0xAB}, []int{3}, true)
	want := append([]byte{0, 0, 0, 0, 0, 0, 0, 5, 0xAB}, make([]byte, 31)...)
	want = append(want, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 3, 1)
	if !bytes.Equal(got, want) {
		t.Fatalf("one-chunk signing bytes = %x, want %x", got, want)
	}
}

// BenchmarkVerifyCertificate checks a 16-member, replication-2 certificate,
// the per-commit cost on every member, in the shape it had when a member
// signed once per chunk (32 votes) and in the shape core builds now — one
// vote per member over its share, about 14 of the 16 members owning
// anything; run with -cpu 1,2.
func BenchmarkVerifyCertificate(b *testing.B) {
	f := newCertFixture(16, 2)
	isMember := func(id simnet.NodeID) bool { _, ok := f.keys[id]; return ok }
	pubKey := func(id simnet.NodeID) []byte { return f.keys[id].Public }
	for _, shape := range []struct {
		name string
		cert []Vote
	}{{"32-chunk-votes", f.cert()}, {"14-share-votes", f.shareCert(14)}} {
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := VerifyCertificate(f.block, f.n, f.n, f.r, shape.cert, isMember, pubKey); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
