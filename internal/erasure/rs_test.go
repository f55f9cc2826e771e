package erasure

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"testing/quick"

	"icistrategy/internal/blockcrypto"
)

func TestGFFieldAxioms(t *testing.T) {
	// Spot-check multiplicative structure on every element.
	for a := 1; a < 256; a++ {
		x := byte(a)
		if got := gfMul(x, gfInv(x)); got != 1 {
			t.Fatalf("x * x^-1 = %d for x=%d", got, a)
		}
		if gfMul(x, 1) != x {
			t.Fatalf("x*1 != x for x=%d", a)
		}
		if gfMul(x, 0) != 0 {
			t.Fatalf("x*0 != 0 for x=%d", a)
		}
	}
}

func TestGFMulCommutativeAssociative(t *testing.T) {
	f := func(a, b, c byte) bool {
		if gfMul(a, b) != gfMul(b, a) {
			return false
		}
		return gfMul(gfMul(a, b), c) == gfMul(a, gfMul(b, c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGFDistributive(t *testing.T) {
	f := func(a, b, c byte) bool {
		return gfMul(a, b^c) == gfMul(a, b)^gfMul(a, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGFDiv(t *testing.T) {
	f := func(a, b byte) bool {
		if b == 0 {
			return true
		}
		return gfMul(gfDiv(a, b), b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGFPow(t *testing.T) {
	for _, base := range []byte{1, 2, 3, 0x53} {
		acc := byte(1)
		for p := 0; p < 10; p++ {
			if got := gfPow(base, p); got != acc {
				t.Fatalf("gfPow(%d,%d) = %d, want %d", base, p, got, acc)
			}
			acc = gfMul(acc, base)
		}
	}
	if gfPow(0, 0) != 1 || gfPow(0, 5) != 0 {
		t.Fatal("gfPow zero-base conventions broken")
	}
}

// isIdentity reports whether m is the identity matrix.
func isIdentity(m matrix) bool {
	for r, row := range m {
		for c, v := range row {
			want := byte(0)
			if r == c {
				want = 1
			}
			if v != want {
				return false
			}
		}
	}
	return true
}

func TestMatrixInvertIdentity(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16} {
		id := newMatrix(n, n)
		for i := range id {
			id[i][i] = 1
		}
		inv, ok := id.invert()
		if !ok {
			t.Fatalf("identity(%d) reported singular", n)
		}
		if len(inv) != n || !isIdentity(inv) {
			t.Fatalf("inv(identity(%d)) is not the identity", n)
		}
	}
}

func TestMatrixInvertSingular(t *testing.T) {
	if _, ok := newMatrix(2, 2).invert(); ok { // all zeros
		t.Fatal("zero matrix inverted")
	}
	if _, ok := (matrix{{1, 1}, {1, 1}}).invert(); ok { // rank 1
		t.Fatal("rank-1 matrix inverted")
	}
}

func TestMatrixInvertRoundTrip(t *testing.T) {
	rng := blockcrypto.NewRNG(5)
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(8) + 1
		m := newMatrix(n, n)
		for _, row := range m {
			copy(row, randBytes(rng, n))
		}
		orig := newMatrix(n, n)
		for r := range m {
			copy(orig[r], m[r])
		}
		inv, ok := m.invert()
		if !ok {
			continue // random singular matrix; skip
		}
		for r := range m {
			if !bytes.Equal(m[r], orig[r]) {
				t.Fatal("invert modified its receiver")
			}
		}
		if !isIdentity(m.mul(inv)) {
			t.Fatalf("m * m^-1 != I for n=%d", n)
		}
	}
}

func TestNewCodeValidation(t *testing.T) {
	cases := []struct{ k, m int }{{0, 2}, {-1, 0}, {1, -1}, {200, 100}}
	for _, tc := range cases {
		if _, err := New(tc.k, tc.m); err == nil {
			t.Fatalf("New(%d,%d) accepted", tc.k, tc.m)
		}
	}
	if _, err := New(1, 0); err != nil {
		t.Fatalf("New(1,0): %v", err)
	}
}

func TestEncodeSystematic(t *testing.T) {
	c, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("systematic codes leave the data shards untouched!")
	shards, err := c.Split(payload)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Join(shards)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("Join = %q, want %q", got, payload)
	}
}

func TestReconstructAllLossPatterns(t *testing.T) {
	const k, m = 4, 3
	c, err := New(k, m)
	if err != nil {
		t.Fatal(err)
	}
	rng := blockcrypto.NewRNG(9)
	payload := make([]byte, 1000)
	for i := range payload {
		payload[i] = byte(rng.Intn(256))
	}
	orig, err := c.Split(payload)
	if err != nil {
		t.Fatal(err)
	}
	total := k + m
	// Every subset of up to m erased shards must reconstruct.
	for mask := 0; mask < 1<<total; mask++ {
		erased := 0
		for b := 0; b < total; b++ {
			if mask&(1<<b) != 0 {
				erased++
			}
		}
		if erased > m {
			continue
		}
		shards := make([][]byte, total)
		for i := range shards {
			if mask&(1<<i) == 0 {
				shards[i] = append([]byte(nil), orig[i]...)
			}
		}
		if err := c.Reconstruct(shards); err != nil {
			t.Fatalf("mask %b: %v", mask, err)
		}
		for i := range shards {
			if !bytes.Equal(shards[i], orig[i]) {
				t.Fatalf("mask %b: shard %d mismatch", mask, i)
			}
		}
	}
}

func TestReconstructTooFewShards(t *testing.T) {
	c, _ := New(4, 2)
	shards, _ := c.Split([]byte("hello world, this is a payload"))
	for i := 0; i < 3; i++ { // erase 3 > m=2
		shards[i] = nil
	}
	if err := c.Reconstruct(shards); err == nil {
		t.Fatal("reconstruction with k-1 shards succeeded")
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	c, _ := New(5, 3)
	shards, _ := c.Split(bytes.Repeat([]byte("data"), 100))
	ok, err := c.Verify(shards)
	if err != nil || !ok {
		t.Fatalf("clean shards: ok=%v err=%v", ok, err)
	}
	shards[6][7] ^= 0x40
	ok, err = c.Verify(shards)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("corrupted parity shard passed Verify")
	}
	shards[6][7] ^= 0x40
	shards[1][0] ^= 0x01
	ok, _ = c.Verify(shards)
	if ok {
		t.Fatal("corrupted data shard passed Verify")
	}
}

func TestSplitJoinSizes(t *testing.T) {
	c, _ := New(7, 3)
	for _, n := range []int{0, 1, 6, 7, 8, 63, 64, 65, 1000, 4096} {
		payload := bytes.Repeat([]byte{0xEE}, n)
		shards, err := c.Split(payload)
		if err != nil {
			t.Fatalf("Split(%d bytes): %v", n, err)
		}
		if len(shards) != 10 {
			t.Fatalf("Split returned %d shards", len(shards))
		}
		got, err := c.Join(shards)
		if err != nil {
			t.Fatalf("Join(%d bytes): %v", n, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round trip failed for %d bytes", n)
		}
	}
}

func TestSplitReconstructJoinProperty(t *testing.T) {
	f := func(payload []byte, kRaw, mRaw, lossSeed uint8) bool {
		k := int(kRaw%8) + 1
		m := int(mRaw % 5)
		c, err := New(k, m)
		if err != nil {
			return false
		}
		shards, err := c.Split(payload)
		if err != nil {
			return false
		}
		// Erase up to m random shards.
		rng := blockcrypto.NewRNG(uint64(lossSeed))
		for e := 0; e < m; e++ {
			shards[rng.Intn(k+m)] = nil
		}
		if err := c.Reconstruct(shards); err != nil {
			return false
		}
		got, err := c.Join(shards)
		if err != nil {
			return false
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeErrors(t *testing.T) {
	c, _ := New(3, 2)
	if err := c.Encode(make([][]byte, 4)); err == nil {
		t.Fatal("wrong shard count accepted")
	}
	shards := [][]byte{{1, 2}, {3}, {4, 5}, nil, nil}
	if err := c.Encode(shards); err == nil {
		t.Fatal("mismatched data shard sizes accepted")
	}
	empty := [][]byte{{}, {}, {}, nil, nil}
	if err := c.Encode(empty); err == nil {
		t.Fatal("empty data shards accepted")
	}
}

func TestJoinErrors(t *testing.T) {
	c, _ := New(3, 1)
	if _, err := c.Join([][]byte{{1}}); err == nil {
		t.Fatal("too few shards accepted")
	}
	// Declared length longer than actual content must error, not panic.
	bad := [][]byte{{0xFF, 0xFF, 0xFF}, {0xFF, 0xFF, 0xFF}, {0xFF, 0xFF, 0xFF}}
	if _, err := c.Join(bad); err == nil {
		t.Fatal("oversized declared length accepted")
	}
}

func TestZeroParityCode(t *testing.T) {
	c, err := New(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("no parity at all")
	shards, err := c.Split(payload)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Join(shards)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("k-of-k round trip failed")
	}
	// Losing any shard is fatal with m=0.
	shards[2] = nil
	if err := c.Reconstruct(shards); err == nil {
		t.Fatal("reconstruction without redundancy succeeded")
	}
}

func TestCodeAccessors(t *testing.T) {
	c, _ := New(16, 4)
	if c.DataShards() != 16 || c.ParityShards() != 4 || c.TotalShards() != 20 {
		t.Fatalf("accessors: %d %d %d", c.DataShards(), c.ParityShards(), c.TotalShards())
	}
}

// TestSplitMatchesParentShares is a known-answer test: SHA-256 digests of
// Split's shares, and of the shares Reconstruct rebuilds after a fixed loss,
// for deterministic payloads of odd length. Archived blocks are stored as
// these shares, so a digest that moves means stored bytes changed.
func TestSplitMatchesParentShares(t *testing.T) {
	cases := []struct {
		k, m, size int
		lost       []int
		split      string // digest of every share of Split, in order
		rebuilt    string // digest of the lost shares after Reconstruct
	}{
		{1, 1, 1, []int{0},
			"b4f3b0aa51c911eb6af840f4ae18312f16ca3eb54181c1513883a3980d7a1f12",
			"f4c9b02771220de12cb0ba2a2282acf171567d4bd7a4c89ead4b7d745c2b4742"},
		{4, 2, 37, []int{0, 3},
			"a6023a14859f1f62467ce433332f6ddef1d6282ba5c51e071186ed3d05d639f3",
			"ccbe415b888357855b37f3f82f0fe58956185a0a237911e66db7b5fcfb6554f8"},
		{10, 6, 1001, []int{1, 2, 5, 7, 11, 15},
			"3831a7619c3d877c6dbba15578dd7bf56f299105cac7139583125fd9572d9b87",
			"dd78b2d2c802379165ec42dda3493aade6b1e7836874f4e737a74bc0916f3e14"},
		{14, 2, 40961, []int{0, 13},
			"65b85ac74124f343c2e84758961155e06bd133eef06f2205c85b7cc945485917",
			"2a6c36bac4bd8497baec7418e7b895905d8632c9e325551a440780bd789c0dd3"},
	}
	digest := func(shards [][]byte) string {
		h := sha256.New()
		for _, s := range shards {
			h.Write(s)
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	for _, tc := range cases {
		c, err := New(tc.k, tc.m)
		if err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, tc.size)
		for i := range payload {
			payload[i] = byte(i*131 + 7)
		}
		shards, err := c.Split(payload)
		if err != nil {
			t.Fatal(err)
		}
		if got := digest(shards); got != tc.split {
			t.Errorf("RS(%d,%d) %d bytes: Split digest %s, want %s", tc.k, tc.m, tc.size, got, tc.split)
		}
		for _, i := range tc.lost {
			shards[i] = nil
		}
		if err := c.Reconstruct(shards); err != nil {
			t.Fatalf("RS(%d,%d) lost %v: %v", tc.k, tc.m, tc.lost, err)
		}
		rebuilt := make([][]byte, len(tc.lost))
		for j, i := range tc.lost {
			rebuilt[j] = shards[i]
		}
		if got := digest(rebuilt); got != tc.rebuilt {
			t.Errorf("RS(%d,%d) lost %v: rebuilt digest %s, want %s", tc.k, tc.m, tc.lost, got, tc.rebuilt)
		}
	}
}

// TestReconstructMatchesEncodeAcrossSizes erases every shard in turn across
// the size sweep and checks bit-exact recovery.
func TestReconstructMatchesEncodeAcrossSizes(t *testing.T) {
	const k, m = 5, 3
	c, err := New(k, m)
	if err != nil {
		t.Fatal(err)
	}
	rng := blockcrypto.NewRNG(0xCAFE)
	for _, size := range diffSizes {
		if size == 0 {
			continue
		}
		shards := make([][]byte, k+m)
		for i := 0; i < k; i++ {
			shards[i] = randBytes(rng, size)
		}
		if err := c.Encode(shards); err != nil {
			t.Fatal(err)
		}
		orig := make([][]byte, len(shards))
		for i := range shards {
			orig[i] = append([]byte(nil), shards[i]...)
		}
		for lost := 0; lost < k+m; lost++ {
			work := make([][]byte, len(orig))
			for i := range orig {
				if i != lost {
					work[i] = append([]byte(nil), orig[i]...)
				}
			}
			if err := c.Reconstruct(work); err != nil {
				t.Fatalf("size=%d lost=%d: %v", size, lost, err)
			}
			if !bytes.Equal(work[lost], orig[lost]) {
				t.Fatalf("size=%d lost=%d: recovered shard differs", size, lost)
			}
		}
	}
}

// TestReconstructReportsWrongLengthShards pins the bugfix: a non-empty
// shard whose length disagrees with the others must be reported, never
// silently resized or clobbered.
func TestReconstructReportsWrongLengthShards(t *testing.T) {
	c, err := New(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := c.Split(bytes.Repeat([]byte{7}, 300))
	if err != nil {
		t.Fatal(err)
	}
	// Wrong-length parity shard alongside complete data.
	work := make([][]byte, len(orig))
	copy(work, orig)
	bad := []byte{1, 2, 3}
	work[4] = bad
	if err := c.Reconstruct(work); err == nil {
		t.Fatal("wrong-length parity shard accepted")
	}
	if len(work[4]) != 3 || &work[4][0] != &bad[0] {
		t.Fatal("caller's parity slice was clobbered while reporting the error")
	}
	// Wrong-length data shard.
	work = make([][]byte, len(orig))
	copy(work, orig)
	work[1] = []byte{9}
	if err := c.Reconstruct(work); err == nil {
		t.Fatal("wrong-length data shard accepted")
	}
	// Zero-length shard with capacity is treated as missing and its backing
	// array reused.
	work = make([][]byte, len(orig))
	copy(work, orig)
	buf := make([]byte, 0, len(orig[0]))
	work[0] = buf
	if err := c.Reconstruct(work); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(work[0], orig[0]) {
		t.Fatal("reconstruction into reused buffer is wrong")
	}
	if &work[0][0] != &buf[:1][0] {
		t.Fatal("capacity-bearing empty shard was not reused")
	}
}

// diffSizes is the shard-size sweep: empty, one byte, lengths around small
// powers of two, plus large odd sizes.
var diffSizes = []int{0, 1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 95, 127, 128, 255, 1000, 4096, 65537}

func randBytes(rng *blockcrypto.RNG, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return b
}

func BenchmarkEncode16x4_64KB(b *testing.B) {
	c, _ := New(16, 4)
	payload := make([]byte, 64*1024)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Split(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstruct16x4(b *testing.B) {
	c, _ := New(16, 4)
	payload := make([]byte, 64*1024)
	orig, _ := c.Split(payload)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		shards := make([][]byte, len(orig))
		for j := range orig {
			if j >= 2 && j <= 5 {
				continue // erase 4 shards
			}
			shards[j] = orig[j]
		}
		if err := c.Reconstruct(shards); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleCode() {
	c, _ := New(4, 2)
	shards, _ := c.Split([]byte("any 4 of these 6 shards recover me"))
	shards[0], shards[5] = nil, nil // lose two shards
	_ = c.Reconstruct(shards)
	payload, _ := c.Join(shards)
	fmt.Println(string(payload))
	// Output: any 4 of these 6 shards recover me
}
