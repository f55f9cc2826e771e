package blockcrypto

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSum256Deterministic(t *testing.T) {
	a := Sum256([]byte("hello"))
	b := Sum256([]byte("hello"))
	if a != b {
		t.Fatalf("same input hashed to different digests: %s vs %s", a, b)
	}
	c := Sum256([]byte("hello!"))
	if a == c {
		t.Fatalf("different inputs hashed to same digest %s", a)
	}
}

func TestSumConcatMatchesSum256(t *testing.T) {
	f := func(a, b []byte) bool {
		joined := append(append([]byte{}, a...), b...)
		return SumConcat(a, b) == Sum256(joined)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashPairOrderMatters(t *testing.T) {
	a := Sum256([]byte("a"))
	b := Sum256([]byte("b"))
	if HashPair(a, b) == HashPair(b, a) {
		t.Fatal("HashPair must not be commutative")
	}
}

func TestZeroHash(t *testing.T) {
	if !ZeroHash.IsZero() {
		t.Fatal("ZeroHash.IsZero() = false")
	}
	if Sum256(nil).IsZero() {
		t.Fatal("SHA-256 of empty input should not be the zero hash")
	}
}

func TestShortIsPrefix(t *testing.T) {
	h := Sum256([]byte("prefix"))
	if h.String()[:8] != h.Short() {
		t.Fatalf("Short() = %q is not a prefix of String() = %q", h.Short(), h.String())
	}
}

func TestDeriveKeyPairDeterministic(t *testing.T) {
	k1 := DeriveKeyPair(42, 7)
	k2 := DeriveKeyPair(42, 7)
	if string(k1.Public) != string(k2.Public) {
		t.Fatal("same seed/index derived different keys")
	}
	k3 := DeriveKeyPair(42, 8)
	if string(k1.Public) == string(k3.Public) {
		t.Fatal("different indexes derived identical keys")
	}
	k4 := DeriveKeyPair(43, 7)
	if string(k1.Public) == string(k4.Public) {
		t.Fatal("different seeds derived identical keys")
	}
}

func TestSignVerify(t *testing.T) {
	k := DeriveKeyPair(1, 1)
	msg := []byte("block payload")
	sig := k.Sign(msg)
	if err := Verify(k.Public, msg, sig); err != nil {
		t.Fatalf("valid signature rejected: %v", err)
	}
	if err := Verify(k.Public, []byte("tampered"), sig); err == nil {
		t.Fatal("tampered message accepted")
	}
	sig[0] ^= 0xff
	if err := Verify(k.Public, msg, sig); err == nil {
		t.Fatal("tampered signature accepted")
	}
}

func TestVerifyRejectsBadKeyAndSigLengths(t *testing.T) {
	k := DeriveKeyPair(1, 2)
	msg := []byte("m")
	sig := k.Sign(msg)
	if err := Verify(k.Public[:10], msg, sig); err == nil {
		t.Fatal("short public key accepted")
	}
	if err := Verify(k.Public, msg, sig[:10]); err == nil {
		t.Fatal("short signature accepted")
	}
}

func TestPublicKeyHashDistinct(t *testing.T) {
	a := PublicKeyHash(DeriveKeyPair(9, 1).Public)
	b := PublicKeyHash(DeriveKeyPair(9, 2).Public)
	if a == b {
		t.Fatal("distinct keys share an account hash")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(123), NewRNG(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestRNGForkIndependence(t *testing.T) {
	parent := NewRNG(5)
	f1 := parent.Fork("latency")
	f2 := parent.Fork("placement")
	if f1.Uint64() == f2.Uint64() {
		t.Fatal("differently-labelled forks produced identical first draws")
	}
	// Forking must not consume parent draws.
	p1 := NewRNG(5)
	if parent.Uint64() != p1.Uint64() {
		t.Fatal("Fork consumed a parent draw")
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(99)
	for n := 1; n <= 64; n++ {
		for i := 0; i < 100; i++ {
			if v := r.Intn(n); v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestRNGFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestRNGNormFloat64Moments(t *testing.T) {
	r := NewRNG(13)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(21)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) returned %d elements", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestHashUint64UsesLeadingBytes(t *testing.T) {
	var h Hash
	h[0] = 0x01
	if h.Uint64() != 1<<56 {
		t.Fatalf("Uint64() = %x, want %x", h.Uint64(), uint64(1)<<56)
	}
}

func BenchmarkSum256_1KB(b *testing.B) {
	data := make([]byte, 1024)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Sum256(data)
	}
}

func BenchmarkSignVerify(b *testing.B) {
	k := DeriveKeyPair(1, 1)
	msg := make([]byte, 256)
	sig := k.Sign(msg)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Verify(k.Public, msg, sig); err != nil {
			b.Fatal(err)
		}
	}
}
