package workload

import (
	"testing"

	"icistrategy/internal/blockcrypto"
)

// linearSampleCDF is the straightforward O(n) reference: the smallest index
// whose cumulative mass covers target. The binary-search implementation
// must agree with it on every draw.
func linearSampleCDF(cdf []float64, target float64) int {
	for i, c := range cdf {
		if c >= target {
			return i
		}
	}
	return len(cdf) - 1
}

// TestSampleCDFMatchesLinearReference differentially tests the
// sort.SearchFloat64s sampling against the linear reference over a seeded
// draw sequence: every pick must be identical, so switching the
// implementation cannot shift any seeded workload.
func TestSampleCDFMatchesLinearReference(t *testing.T) {
	for _, tc := range []struct {
		accounts int
		s        float64
		seed     uint64
	}{
		{2, 0.8, 1},
		{100, 1.0, 2},
		{1000, 1.2, 3},
		{37, 2.5, 4},
	} {
		cdf := zipfCDF(tc.accounts, tc.s)
		rng := blockcrypto.NewRNG(tc.seed).Fork("zipf-diff")
		for i := 0; i < 20_000; i++ {
			target := rng.Float64()
			got := sampleCDF(cdf, target)
			want := linearSampleCDF(cdf, target)
			if got != want {
				t.Fatalf("n=%d s=%v draw %d (target=%v): binary=%d linear=%d",
					tc.accounts, tc.s, i, target, got, want)
			}
		}
		// Boundary targets, including exactly 0 and exactly 1.
		for _, target := range []float64{0, cdf[0], 0.5, cdf[len(cdf)-1], 1} {
			if got, want := sampleCDF(cdf, target), linearSampleCDF(cdf, target); got != want {
				t.Fatalf("n=%d s=%v boundary target=%v: binary=%d linear=%d",
					tc.accounts, tc.s, target, got, want)
			}
		}
	}
}

func TestZipfPicker(t *testing.T) {
	if _, err := NewZipfPicker(0, 1, 1); err == nil {
		t.Fatal("accepted zero keys")
	}
	if _, err := NewZipfPicker(10, -1, 1); err == nil {
		t.Fatal("accepted negative exponent")
	}

	// Zipf skew: rank 0 must dominate rank n-1 by roughly n^s.
	p, err := NewZipfPicker(50, 1.0, 7)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 50)
	for i := 0; i < 50_000; i++ {
		idx := p.Pick()
		if idx < 0 || idx >= 50 {
			t.Fatalf("pick out of range: %d", idx)
		}
		counts[idx]++
	}
	if counts[0] < 5*counts[49] {
		t.Fatalf("no Zipf skew: head=%d tail=%d", counts[0], counts[49])
	}

	// Determinism: same seed, same sequence.
	q1, _ := NewZipfPicker(50, 1.0, 7)
	q2, _ := NewZipfPicker(50, 1.0, 7)
	for i := 0; i < 1_000; i++ {
		if a, b := q1.Pick(), q2.Pick(); a != b {
			t.Fatalf("pick %d diverged: %d vs %d", i, a, b)
		}
	}

	// Uniform degenerate case stays in range.
	u, err := NewZipfPicker(8, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if idx := u.Pick(); idx < 0 || idx >= 8 {
			t.Fatalf("uniform pick out of range: %d", idx)
		}
	}
}
