package icistrategy

import (
	"testing"

	"icistrategy/internal/erasure"
)

// Erasure hot-path benchmarks at the acceptance configuration: 1 MiB block
// bodies split RS(16, 4). BenchmarkErasureEncode is the table-driven kernel
// path; BenchmarkErasureEncodeScalar is the byte-at-a-time pre-kernel path
// kept as EncodeScalarReference, the reference TestEncodeMatchesScalarReference
// compares against; `go test -bench 'Erasure' -benchtime 2s .` shows the two
// side by side. The tracked numbers are erasure.* in BENCHMARK.json.

const (
	benchDataShards   = 16
	benchParityShards = 4
	benchPayload      = 1 << 20
)

func benchShards(b *testing.B) (*erasure.Code, [][]byte) {
	b.Helper()
	code, err := erasure.Cached(benchDataShards, benchParityShards)
	if err != nil {
		b.Fatal(err)
	}
	shardBytes := benchPayload / benchDataShards
	shards := make([][]byte, benchDataShards+benchParityShards)
	for i := range shards {
		shards[i] = make([]byte, shardBytes)
		for j := range shards[i] {
			shards[i][j] = byte(i*31 + j)
		}
	}
	return code, shards
}

func BenchmarkErasureEncode(b *testing.B) {
	code, shards := benchShards(b)
	b.SetBytes(benchPayload)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := code.Encode(shards); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkErasureEncodeScalar(b *testing.B) {
	code, shards := benchShards(b)
	b.SetBytes(benchPayload)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := code.EncodeScalarReference(shards); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkErasureReconstruct repairs the worst-case loss (parityShards
// data shards erased) with a warm decode-matrix cache — the steady-state
// repair path.
func BenchmarkErasureReconstruct(b *testing.B) {
	code, shards := benchShards(b)
	if err := code.Encode(shards); err != nil {
		b.Fatal(err)
	}
	work := make([][]byte, len(shards))
	b.SetBytes(benchPayload)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, shards)
		for j := 0; j < benchParityShards; j++ {
			work[j] = nil
		}
		if err := code.Reconstruct(work); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkErasureReconstructCold builds a fresh codec every iteration: the
// pre-registry cost including matrix derivation and inversion.
func BenchmarkErasureReconstructCold(b *testing.B) {
	code, shards := benchShards(b)
	if err := code.Encode(shards); err != nil {
		b.Fatal(err)
	}
	work := make([][]byte, len(shards))
	b.SetBytes(benchPayload)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh, err := erasure.New(benchDataShards, benchParityShards)
		if err != nil {
			b.Fatal(err)
		}
		copy(work, shards)
		for j := 0; j < benchParityShards; j++ {
			work[j] = nil
		}
		if err := fresh.Reconstruct(work); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkErasureSplitJoin covers the allocation-facing entry points the
// archival path uses around the kernels.
func BenchmarkErasureSplitJoin(b *testing.B) {
	code, err := erasure.Cached(benchDataShards, benchParityShards)
	if err != nil {
		b.Fatal(err)
	}
	body := make([]byte, benchPayload)
	for i := range body {
		body[i] = byte(i * 7)
	}
	b.SetBytes(benchPayload)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shards, err := code.Split(body)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := code.Join(shards); err != nil {
			b.Fatal(err)
		}
	}
}
