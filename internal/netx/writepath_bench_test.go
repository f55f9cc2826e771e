package netx

import (
	"testing"

	"icistrategy/internal/chain"
)

// The write path's layer rows, at the shape the repository benchmark's
// netx.cluster.distribute_ms and bootstrap_chunks_per_s probes use: eight
// in-process servers on loopback, replication 2, 96-transaction blocks.
const (
	benchServers     = 8
	benchReplication = 2
	benchTxPerBlock  = 96
)

// benchCluster starts the servers and distributes blocks to them.
func benchCluster(b *testing.B, blocks []*chain.Block) *Cluster {
	b.Helper()
	_, addrs := startServers(b, benchServers)
	cl, err := NewCluster(addrs, benchReplication)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cl.Close)
	for _, blk := range blocks {
		if err := cl.DistributeBlock(blk); err != nil {
			b.Fatal(err)
		}
	}
	return cl
}

// BenchmarkClusterDistribute is one DistributeBlock: 8 headers and 16
// chunks, every chunk decoded, proven and signature-checked by the server
// that stores it. The blocks come round again after 64 iterations; a put of
// a stored chunk is verified in full before the store sees it is a repeat,
// so a repeat costs what a first write does less one copy.
func BenchmarkClusterDistribute(b *testing.B) {
	blocks := testBlocks(b, 64, benchTxPerBlock)
	cl := benchCluster(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.DistributeBlock(blocks[i%len(blocks)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterBootstrap is one BootstrapNewMember of a ninth member
// into a fresh server over a 64-block chain: header sync, then every chunk
// the joiner owns fetched from an owner and verified by the joiner.
func BenchmarkClusterBootstrap(b *testing.B) {
	cl := benchCluster(b, testBlocks(b, 64, benchTxPerBlock))
	chunks := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		joiner, err := NewServer("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		n, err := cl.BootstrapNewMember(joiner.Addr())
		b.StopTimer()
		if err != nil || n == 0 {
			b.Fatalf("bootstrap: %d chunks, %v", n, err)
		}
		chunks += n
		if err := joiner.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(chunks)/b.Elapsed().Seconds(), "chunks/s")
}
