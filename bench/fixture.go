package main

import (
	"fmt"
	"runtime"
	"sync"

	"icistrategy/internal/chain"
	"icistrategy/internal/netx"
	"icistrategy/internal/workload"
)

// scale fixes the size of everything a workload builds. The chain shape is
// the same everywhere: 96 transactions of 40 payload bytes per block, a
// body of about 22 KB.
type scale struct {
	servers, replication int // TCP cluster
	txPerBlock, payload  int
	readBlocks           int   // chain preloaded for the read workloads
	hotCacheBytes        int64 // each gateway cache on tcp-read-hot
	proofEvery           int   // every n-th read is a GetTxProof
	writeBlocksPerSec    int   // tcp-write distributes this × seconds blocks
	bootstraps           int   // tcp-write: joiners bootstrapped one after another
	readBack             int   // tcp-write: blocks read back around the retire
	probeBlocks          int   // chain preloaded on the layer probes' cluster

	simNodes, simClusters int
	simBlocks, simTx      int // per round
	simParity             int
}

var fullScale = scale{
	servers: 8, replication: 2, txPerBlock: 96, payload: 40,
	readBlocks: 256, hotCacheBytes: 64 << 20, proofEvery: 8,
	writeBlocksPerSec: 24, bootstraps: 6, readBack: 16, probeBlocks: 24,
	simNodes: 256, simClusters: 16, simBlocks: 3, simTx: 256, simParity: 2,
}

// quickScale is the smoke test's: every code path and output check of the
// full scale in about a second per workload, timings meaningless.
var quickScale = scale{
	servers: 3, replication: 2, txPerBlock: 24, payload: 40,
	readBlocks: 6, hotCacheBytes: 64 << 20, proofEvery: 4,
	writeBlocksPerSec: 6, bootstraps: 2, readBack: 3, probeBlocks: 3,
	simNodes: 24, simClusters: 3, simBlocks: 2, simTx: 24, simParity: 2,
}

// genBlocks builds a valid chain of n blocks from the seed: signed,
// nonce-correct transactions, linked headers.
func genBlocks(sc scale, seed uint64, n int) ([]*chain.Block, error) {
	gen, err := workload.NewGenerator(workload.Config{Accounts: 64, PayloadBytes: sc.payload, Seed: seed})
	if err != nil {
		return nil, err
	}
	cb, err := workload.NewChainBuilder(gen, 10_000)
	if err != nil {
		return nil, err
	}
	blocks := make([]*chain.Block, n)
	for i := range blocks {
		if blocks[i], err = cb.NextBlock(sc.txPerBlock); err != nil {
			return nil, err
		}
	}
	return blocks, nil
}

// chainBytes is what a full node stores for the blocks: headers and bodies.
func chainBytes(blocks []*chain.Block) (total, body int64) {
	for _, b := range blocks {
		body += int64(b.BodySize())
		total += int64(b.BodySize() + len(b.Header.Encode()))
	}
	return total, body
}

// tcpCluster is a set of real storage servers on loopback.
type tcpCluster struct {
	servers []*netx.Server
	addrs   []string
}

func startCluster(n int) (*tcpCluster, error) {
	c := &tcpCluster{}
	for i := 0; i < n; i++ {
		s, err := netx.NewServer("127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		c.servers = append(c.servers, s)
		c.addrs = append(c.addrs, s.Addr())
	}
	return c, nil
}

func (c *tcpCluster) close() {
	for _, s := range c.servers {
		_ = s.Close() // listener teardown; connErrors() is the check that matters
	}
}

// connErrors sums the servers' abnormal-connection counts; must stay 0.
func (c *tcpCluster) connErrors() int64 {
	var n int64
	for _, s := range c.servers {
		n += s.ConnErrors()
	}
	return n
}

// checkStorage sums the servers' storage accounting after blocks were
// distributed, checks the chunk count (one chunk per member and replica) and
// the servers' connection errors, and returns the mean share of the full
// chain one server stores and the bytes stored per byte of block body.
func (c *tcpCluster) checkStorage(o *outcome, blocks []*chain.Block, replication int) (fraction, perUserByte float64) {
	var stored, chunks int64
	for _, s := range c.servers {
		st := s.Stats()
		stored += st.TotalBytes()
		chunks += st.ChunkCount
	}
	want := int64(len(blocks) * len(c.servers) * replication)
	o.check(chunks == want, "cluster holds %d chunks, want %d", chunks, want)
	o.check(c.connErrors() == 0, "storage servers saw %d connection errors", c.connErrors())
	total, body := chainBytes(blocks)
	return float64(stored) / float64(len(c.servers)) / float64(total), float64(stored) / float64(body)
}

// preload distributes the blocks across the cluster with one writer per
// CPU, each over its own connections. Placement depends only on the block,
// so the stored state is the same whatever the interleaving.
func preload(addrs []string, replication int, blocks []*chain.Block) error {
	writers := runtime.GOMAXPROCS(0)
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := netx.NewCluster(addrs, replication)
			if err != nil {
				errs[w] = err
				return
			}
			defer cl.Close()
			for i := w; i < len(blocks); i += writers {
				if err := cl.DistributeBlock(blocks[i]); err != nil {
					errs[w] = fmt.Errorf("preload block %d: %w", i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
