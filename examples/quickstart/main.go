// Quickstart: stand up an ICIStrategy network, commit a few blocks through
// collaborative storage and verification, and read a historical block back
// from a cluster.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"icistrategy/internal/chain"
	"icistrategy/internal/core"
	"icistrategy/internal/metrics"
	"icistrategy/internal/simnet"
	"icistrategy/internal/workload"
)

func main() {
	// 1. Build a 48-node network partitioned into 4 latency-aware clusters.
	sys, err := core.NewSystem(core.Config{
		Nodes:       48,
		Clusters:    4,
		Replication: 2, // every chunk lives on two cluster members
		Seed:        7,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Generate a signed transaction workload.
	gen, err := workload.NewGenerator(workload.Config{
		Accounts:     100,
		PayloadBytes: 40, // Bitcoin-like ~250-byte transactions
		Seed:         7,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Produce blocks. Each block is split into chunks inside every
	//    cluster; members verify only their own chunk and vote; the block
	//    commits once every chunk is covered.
	var blocks []*chain.Block
	for i := 0; i < 5; i++ {
		b, err := sys.ProduceBlock(gen.NextTxs(120))
		if err != nil {
			log.Fatal(err)
		}
		sys.Network().RunUntilIdle() // drive the simulated network
		fmt.Printf("block %d (%s): committed by %d/48 nodes\n",
			b.Header.Height, b.Hash().Short(), sys.CommitCount(b.Hash()))
		blocks = append(blocks, b)
	}

	// 4. Every cluster collectively holds every block — but no single node
	//    stores more than a fraction of the chain.
	var total int64
	for _, b := range blocks {
		total += int64(b.BodySize())
	}
	st, err := sys.NodeStorage(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nchain body: %s — node 0 stores only %s (plus %d headers)\n",
		metrics.HumanBytes(float64(total)), metrics.HumanBytes(float64(st.ChunkBytes)), st.HeaderCount)

	// 5. Read a historical block back: the reader gathers chunks from its
	//    cluster, reassembles, and verifies against the Merkle root.
	reader, err := sys.Node(simnet.NodeID(3))
	if err != nil {
		log.Fatal(err)
	}
	target := blocks[2]
	reader.RetrieveBlock(target.Hash(), func(b *chain.Block, err error) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nretrieved block %d with %d txs — Merkle root verified: %s\n",
			b.Header.Height, len(b.Txs), b.Header.MerkleRoot.Short())
	})
	sys.Network().RunUntilIdle()
}
