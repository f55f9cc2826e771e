// Coded archive: tier an old block from replicated chunks into Reed-Solomon
// coded storage inside its cluster, shrink the footprint, and survive more
// failures than replication could at the same cost.
//
//	go run ./examples/codedarchive
package main

import (
	"fmt"
	"log"

	"icistrategy/internal/chain"
	"icistrategy/internal/core"
	"icistrategy/internal/metrics"
	"icistrategy/internal/storage"
	"icistrategy/internal/workload"
)

func main() {
	sys, err := core.NewSystem(core.Config{
		Nodes:       40,
		Clusters:    2, // clusters of 20
		Replication: 2, // hot blocks: two replicas per chunk
		Seed:        51,
	})
	if err != nil {
		log.Fatal(err)
	}
	gen, err := workload.NewGenerator(workload.Config{Accounts: 150, PayloadBytes: 60, Seed: 51})
	if err != nil {
		log.Fatal(err)
	}
	var blocks []*chain.Block
	for i := 0; i < 5; i++ {
		b, err := sys.ProduceBlock(gen.NextTxs(200))
		if err != nil {
			log.Fatal(err)
		}
		sys.Network().RunUntilIdle()
		blocks = append(blocks, b)
	}
	target := blocks[0] // the "cold" block to archive
	body := float64(target.BodySize())
	members, _ := sys.ClusterMembers(0)

	clusterBytes := func() float64 {
		var sum float64
		for _, m := range members {
			node, _ := sys.Node(m)
			for _, idx := range node.Store().ChunksForBlock(target.Hash()) {
				if chk, err := node.Store().Chunk(storage.ChunkID{Block: target.Hash(), Index: idx}); err == nil {
					sum += float64(len(chk.Data))
				}
			}
		}
		return sum
	}

	before := clusterBytes()
	fmt.Printf("block 0 body: %s — cluster 0 stores %s replicated (r=2, factor %.2fx)\n",
		metrics.HumanBytes(body), metrics.HumanBytes(before), before/body)

	// Archive with parity 5: RS(15, 20) — any 15 of 20 members reconstruct.
	const parity = 5
	if err := sys.ArchiveBlock(0, target.Hash(), parity, func(err error) {
		if err != nil {
			log.Fatalf("archive: %v", err)
		}
	}); err != nil {
		log.Fatal(err)
	}
	sys.Network().RunUntilIdle()

	after := clusterBytes()
	fmt.Printf("archived as RS(%d,%d): cluster stores %s coded (factor %.2fx)\n",
		len(members)-parity, len(members), metrics.HumanBytes(after), after/body)

	// Fail `parity` members' worth of shares and read anyway.
	lost := 0
	for _, m := range members[1:] {
		node, _ := sys.Node(m)
		held := len(node.Store().ChunksForBlock(target.Hash()))
		if lost+held > parity {
			continue
		}
		if err := sys.FailNode(m); err != nil {
			log.Fatal(err)
		}
		lost += held
	}
	fmt.Printf("failed members holding %d of %d shares\n", lost, len(members))

	reader, _ := sys.Node(members[0])
	reader.RetrieveBlock(target.Hash(), func(b *chain.Block, err error) {
		if err != nil {
			log.Fatalf("coded read: %v", err)
		}
		fmt.Printf("reconstructed block 0 from surviving shares: %d txs, root verified\n", len(b.Txs))
	})
	sys.Network().RunUntilIdle()

	// A replicated r=1 block would already be dead after a single unlucky
	// failure; the coded block pays only ~1.33x storage for parity-5
	// tolerance. See experiment E11 for the full frontier.
	fmt.Printf("\nstorage: replicated r=2 %.2fx  vs  coded %.2fx — and the coded block tolerates any %d share losses\n",
		before/body, after/body, parity)
}
