// Fault recovery: crash nodes, remove a member permanently, repair the
// cluster's integrity from replicas, and watch a degraded read survive —
// then see what r=1 cannot survive.
//
//	go run ./examples/faultrecovery
package main

import (
	"fmt"
	"log"

	"icistrategy/internal/chain"
	"icistrategy/internal/core"
	"icistrategy/internal/storage"
	"icistrategy/internal/workload"
)

func main() {
	sys, err := core.NewSystem(core.Config{
		Nodes:       40,
		Clusters:    2, // clusters of 20
		Replication: 2,
		Seed:        23,
	})
	if err != nil {
		log.Fatal(err)
	}
	gen, err := workload.NewGenerator(workload.Config{Accounts: 120, PayloadBytes: 30, Seed: 23})
	if err != nil {
		log.Fatal(err)
	}

	var blocks []*chain.Block
	for i := 0; i < 6; i++ {
		b, err := sys.ProduceBlock(gen.NextTxs(100))
		if err != nil {
			log.Fatal(err)
		}
		sys.Network().RunUntilIdle()
		blocks = append(blocks, b)
	}
	fmt.Printf("committed %d blocks across 2 clusters (r=2)\n\n", len(blocks))

	members, err := sys.ClusterMembers(0)
	if err != nil {
		log.Fatal(err)
	}

	// 1. Crash a member: reads keep working because every chunk has a
	//    second replica.
	crashed := members[4]
	if err := sys.FailNode(crashed); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("crashed node %d — attempting a degraded read of block 3...\n", crashed)
	reader, err := sys.Node(members[0])
	if err != nil {
		log.Fatal(err)
	}
	reader.RetrieveBlock(blocks[3].Hash(), func(b *chain.Block, err error) {
		if err != nil {
			log.Fatalf("degraded read failed: %v", err)
		}
		fmt.Printf("  read OK: %d txs, root %s\n", len(b.Txs), b.Header.MerkleRoot.Short())
	})
	sys.Network().RunUntilIdle()
	if err := sys.RecoverNode(crashed); err != nil {
		log.Fatal(err)
	}

	// 2. Permanent departure: remove a member and repair. Rendezvous
	//    placement moves only the departed node's chunks; the new owners
	//    fetch them from surviving replicas.
	victim := members[7]
	vnode, err := sys.Node(victim)
	if err != nil {
		log.Fatal(err)
	}
	victimChunks := vnode.Store().Stats().ChunkCount
	if err := sys.RemoveNode(victim); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nremoved node %d permanently (it held %d chunks)\n", victim, victimChunks)
	if err := sys.RepairCluster(0, func(lost int) {
		fmt.Printf("  repair finished: %d chunks unrecoverable\n", lost)
	}); err != nil {
		log.Fatal(err)
	}
	sys.Network().RunUntilIdle()

	// 3. Integrity invariant after all of that: every cluster still
	//    reassembles every block byte-for-byte.
	for _, b := range blocks {
		for c := 0; c < sys.NumClusters(); c++ {
			if err := sys.ClusterHoldsBlock(c, b.Hash()); err != nil {
				log.Fatalf("integrity violated: %v", err)
			}
		}
	}
	fmt.Println("\nintra-cluster integrity verified for every block after crash + departure + repair")

	// 4. Corruption is detected, not served: flip a byte in a stored chunk
	//    and watch the read path route around it.
	holder, err := sys.Node(members[1])
	if err != nil {
		log.Fatal(err)
	}
	corrupted := false
	for _, b := range blocks {
		for _, idx := range holder.Store().ChunksForBlock(b.Hash()) {
			if holder.Store().Corrupt(storage.ChunkID{Block: b.Hash(), Index: idx}) {
				fmt.Printf("\ncorrupted chunk %d of block %d on node %d\n", idx, b.Header.Height, members[1])
				corrupted = true
			}
			break
		}
		if corrupted {
			// The corrupted copy fails its stored checksum (CRC-32C) and
			// is withheld; the replica serves the read instead.
			reader.RetrieveBlock(b.Hash(), func(rb *chain.Block, err error) {
				if err != nil {
					log.Fatalf("read after corruption failed: %v", err)
				}
				fmt.Printf("  read still OK (%d txs) — replica served the verified copy\n", len(rb.Txs))
			})
			sys.Network().RunUntilIdle()
			break
		}
	}
}
