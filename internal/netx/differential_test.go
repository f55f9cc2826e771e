package netx

import (
	"bytes"
	"reflect"
	"testing"

	"icistrategy/internal/chain"
	"icistrategy/internal/core"
	"icistrategy/internal/storage"
	"icistrategy/internal/workload"
)

// TestSimAndTCPStoreTheSameChunks is the sim-vs-TCP differential (ROADMAP
// item 2's acceptance, first half): the same seeded blocks go through a
// one-cluster core.System on the simulator (leader splits, owners verify,
// vote and persist) and through Cluster.DistributeBlock over loopback
// servers (client splits, servers verify and store). Both drivers call the
// same split and the same group check and place with the same rendezvous
// hashing, so every member must end up holding the same (block, index) set,
// each chunk with the same bytes, part count, position and proofs, and the
// same ChunkBytes.
//
// The third case is a block of fewer transactions than members: SplitCounts
// then yields empty trailing groups, and both drivers store those as
// four-byte chunks (an empty sub-body) rather than refusing the block.
func TestSimAndTCPStoreTheSameChunks(t *testing.T) {
	const n, r = 5, 2
	for _, tc := range []struct {
		name        string
		seed        uint64
		blocks, txs int
	}{
		{"seed 7", 7, 3, 37},
		{"seed 1009", 1009, 3, 37},
		{"fewer transactions than members", 7, 2, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := core.NewSystem(core.Config{Nodes: n, Clusters: 1, Replication: r, Seed: tc.seed})
			if err != nil {
				t.Fatal(err)
			}
			gen, err := workload.NewGenerator(workload.Config{Accounts: 40, PayloadBytes: 20, Seed: tc.seed})
			if err != nil {
				t.Fatal(err)
			}
			servers, addrs := startServers(t, n)
			cl, err := NewCluster(addrs, r)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			var blocks []*chain.Block
			for i := 0; i < tc.blocks; i++ {
				b, err := sys.ProduceBlock(gen.NextTxs(tc.txs))
				if err != nil {
					t.Fatal(err)
				}
				sys.Network().RunUntilIdle()
				if !sys.AllCommitted(b.Hash()) {
					t.Fatalf("block %d did not commit on the simulator", i)
				}
				if err := cl.DistributeBlock(b); err != nil {
					t.Fatalf("block %d over TCP: %v", i, err)
				}
				blocks = append(blocks, b)
			}

			members, err := sys.ClusterMembers(0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(members, memberIDs(n)) {
				t.Fatalf("simulator members %v, want identities 0..%d as netx.NewCluster assigns them", members, n-1)
			}
			held := 0
			for i, id := range members {
				node, err := sys.Node(id)
				if err != nil {
					t.Fatal(err)
				}
				tcp := readState(t, addrs[i], blocks)
				if sim := node.Store().Stats(); sim.ChunkBytes != tcp.Stats.ChunkBytes || sim.ChunkCount != tcp.Stats.ChunkCount || sim.ChunkBytes != servers[i].Stats().ChunkBytes {
					t.Errorf("member %d: simulator holds %d chunks in %d bytes, TCP server %d in %d", id, sim.ChunkCount, sim.ChunkBytes, tcp.Stats.ChunkCount, tcp.Stats.ChunkBytes)
				}
				for bi, b := range blocks {
					idxs := node.Store().ChunksForBlock(b.Hash())
					served := tcp.Chunks[bi].Chunks
					if len(idxs) != len(served) {
						t.Errorf("member %d block %d: simulator holds chunks %v, TCP server %d chunks", id, bi, idxs, len(served))
						continue
					}
					for k, idx := range idxs {
						sim, err := node.Store().Chunk(storage.ChunkID{Block: b.Hash(), Index: idx})
						if err != nil {
							t.Fatal(err)
						}
						got := served[k]
						if got.Index != idx || got.Parts != sim.Parts || got.TxStart != sim.TxStart ||
							!bytes.Equal(got.Data, sim.Data) || !sameProofs(got.Proofs, sim.Proofs) {
							t.Errorf("member %d block %d chunk %d: simulator stores parts=%d txStart=%d %d bytes %d proofs, TCP server index=%d parts=%d txStart=%d %d bytes %d proofs",
								id, bi, idx, sim.Parts, sim.TxStart, len(sim.Data), len(sim.Proofs),
								got.Index, got.Parts, got.TxStart, len(got.Data), len(got.Proofs))
						}
						held++
					}
				}
			}
			if want := tc.blocks * n * r; held != want {
				t.Fatalf("compared %d chunks, want %d (every chunk on %d members)", held, want, r)
			}
			for _, b := range blocks {
				if err := sys.ClusterHoldsBlock(0, b.Hash()); err != nil {
					t.Errorf("simulator: %v", err)
				}
				if got, err := cl.RetrieveBlock(b.Header); err != nil || got.Hash() != b.Hash() {
					t.Errorf("TCP read of block %d: %v", b.Header.Height, err)
				}
			}
		})
	}
}

// sameProofs compares proof lists, an empty one equal to a nil one (a
// decoded empty group carries nil, a split one an empty slice).
func sameProofs(a, b []chain.Proof) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}
