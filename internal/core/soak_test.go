package core

import (
	"testing"

	"icistrategy/internal/chain"
	"icistrategy/internal/simnet"
)

// TestSoakMixedLifecycle runs a long interleaved scenario — block
// production, a join with bootstrap, a permanent departure with repair,
// coded archival, full-block retrievals, and light-client queries — and
// checks the intra-cluster integrity invariant and storage accounting at
// every stage. This is the closest thing to a production day in the life
// of an ICIStrategy deployment.
func TestSoakMixedLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	sys, gen := buildSystem(t, Config{Nodes: 36, Clusters: 3, Replication: 2, Seed: 99})
	var blocks []*chain.Block

	checkIntegrity := func(stage string) {
		t.Helper()
		for _, b := range blocks {
			for c := 0; c < sys.NumClusters(); c++ {
				if err := sys.ClusterHoldsBlock(c, b.Hash()); err != nil {
					t.Fatalf("%s: %v", stage, err)
				}
			}
		}
	}

	// Phase 1: steady-state production.
	blocks = append(blocks, produceAndSettle(t, sys, gen, 5, 20)...)
	checkIntegrity("phase 1")

	// Phase 2: a node joins cluster 1 mid-life.
	var joined simnet.NodeID
	var joinErr error
	if err := sys.JoinCluster(1, func(id simnet.NodeID, err error) { joined, joinErr = id, err }); err != nil {
		t.Fatal(err)
	}
	sys.Network().RunUntilIdle()
	if joinErr != nil {
		t.Fatalf("phase 2 join: %v", joinErr)
	}
	blocks = append(blocks, produceAndSettle(t, sys, gen, 3, 20)...)
	checkIntegrity("phase 2")

	// Phase 3: a member of cluster 0 leaves permanently; repair.
	members0, _ := sys.ClusterMembers(0)
	if err := sys.RemoveNode(members0[3]); err != nil {
		t.Fatal(err)
	}
	lost := -1
	if err := sys.RepairCluster(0, func(l int) { lost = l }); err != nil {
		t.Fatal(err)
	}
	sys.Network().RunUntilIdle()
	if lost != 0 {
		t.Fatalf("phase 3 repair lost %d chunks with r=2", lost)
	}
	blocks = append(blocks, produceAndSettle(t, sys, gen, 3, 20)...)
	checkIntegrity("phase 3")

	// Phase 4: archive the oldest block in cluster 2.
	cold := blocks[0]
	if err := sys.ArchiveBlock(2, cold.Hash(), 3, func(err error) {
		if err != nil {
			t.Errorf("phase 4 archive: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	sys.Network().RunUntilIdle()
	checkIntegrity("phase 4")

	// Phase 5: every block retrievable from every cluster (auto-routing
	// through coded storage where archived), including by the newcomer.
	readers := []simnet.NodeID{0, joined}
	members2, _ := sys.ClusterMembers(2)
	readers = append(readers, members2[0])
	for _, r := range readers {
		node, err := sys.Node(r)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range blocks {
			var got *chain.Block
			var gotErr error
			node.RetrieveBlock(b.Hash(), func(blk *chain.Block, err error) {
				got, gotErr = blk, err
			})
			sys.Network().RunUntilIdle()
			if gotErr != nil {
				t.Fatalf("phase 5: reader %d block %d: %v", r, b.Header.Height, gotErr)
			}
			if got.Hash() != b.Hash() {
				t.Fatalf("phase 5: reader %d got wrong block", r)
			}
		}
	}

	// Phase 6: light-client inclusion queries against a live block.
	probe := blocks[len(blocks)-1]
	node0, _ := sys.Node(0)
	for _, tx := range probe.Txs[:5] {
		var gotErr error
		done := false
		node0.QueryTxProof(probe.Hash(), tx.ID(), func(p TxProof, err error) {
			gotErr, done = err, true
			if err == nil {
				if verr := p.Verify(); verr != nil {
					t.Errorf("phase 6: proof fails verification: %v", verr)
				}
			}
		})
		sys.Network().RunUntilIdle()
		if !done || gotErr != nil {
			t.Fatalf("phase 6: query done=%v err=%v", done, gotErr)
		}
	}

	// Phase 7: global sanity — every live node committed every block, and
	// nobody stores more than a third of the total body data.
	var totalBody int64
	for _, b := range blocks {
		totalBody += int64(b.BodySize())
	}
	for id, n := range sys.nodes {
		if sys.net.IsDown(id) {
			continue
		}
		st := n.Store().Stats()
		if st.ChunkBytes > totalBody/3 {
			t.Fatalf("phase 7: node %d stores %d of %d body bytes", id, st.ChunkBytes, totalBody)
		}
	}
}
