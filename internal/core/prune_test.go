package core

import (
	"fmt"
	"testing"

	"icistrategy/internal/chain"
	"icistrategy/internal/simnet"
)

func TestPruneAfterJoinRestoresExactFootprint(t *testing.T) {
	// A join hands some chunks to the newcomer; the previous owners keep
	// their copies until pruned. After pruning, the cluster's storage must
	// equal exactly what the analytic accountant predicts for the new
	// membership.
	sys, gen := buildSystem(t, Config{Nodes: 16, Clusters: 2, Replication: 2, Seed: 60})
	blocks := produceAndSettle(t, sys, gen, 4, 16)

	var joinErr error
	if err := sys.JoinCluster(0, func(_ simnet.NodeID, err error) { joinErr = err }); err != nil {
		t.Fatal(err)
	}
	sys.Network().RunUntilIdle()
	if joinErr != nil {
		t.Fatal(joinErr)
	}

	members, _ := sys.ClusterMembers(0)
	clusterChunkBytes := func() int64 {
		var sum int64
		for _, m := range members {
			n, _ := sys.Node(m)
			sum += n.Store().Stats().ChunkBytes
		}
		return sum
	}
	before := clusterChunkBytes()
	freed, err := sys.PruneCluster(0)
	if err != nil {
		t.Fatal(err)
	}
	after := clusterChunkBytes()
	if freed == 0 {
		t.Fatal("join left nothing to prune — ownership never moved")
	}
	if after != before-freed {
		t.Fatalf("accounting: before %d, freed %d, after %d", before, freed, after)
	}
	// Exact expectation: every chunk stored exactly r times across the
	// cluster under the current membership.
	var expected int64
	for _, b := range blocks {
		parts := len(sys.clusters[0].At(b.Header.Height).Members)
		counts, cerr := SplitCounts(len(b.Txs), parts)
		if cerr != nil {
			t.Fatal(cerr)
		}
		txStart := 0
		for idx := 0; idx < parts; idx++ {
			sub := 4
			for _, tx := range b.Txs[txStart : txStart+counts[idx]] {
				sub += tx.EncodedSize()
			}
			expected += 2 * int64(sub) // r = 2 owners
			txStart += counts[idx]
		}
	}
	if after != expected {
		t.Fatalf("post-prune cluster stores %d bytes, placement predicts %d", after, expected)
	}
	// Integrity untouched.
	for _, b := range blocks {
		if err := sys.ClusterHoldsBlock(0, b.Hash()); err != nil {
			t.Fatal(err)
		}
	}
	// Reads still work against the pruned cluster.
	reader, _ := sys.Node(members[0])
	var gotErr error
	reader.RetrieveBlock(blocks[2].Hash(), func(_ *chain.Block, err error) {
		gotErr = err
	})
	sys.Network().RunUntilIdle()
	if gotErr != nil {
		t.Fatalf("read after prune: %v", gotErr)
	}
}

func TestPruneNoopWhenStable(t *testing.T) {
	sys, gen := buildSystem(t, Config{Nodes: 12, Clusters: 2, Replication: 1, Seed: 61})
	produceAndSettle(t, sys, gen, 3, 12)
	freed, err := sys.PruneCluster(0)
	if err != nil {
		t.Fatal(err)
	}
	if freed != 0 {
		t.Fatalf("stable cluster pruned %d bytes", freed)
	}
}

func TestPruneKeepsArchivedShares(t *testing.T) {
	sys, _, target := archiveFixture(t, 62, 3)
	members, _ := sys.ClusterMembers(0)
	if _, err := sys.PruneCluster(0); err != nil {
		t.Fatal(err)
	}
	// The archived block must still reconstruct after pruning.
	reader, _ := sys.Node(members[0])
	var gotErr error
	reader.RetrieveBlock(target.Hash(), func(_ *chain.Block, err error) {
		gotErr = err
	})
	sys.Network().RunUntilIdle()
	if gotErr != nil {
		t.Fatalf("archived block unreadable after prune: %v", gotErr)
	}

	// Nothing moves a coded share after archival — repair, bootstrap and
	// handoff skip archived blocks — so its holder is its owner whatever the
	// roster ranks first now. Three joins then a prune must leave every
	// share where it is.
	for seed := uint64(30); seed < 40; seed++ {
		t.Run(fmt.Sprint("seed ", seed), func(t *testing.T) {
			sys, _, target := archiveFixture(t, seed, 2)
			for j := 0; j < 3; j++ {
				var joinErr error
				if err := sys.JoinCluster(0, func(_ simnet.NodeID, err error) { joinErr = err }); err != nil {
					t.Fatal(err)
				}
				sys.Network().RunUntilIdle()
				if joinErr != nil {
					t.Fatal(joinErr)
				}
			}
			if _, err := sys.PruneCluster(0); err != nil {
				t.Fatal(err)
			}
			if err := sys.ClusterHoldsBlock(0, target.Hash()); err != nil {
				t.Fatalf("archived block lost to pruning after three joins: %v", err)
			}
		})
	}
}

func TestPruneClusterRange(t *testing.T) {
	sys, _ := buildSystem(t, Config{Nodes: 8, Clusters: 2, Replication: 1, Seed: 63})
	if _, err := sys.PruneCluster(5); err == nil {
		t.Fatal("bad cluster index accepted")
	}
}
