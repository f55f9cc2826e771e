package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"icistrategy/internal/chain"
	"icistrategy/internal/simnet"
	"icistrategy/internal/storage"
)

func TestJoinClusterBootstrap(t *testing.T) {
	sys, gen := buildSystem(t, Config{Nodes: 16, Clusters: 2, Replication: 2, Seed: 20})
	blocks := produceAndSettle(t, sys, gen, 4, 16)

	var joined simnet.NodeID
	var joinErr error
	done := false
	if err := sys.JoinCluster(0, func(id simnet.NodeID, err error) {
		joined, joinErr, done = id, err, true
	}); err != nil {
		t.Fatal(err)
	}
	sys.Network().RunUntilIdle()
	if !done {
		t.Fatal("join never completed")
	}
	if joinErr != nil {
		t.Fatalf("bootstrap: %v", joinErr)
	}
	node, err := sys.Node(joined)
	if err != nil {
		t.Fatal(err)
	}
	// The newcomer has every header...
	st := node.Store().Stats()
	if st.HeaderCount != int64(len(blocks)) {
		t.Fatalf("newcomer has %d headers, want %d", st.HeaderCount, len(blocks))
	}
	// ...and exactly the chunks rendezvous assigns it under the new
	// membership.
	members, _ := sys.ClusterMembers(0)
	for _, b := range blocks {
		seed := b.Hash().Uint64()
		parts := len(sys.clusters[0].At(b.Header.Height).Members)
		for idx := 0; idx < parts; idx++ {
			owns, err := IsOwner(seed, members, idx, 2, joined)
			if err != nil {
				t.Fatal(err)
			}
			has := node.Store().HasChunk(storage.ChunkID{Block: b.Hash(), Index: idx})
			if owns && !has {
				t.Fatalf("newcomer misses owned chunk %d of block %d", idx, b.Header.Height)
			}
			if !owns && has {
				t.Fatalf("newcomer stores unowned chunk %d of block %d", idx, b.Header.Height)
			}
		}
	}
	// Integrity still holds, and new blocks use the grown membership.
	more := produceAndSettle(t, sys, gen, 2, 18)
	for _, b := range more {
		if err := sys.ClusterHoldsBlock(0, b.Hash()); err != nil {
			t.Fatal(err)
		}
		if !node.Store().HasHeader(b.Hash()) {
			t.Fatal("newcomer did not participate in post-join blocks")
		}
	}
}

func TestBootstrapCostFraction(t *testing.T) {
	// A joining node must download roughly headers + r/c of the body data,
	// not the whole chain.
	sys, gen := buildSystem(t, Config{Nodes: 24, Clusters: 2, Replication: 1, Seed: 21})
	blocks := produceAndSettle(t, sys, gen, 5, 24)
	var totalBody int64
	for _, b := range blocks {
		totalBody += int64(b.BodySize())
	}
	sys.Network().ResetTraffic()
	var joined simnet.NodeID
	var joinErr error
	if err := sys.JoinCluster(0, func(id simnet.NodeID, err error) { joined, joinErr = id, err }); err != nil {
		t.Fatal(err)
	}
	sys.Network().RunUntilIdle()
	if joinErr != nil {
		t.Fatal(joinErr)
	}
	tr, err := sys.Network().Traffic(joined)
	if err != nil {
		t.Fatal(err)
	}
	// Cluster size ~13 post-join: expected body share ~1/13 ≈ 7.7%. Allow
	// generous slack for proofs and framing, but far below full chain.
	if tr.BytesRecv > totalBody/2 {
		t.Fatalf("bootstrap downloaded %d bytes; full chain is %d — no savings", tr.BytesRecv, totalBody)
	}
	if tr.BytesRecv == 0 {
		t.Fatal("bootstrap downloaded nothing")
	}
}

func TestRemoveNodeAndRepair(t *testing.T) {
	sys, gen := buildSystem(t, Config{Nodes: 16, Clusters: 2, Replication: 2, Seed: 22})
	blocks := produceAndSettle(t, sys, gen, 4, 16)
	members, _ := sys.ClusterMembers(0)
	victim := members[2]
	if err := sys.RemoveNode(victim); err != nil {
		t.Fatal(err)
	}
	lost := -1
	if err := sys.RepairCluster(0, func(l int) { lost = l }); err != nil {
		t.Fatal(err)
	}
	sys.Network().RunUntilIdle()
	if lost != 0 {
		t.Fatalf("repair lost %d chunks with r=2", lost)
	}
	// Integrity must hold without the departed member.
	for _, b := range blocks {
		if err := sys.ClusterHoldsBlock(0, b.Hash()); err != nil {
			t.Fatal(err)
		}
	}
	// And new blocks commit with the shrunk membership.
	more := produceAndSettle(t, sys, gen, 2, 16)
	for _, b := range more {
		if err := sys.ClusterHoldsBlock(0, b.Hash()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRepairWithReplicationOneLosesChunks(t *testing.T) {
	// r=1 has no redundancy: a departed member's chunks are unrecoverable
	// from inside the cluster. This is exactly the fragility the
	// availability experiment quantifies.
	sys, gen := buildSystem(t, Config{Nodes: 16, Clusters: 2, Replication: 1, Seed: 23})
	produceAndSettle(t, sys, gen, 4, 16)
	members, _ := sys.ClusterMembers(0)
	victim := members[1]
	vnode, _ := sys.Node(victim)
	victimChunks := vnode.Store().Stats().ChunkCount
	if victimChunks == 0 {
		t.Skip("victim owned no chunks under this seed")
	}
	if err := sys.RemoveNode(victim); err != nil {
		t.Fatal(err)
	}
	lost := -1
	if err := sys.RepairCluster(0, func(l int) { lost = l }); err != nil {
		t.Fatal(err)
	}
	sys.Network().RunUntilIdle()
	if int64(lost) != victimChunks {
		t.Fatalf("lost %d chunks, victim owned %d", lost, victimChunks)
	}
}

func TestJoinNeedsLiveSponsor(t *testing.T) {
	sys, gen := buildSystem(t, Config{Nodes: 8, Clusters: 2, Replication: 1, Seed: 24})
	produceAndSettle(t, sys, gen, 1, 8)
	members, _ := sys.ClusterMembers(0)
	for _, m := range members {
		if err := sys.FailNode(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.JoinCluster(0, func(simnet.NodeID, error) {}); err == nil {
		t.Fatal("join into a dead cluster accepted")
	}
}

func TestRemoveLastMemberRefused(t *testing.T) {
	sys, _ := buildSystem(t, Config{Nodes: 4, Clusters: 4, Replication: 1, Seed: 25})
	members, _ := sys.ClusterMembers(0)
	if err := sys.RemoveNode(members[0]); err == nil {
		t.Fatal("removing a cluster's last member accepted")
	}
}

func TestIsolatedClusterStallsOthersProceed(t *testing.T) {
	// Partition cluster 0 away from the rest of the network: the producer
	// cannot reach its leader, so cluster 0 stalls, while cluster 1
	// commits normally. Healing lets a later block flow again.
	sys, gen := buildSystem(t, Config{Nodes: 16, Clusters: 2, Replication: 1, Seed: 70})
	members0, _ := sys.ClusterMembers(0)
	rest := make([]simnet.NodeID, 0, 8)
	for id := simnet.NodeID(0); id < 16; id++ {
		isolated := false
		for _, m := range members0 {
			if m == id {
				isolated = true
				break
			}
		}
		if !isolated {
			rest = append(rest, id)
		}
	}
	sys.Network().Partition(members0, rest)
	blocks := produceAndSettle(t, sys, gen, 1, 16)
	b := blocks[0]
	ok0, err := sys.ClusterCommitted(0, b.Hash())
	if err != nil {
		t.Fatal(err)
	}
	ok1, err := sys.ClusterCommitted(1, b.Hash())
	if err != nil {
		t.Fatal(err)
	}
	// The proposer lives in one side of the partition; its own side's
	// cluster commits, the other stalls.
	if ok0 == ok1 {
		t.Fatalf("partition had no effect: cluster0=%v cluster1=%v", ok0, ok1)
	}
	sys.Network().Heal()
	more := produceAndSettle(t, sys, gen, 1, 16)
	if !sys.AllCommitted(more[0].Hash()) {
		t.Fatal("post-heal block did not commit everywhere")
	}
}

func TestBootstrapRoutesAroundCorruptedSource(t *testing.T) {
	// Corrupt chunks on one member before a join: fetched chunks that fail
	// verification are refused and the bootstrap falls back to the other
	// replica (r=2), still completing successfully.
	sys, gen := buildSystem(t, Config{Nodes: 16, Clusters: 2, Replication: 2, Seed: 71})
	blocks := produceAndSettle(t, sys, gen, 3, 16)
	members, _ := sys.ClusterMembers(0)
	saboteur, _ := sys.Node(members[0])
	corrupted := 0
	for _, b := range blocks {
		for _, idx := range saboteur.Store().ChunksForBlock(b.Hash()) {
			if saboteur.Store().Corrupt(storage.ChunkID{Block: b.Hash(), Index: idx}) {
				corrupted++
			}
		}
	}
	if corrupted == 0 {
		t.Skip("saboteur held no chunks under this seed")
	}
	var joinErr error
	done := false
	if err := sys.JoinCluster(0, func(_ simnet.NodeID, err error) { joinErr, done = err, true }); err != nil {
		t.Fatal(err)
	}
	sys.Network().RunUntilIdle()
	if !done {
		t.Fatal("join never completed")
	}
	if joinErr != nil {
		t.Fatalf("bootstrap failed despite live replicas: %v", joinErr)
	}
}

func TestRepairRoutesAroundCorruptedSource(t *testing.T) {
	sys, gen := buildSystem(t, Config{Nodes: 18, Clusters: 2, Replication: 3, Seed: 72})
	blocks := produceAndSettle(t, sys, gen, 3, 18)
	members, _ := sys.ClusterMembers(0)
	// Corrupt everything on one surviving member, then remove another.
	saboteur, _ := sys.Node(members[0])
	for _, b := range blocks {
		for _, idx := range saboteur.Store().ChunksForBlock(b.Hash()) {
			saboteur.Store().Corrupt(storage.ChunkID{Block: b.Hash(), Index: idx})
		}
	}
	if err := sys.RemoveNode(members[2]); err != nil {
		t.Fatal(err)
	}
	lost := -1
	if err := sys.RepairCluster(0, func(l int) { lost = l }); err != nil {
		t.Fatal(err)
	}
	sys.Network().RunUntilIdle()
	if lost != 0 {
		t.Fatalf("repair lost %d chunks despite r=3 and one corrupted member", lost)
	}
}

// TestLifecycleScheduleGolden pins the whole schedule of one seeded run
// through every System and Node verb under message loss, duplication and
// reordering, so retries and timers fire: produce, a read, an inclusion
// query, join, leave, rejoin, removal with repair, archival and an archived
// read. The digest covers the simulator's full message trace, the final
// virtual time, every counter of the registry and every node's final store
// stats, so a message a node was delivered but did nothing with shows in
// what it stores. A change that moves it has changed what some node sends,
// when, or in what order, or what some node keeps.
func TestLifecycleScheduleGolden(t *testing.T) {
	const want = "e9c4cd39bc2d73a746c42501d2b853ba675f730d32e3f7936fceb53382365113"
	sys, gen := buildSystem(t, Config{Nodes: 16, Clusters: 2, Replication: 2, Seed: 41})
	net := sys.Network()
	net.EnableTrace()
	net.EnableFaults(41, simnet.FaultConfig{DropRate: 0.04, DupRate: 0.05, ReorderRate: 0.1})
	blocks := produceAndSettle(t, sys, gen, 4, 16)

	fired := 0
	members, _ := sys.ClusterMembers(0)
	reader, _ := sys.Node(members[0])
	reader.RetrieveBlock(blocks[0].Hash(), func(*chain.Block, error) { fired++ })
	reader.QueryTxProof(blocks[1].Hash(), blocks[1].Txs[3].ID(), func(TxProof, error) { fired++ })
	net.RunUntilIdle()

	if err := sys.JoinCluster(0, func(simnet.NodeID, error) { fired++ }); err != nil {
		t.Fatal(err)
	}
	net.RunUntilIdle()
	if err := sys.LeaveCluster(members[1], func(error) { fired++ }); err != nil {
		t.Fatal(err)
	}
	net.RunUntilIdle()
	if err := sys.RejoinCluster(members[1], func(error) { fired++ }); err != nil {
		t.Fatal(err)
	}
	net.RunUntilIdle()
	if err := sys.RemoveNode(members[2]); err != nil {
		t.Fatal(err)
	}
	if err := sys.RepairCluster(0, func(int) { fired++ }); err != nil {
		t.Fatal(err)
	}
	net.RunUntilIdle()
	blocks = append(blocks, produceAndSettle(t, sys, gen, 1, 16)...)

	if err := sys.ArchiveBlock(1, blocks[0].Hash(), 1, func(error) { fired++ }); err != nil {
		t.Fatal(err)
	}
	net.RunUntilIdle()
	members1, _ := sys.ClusterMembers(1)
	archReader, _ := sys.Node(members1[1])
	archReader.RetrieveBlock(blocks[0].Hash(), func(*chain.Block, error) { fired++ })
	net.RunUntilIdle()
	if fired != 8 {
		t.Fatalf("%d of 8 callbacks fired", fired)
	}

	h := sha256.New()
	fmt.Fprintf(h, "%s\nnow %v\n", net.TraceString(), net.Now())
	snap := sys.Registry().Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "%s %v\n", name, snap[name])
	}
	for id := simnet.NodeID(0); id < sys.nextID; id++ {
		fmt.Fprintf(h, "node %d %+v\n", id, sys.nodes[id].store.Stats())
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("lifecycle schedule digest %s, want %s", got, want)
	}
}
