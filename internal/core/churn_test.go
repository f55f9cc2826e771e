package core

import (
	"errors"
	"slices"
	"testing"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/simnet"
	"icistrategy/internal/storage"
)

func TestLeaveClusterHandsOffChunks(t *testing.T) {
	sys, gen := buildSystem(t, Config{Nodes: 16, Clusters: 2, Replication: 2, Seed: 80})
	blocks := produceAndSettle(t, sys, gen, 4, 16)
	members, _ := sys.ClusterMembers(0)
	leaver := members[1]
	lnode, _ := sys.Node(leaver)
	if lnode.Store().Stats().ChunkCount == 0 {
		t.Skip("leaver owned no chunks under this seed")
	}

	moved := -1
	var herr error
	done := false
	if err := sys.LeaveCluster(leaver, func(m int, err error) {
		moved, herr, done = m, err, true
	}); err != nil {
		t.Fatal(err)
	}
	sys.Network().RunUntilIdle()
	if !done {
		t.Fatal("handoff never completed")
	}
	if herr != nil {
		t.Fatalf("graceful leave: %v", herr)
	}
	if moved == 0 {
		t.Fatal("leaver handed off nothing despite holding chunks")
	}
	if !sys.Network().IsDown(leaver) {
		t.Fatal("leaver still up after departing")
	}

	// The departure epoch is current AND already placed: the handoff moved
	// the data, so no repair is needed at all.
	seq, _ := sys.ClusterEpoch(0)
	if seq != 1 {
		t.Fatalf("epoch seq = %d after one leave, want 1", seq)
	}
	if got := sys.clusters[0].PlacementAt(0).Seq; got != 1 {
		t.Fatalf("placement seq = %d after acknowledged handoff, want 1", got)
	}
	for _, b := range blocks {
		if err := sys.ClusterHoldsBlock(0, b.Hash()); err != nil {
			t.Fatalf("integrity after leave, no repair: %v", err)
		}
	}
	fetchesBefore := sys.Registry().Counter("ici.repair.chunk_fetches").Value()
	lost := -1
	if err := sys.RepairCluster(0, func(l int) { lost = l }); err != nil {
		t.Fatal(err)
	}
	sys.Network().RunUntilIdle()
	if lost != 0 {
		t.Fatalf("repair after graceful leave lost %d chunks", lost)
	}
	if d := sys.Registry().Counter("ici.repair.chunk_fetches").Value() - fetchesBefore; d != 0 {
		t.Fatalf("graceful leave still needed %d repair fetches", d)
	}

	// Pre-departure blocks stay retrievable and new blocks commit under the
	// shrunk membership.
	reader, _ := sys.Node(members[0])
	var gotErr error
	reader.RetrieveBlock(blocks[0].Hash(), func(_ *chain.Block, err error) { gotErr = err })
	sys.Network().RunUntilIdle()
	if gotErr != nil {
		t.Fatalf("pre-departure retrieval after leave: %v", gotErr)
	}
	more := produceAndSettle(t, sys, gen, 2, 16)
	for _, b := range more {
		if err := sys.ClusterHoldsBlock(0, b.Hash()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLeaveClusterUnderCorruption hands a leaver's chunks off over a wire
// that corrupts half the messages with ChaosCorrupter: a handoff whose bytes
// were flipped is refused by its gaining member, so the departure either
// succeeds or reports ErrHandoffFailed, and no member stores a chunk that
// fails the owner's check.
func TestLeaveClusterUnderCorruption(t *testing.T) {
	sys, gen := buildSystem(t, Config{Nodes: 16, Clusters: 2, Replication: 2, Seed: 80})
	produceAndSettle(t, sys, gen, 4, 16)
	chaos, flipped := ChaosCorrupter(), 0
	sys.Network().EnableFaults(80, simnet.FaultConfig{CorruptRate: 0.5, Corrupt: func(msg simnet.Message, rng *blockcrypto.RNG) (any, bool) {
		out, ok := chaos(msg, rng)
		if ok && msg.Kind == (handoffMsg{}).kind() {
			flipped++
		}
		return out, ok
	}})
	members, _ := sys.ClusterMembers(0)
	var herr error
	done := false
	if err := sys.LeaveCluster(members[1], func(_ int, err error) { herr, done = err, true }); err != nil {
		t.Fatal(err)
	}
	sys.Network().RunUntilIdle()
	if !done {
		t.Fatal("handoff never completed")
	}
	if herr != nil && !errors.Is(herr, ErrHandoffFailed) {
		t.Fatalf("graceful leave under corruption: %v, want nil or %v", herr, ErrHandoffFailed)
	}
	if flipped == 0 {
		t.Fatal("no handoff was corrupted: nothing was tested")
	}
	for id, n := range sys.nodes {
		for _, h := range n.store.Headers() {
			for _, idx := range n.store.ChunksForBlock(h.Hash()) {
				chk := storedChunk(t, n.store, storage.ChunkID{Block: h.Hash(), Index: idx})
				if _, err := AdoptChunk(h, idx, chk.Parts, chk.TxStart, chk.Data, chk.Proofs); err != nil {
					t.Errorf("node %d stores chunk %d of block %d that fails the owner's check: %v", id, idx, h.Height, err)
				}
			}
		}
	}
}

func TestLeaveClusterValidation(t *testing.T) {
	sys, gen := buildSystem(t, Config{Nodes: 8, Clusters: 2, Replication: 1, Seed: 81})
	produceAndSettle(t, sys, gen, 1, 8)
	members, _ := sys.ClusterMembers(0)
	if err := sys.FailNode(members[0]); err != nil {
		t.Fatal(err)
	}
	if err := sys.LeaveCluster(members[0], func(int, error) {}); err == nil {
		t.Fatal("graceful leave of a crashed node accepted")
	}
	single, _ := buildSystem(t, Config{Nodes: 2, Clusters: 2, Replication: 1, Seed: 81})
	m0, _ := single.ClusterMembers(0)
	if err := single.LeaveCluster(m0[0], func(int, error) {}); err == nil {
		t.Fatal("last member allowed to leave")
	}
}

func TestRejoinClusterSameIdentity(t *testing.T) {
	sys, gen := buildSystem(t, Config{Nodes: 16, Clusters: 2, Replication: 2, Seed: 82})
	pre := produceAndSettle(t, sys, gen, 3, 16)
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
		t.Fatal("repair after removal lost chunks")
	}
	mid := produceAndSettle(t, sys, gen, 3, 16)

	var rerr error
	done := false
	if err := sys.RejoinCluster(victim, func(err error) { rerr, done = err, true }); err != nil {
		t.Fatal(err)
	}
	sys.Network().RunUntilIdle()
	if !done {
		t.Fatal("rejoin never completed")
	}
	if rerr != nil {
		t.Fatalf("rejoin bootstrap: %v", rerr)
	}

	// Same identity is back in membership: remove + rejoin = two epochs.
	cur, _ := sys.ClusterMembers(0)
	if !slices.Contains(cur, victim) {
		t.Fatal("rejoined node not in membership")
	}
	seq, _ := sys.ClusterEpoch(0)
	if seq != 2 {
		t.Fatalf("epoch seq = %d after remove+rejoin, want 2", seq)
	}

	// The rejoined node holds every chunk it owns under the rejoin epoch,
	// including blocks produced while it was away.
	node, _ := sys.Node(victim)
	all := append(append([]*chain.Block(nil), pre...), mid...)
	for _, b := range all {
		parts := len(sys.clusters[0].At(b.Header.Height).Members)
		for idx := 0; idx < parts; idx++ {
			owns, err := IsOwner(b.Hash().Uint64(), cur, idx, 2, victim)
			if err != nil {
				t.Fatal(err)
			}
			if owns && !node.Store().HasChunk(storage.ChunkID{Block: b.Hash(), Index: idx}) {
				t.Fatalf("rejoined node misses owned chunk %d of height %d", idx, b.Header.Height)
			}
		}
	}

	// And it participates in new blocks under its original keypair.
	more := produceAndSettle(t, sys, gen, 2, 16)
	for _, b := range more {
		if err := sys.ClusterHoldsBlock(0, b.Hash()); err != nil {
			t.Fatal(err)
		}
		if !node.Store().HasHeader(b.Hash()) {
			t.Fatal("rejoined node did not participate in post-rejoin blocks")
		}
	}
}

func TestRejoinRequiresDeparture(t *testing.T) {
	sys, gen := buildSystem(t, Config{Nodes: 8, Clusters: 2, Replication: 1, Seed: 83})
	produceAndSettle(t, sys, gen, 1, 8)
	members, _ := sys.ClusterMembers(0)
	if err := sys.RejoinCluster(members[0], func(error) {}); err == nil {
		t.Fatal("rejoin of a current member accepted")
	}

	// A node still handing off its chunks has not departed yet: the leave's
	// callback would take it down after a rejoin had readmitted it.
	sys, gen = buildSystem(t, Config{Nodes: 16, Clusters: 2, Replication: 2, Seed: 82})
	produceAndSettle(t, sys, gen, 3, 16)
	members, _ = sys.ClusterMembers(0)
	leaver := members[2]
	left := false
	if err := sys.LeaveCluster(leaver, func(_ int, err error) {
		if err != nil {
			t.Errorf("leave: %v", err)
		}
		left = true
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.RejoinCluster(leaver, func(error) {}); err == nil {
		t.Fatal("rejoin accepted while the leave's handoff was still running")
	}
	sys.Network().RunUntilIdle()
	if !left || !sys.Network().IsDown(leaver) {
		t.Fatalf("leave finished=%v, leaver down=%v: want a finished leave and a down node", left, sys.Network().IsDown(leaver))
	}
	var rejoinErr error
	rejoined := false
	if err := sys.RejoinCluster(leaver, func(err error) { rejoinErr, rejoined = err, true }); err != nil {
		t.Fatalf("rejoin after the leave finished: %v", err)
	}
	sys.Network().RunUntilIdle()
	if !rejoined || rejoinErr != nil {
		t.Fatalf("rejoin after the leave: fired=%v err=%v", rejoined, rejoinErr)
	}
	now, _ := sys.ClusterMembers(0)
	if !slices.Contains(now, leaver) || sys.Network().IsDown(leaver) {
		t.Fatalf("rejoined node: member=%v down=%v, want a live member", slices.Contains(now, leaver), sys.Network().IsDown(leaver))
	}
}

// TestRetrievePreDepartureBlockAfterTwoRemovals is the stale-placement
// regression at the heart of this bugfix family: removing members must not
// re-resolve historic blocks against the post-churn membership. Two members
// depart back to back with no repair in between; every pre-departure block
// must keep its write-epoch parts count, survive pruning untouched (the
// departed epochs have not migrated, so the pre-churn owners ARE the data),
// and remain fully retrievable from the survivors.
func TestRetrievePreDepartureBlockAfterTwoRemovals(t *testing.T) {
	sys, gen := buildSystem(t, Config{Nodes: 16, Clusters: 2, Replication: 2, Seed: 84})
	blocks := produceAndSettle(t, sys, gen, 4, 16)
	members, _ := sys.ClusterMembers(0)
	writeParts := len(members)

	// Pick two victims that co-own no chunk, so r=2 keeps one live replica
	// of everything (co-owning victims would be genuine data loss, not a
	// placement bug).
	v1 := members[1]
	v2 := simnet.NodeID(0)
	foundPair := false
	for _, cand := range members {
		if cand == v1 || cand == members[0] {
			continue
		}
		shared := false
		for _, b := range blocks {
			seed := b.Hash().Uint64()
			for idx := 0; idx < writeParts && !shared; idx++ {
				owners, err := Owners(seed, members, idx, 2)
				if err != nil {
					t.Fatal(err)
				}
				if slices.Contains(owners, v1) && slices.Contains(owners, cand) {
					shared = true
				}
			}
			if shared {
				break
			}
		}
		if !shared {
			v2, foundPair = cand, true
			break
		}
	}
	if !foundPair {
		t.Skip("no disjoint victim pair under this seed")
	}

	if err := sys.RemoveNode(v1); err != nil {
		t.Fatal(err)
	}
	if err := sys.RemoveNode(v2); err != nil {
		t.Fatal(err)
	}

	// Historic blocks keep their write-epoch arithmetic.
	for _, b := range blocks {
		if got := len(sys.clusters[0].At(b.Header.Height).Members); got != writeParts {
			t.Fatalf("height %d: parts %d after removals, want write-epoch %d", b.Header.Height, got, writeParts)
		}
	}
	if wm := sys.clusters[0].At(0).Members; len(wm) != writeParts {
		t.Fatalf("write-epoch membership shrank to %d, want %d", len(wm), writeParts)
	}

	// Pruning before any repair must collect nothing: placement still names
	// the pre-churn owners, and their copies are the only live replicas.
	freed, err := sys.PruneCluster(0)
	if err != nil {
		t.Fatal(err)
	}
	if freed != 0 {
		t.Fatalf("prune collected %d bytes of un-migrated replicas", freed)
	}

	// Every pre-departure block is still whole and retrievable.
	reader, _ := sys.Node(members[0])
	for _, b := range blocks {
		if err := sys.ClusterHoldsBlock(0, b.Hash()); err != nil {
			t.Fatalf("integrity after two unrepaired removals: %v", err)
		}
		var got *chain.Block
		var rerr error
		reader.RetrieveBlock(b.Hash(), func(blk *chain.Block, err error) { got, rerr = blk, err })
		sys.Network().RunUntilIdle()
		if rerr != nil {
			t.Fatalf("pre-departure block %d unretrievable: %v", b.Header.Height, rerr)
		}
		if got == nil || got.Hash() != b.Hash() {
			t.Fatalf("pre-departure block %d: wrong block returned", b.Header.Height)
		}
	}

	// Repair migrates the delta, advances placement, and the cluster is
	// healthy under the new epoch.
	lost := -1
	if err := sys.RepairCluster(0, func(l int) { lost = l }); err != nil {
		t.Fatal(err)
	}
	sys.Network().RunUntilIdle()
	if lost != 0 {
		t.Fatalf("repair lost %d chunks with disjoint victims and r=2", lost)
	}
	if got := sys.clusters[0].PlacementAt(0).Seq; got != 2 {
		t.Fatalf("placement seq = %d after repair, want 2", got)
	}
	for _, b := range blocks {
		if err := sys.ClusterHoldsBlock(0, b.Hash()); err != nil {
			t.Fatalf("integrity after repair: %v", err)
		}
	}
}

// TestPruneDuringJoinWindowKeepsReplicas pins the data-loss half of the
// stale-placement bug: a join demotes the displaced owner immediately, but
// the newcomer has not fetched anything yet. Pruning inside that window used
// to evaluate ownership under the mutated membership and collect the only
// replica (fatal at r=1). Placement-epoch pruning keeps the copy until the
// bootstrap completes and advances placement.
func TestPruneDuringJoinWindowKeepsReplicas(t *testing.T) {
	sys, gen := buildSystem(t, Config{Nodes: 12, Clusters: 2, Replication: 1, Seed: 85})
	blocks := produceAndSettle(t, sys, gen, 4, 12)

	var joinErr error
	done := false
	if err := sys.JoinCluster(0, func(_ simnet.NodeID, err error) { joinErr, done = err, true }); err != nil {
		t.Fatal(err)
	}
	// Prune races the bootstrap: the join epoch exists but nothing migrated.
	freed, err := sys.PruneCluster(0)
	if err != nil {
		t.Fatal(err)
	}
	if freed != 0 {
		t.Fatalf("prune collected %d bytes while the join was still bootstrapping", freed)
	}
	sys.Network().RunUntilIdle()
	if !done {
		t.Fatal("join never completed")
	}
	if joinErr != nil {
		t.Fatalf("bootstrap: %v", joinErr)
	}
	for _, b := range blocks {
		if err := sys.ClusterHoldsBlock(0, b.Hash()); err != nil {
			t.Fatalf("integrity after join: %v", err)
		}
	}
	// Once the migration advanced placement, the displaced copies are fair
	// game — and collecting them must not break integrity.
	if _, err := sys.PruneCluster(0); err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if err := sys.ClusterHoldsBlock(0, b.Hash()); err != nil {
			t.Fatalf("integrity after post-join prune: %v", err)
		}
	}
}

func TestJoinAfterUnrepairedRemovalSucceeds(t *testing.T) {
	// A join while the cluster still has un-migrated departure epochs must
	// bootstrap from write-epoch placement sources, not just the current
	// owner set.
	sys, gen := buildSystem(t, Config{Nodes: 16, Clusters: 2, Replication: 2, Seed: 86})
	blocks := produceAndSettle(t, sys, gen, 3, 16)
	members, _ := sys.ClusterMembers(0)
	if err := sys.RemoveNode(members[1]); err != nil {
		t.Fatal(err)
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
		t.Fatalf("bootstrap into unrepaired cluster: %v", joinErr)
	}
	for _, b := range blocks {
		if err := sys.ClusterHoldsBlock(0, b.Hash()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJoinRefusesMidBootstrapSponsor pins the sponsor-selection fix: a
// member that is itself still bootstrapping has an empty or partial chain
// and must never sponsor another join.
func TestJoinRefusesMidBootstrapSponsor(t *testing.T) {
	sys, gen := buildSystem(t, Config{Nodes: 12, Clusters: 2, Replication: 1, Seed: 87})
	produceAndSettle(t, sys, gen, 2, 12)
	members, _ := sys.ClusterMembers(0)
	for _, m := range members[1:] {
		if err := sys.FailNode(m); err != nil {
			t.Fatal(err)
		}
	}
	// First join is sponsored by the one settled survivor...
	if err := sys.JoinCluster(0, func(simnet.NodeID, error) {}); err != nil {
		t.Fatal(err)
	}
	// ...which crashes before the joiner syncs anything. The only live
	// member left is the mid-bootstrap joiner.
	if err := sys.FailNode(members[0]); err != nil {
		t.Fatal(err)
	}
	if err := sys.JoinCluster(0, func(simnet.NodeID, error) {}); err == nil {
		t.Fatal("join accepted a mid-bootstrap sponsor")
	}
}

func TestConcurrentJoinsBothBootstrap(t *testing.T) {
	sys, gen := buildSystem(t, Config{Nodes: 12, Clusters: 2, Replication: 2, Seed: 88})
	blocks := produceAndSettle(t, sys, gen, 3, 12)
	type res struct {
		id  simnet.NodeID
		err error
	}
	var results []res
	for i := 0; i < 2; i++ {
		if err := sys.JoinCluster(0, func(id simnet.NodeID, err error) {
			results = append(results, res{id, err})
		}); err != nil {
			t.Fatal(err)
		}
	}
	sys.Network().RunUntilIdle()
	if len(results) != 2 {
		t.Fatalf("%d of 2 joins completed", len(results))
	}
	cur, _ := sys.ClusterMembers(0)
	for _, r := range results {
		if r.err != nil {
			t.Fatalf("concurrent join %d: %v", r.id, r.err)
		}
		if !slices.Contains(cur, r.id) {
			t.Fatalf("joined node %d missing from membership", r.id)
		}
	}
	seq, _ := sys.ClusterEpoch(0)
	if seq != 2 {
		t.Fatalf("epoch seq = %d after two joins, want 2", seq)
	}
	for _, b := range blocks {
		if err := sys.ClusterHoldsBlock(0, b.Hash()); err != nil {
			t.Fatal(err)
		}
	}
	more := produceAndSettle(t, sys, gen, 2, 12)
	for _, b := range more {
		if err := sys.ClusterHoldsBlock(0, b.Hash()); err != nil {
			t.Fatal(err)
		}
		if got := len(sys.clusters[0].At(b.Header.Height).Members); got != len(cur) {
			t.Fatalf("post-join block split into %d parts, membership is %d", got, len(cur))
		}
	}
}
