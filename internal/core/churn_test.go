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

	var herr error
	done := false
	if err := sys.LeaveCluster(leaver, func(err error) { herr, done = err, true }); err != nil {
		t.Fatal(err)
	}
	sys.Network().RunUntilIdle()
	if !done {
		t.Fatal("leave never completed")
	}
	if herr != nil {
		t.Fatalf("graceful leave: %v", herr)
	}
	if sys.Registry().Counter("ici.repair.chunk_fetches").Value() == 0 {
		t.Fatal("the leave moved nothing although the leaver held chunks")
	}
	if !sys.Network().IsDown(leaver) {
		t.Fatal("leaver still up after departing")
	}

	// The departure epoch is current AND already placed: the leave's repair
	// moved the data, so a second repair fetches nothing.
	seq, _ := sys.ClusterEpoch(0)
	if seq != 1 {
		t.Fatalf("epoch seq = %d after one leave, want 1", seq)
	}
	if got := sys.clusters[0].PlacementAt(0).Seq; got != 1 {
		t.Fatalf("placement seq = %d after a lossless leave, want 1", got)
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

// TestLeaveClusterUnderCorruption leaves a member over a wire that corrupts
// half the messages with ChaosCorrupter: a fetched chunk whose bytes were
// flipped is refused by the member pulling it, which asks its next source,
// so the departure either succeeds or reports ErrChunkLost, and no member
// stores a chunk that fails the owner's check.
func TestLeaveClusterUnderCorruption(t *testing.T) {
	sys, gen := buildSystem(t, Config{Nodes: 16, Clusters: 2, Replication: 2, Seed: 80})
	produceAndSettle(t, sys, gen, 4, 16)
	chaos, flipped := ChaosCorrupter(), 0
	sys.Network().EnableFaults(80, simnet.FaultConfig{CorruptRate: 0.5, Corrupt: func(msg simnet.Message, rng *blockcrypto.RNG) (any, bool) {
		out, ok := chaos(msg, rng)
		if ok && msg.Kind == (chunkRespMsg{}).kind() {
			flipped++
		}
		return out, ok
	}})
	members, _ := sys.ClusterMembers(0)
	var herr error
	done := false
	if err := sys.LeaveCluster(members[1], func(err error) { herr, done = err, true }); err != nil {
		t.Fatal(err)
	}
	sys.Network().RunUntilIdle()
	if !done {
		t.Fatal("leave never completed")
	}
	if herr != nil && !errors.Is(herr, ErrChunkLost) {
		t.Fatalf("graceful leave under corruption: %v, want nil or %v", herr, ErrChunkLost)
	}
	if flipped == 0 {
		t.Fatal("no fetched chunk was corrupted: nothing was tested")
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

// TestGracefulLeaveSurvivesMessageLoss leaves a member under the lifecycle
// golden run's fault mix (4 % drop, 5 % duplication, 10 % reordering) on
// eight seeds. The members gaining the leaver's chunks pull them like any
// repair, asking again on a lost request or answer, so every leave
// succeeds, advances placement and leaves its cluster holding every block.
func TestGracefulLeaveSurvivesMessageLoss(t *testing.T) {
	for seed := uint64(41); seed <= 48; seed++ {
		sys, gen := buildSystem(t, Config{Nodes: 16, Clusters: 2, Replication: 2, Seed: seed})
		sys.Network().EnableFaults(seed, simnet.FaultConfig{DropRate: 0.04, DupRate: 0.05, ReorderRate: 0.1})
		blocks := produceAndSettle(t, sys, gen, 4, 16)
		members, _ := sys.ClusterMembers(0)
		leaveErr := errors.New("leave never finished")
		if err := sys.LeaveCluster(members[1], func(err error) { leaveErr = err }); err != nil {
			t.Fatal(err)
		}
		sys.Network().RunUntilIdle()
		if leaveErr != nil {
			t.Errorf("seed %d: graceful leave: %v", seed, leaveErr)
			continue
		}
		if got := sys.clusters[0].PlacementAt(0).Seq; got != 1 {
			t.Errorf("seed %d: placement seq %d after the leave, want 1", seed, got)
		}
		for _, b := range blocks {
			if err := sys.ClusterHoldsBlock(0, b.Hash()); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
		}
	}
}

// TestRepairWithAMemberDownKeepsPlacement: a member fails, another is
// removed, and the repair runs while the first is down; it then recovers and
// the cluster is pruned. A down member took nothing in, so the repair must
// not advance placement past it: at quiescence every chunk has r holders
// among its placement owners, or placement stayed where the chunks were
// written. On seeds 4 and 10 the live members lose nothing, and a repair
// that advanced anyway left a chunk with one of its two owners holding it.
func TestRepairWithAMemberDownKeepsPlacement(t *testing.T) {
	const r = 2
	for seed := uint64(1); seed <= 10; seed++ {
		sys, gen := buildSystem(t, Config{Nodes: 16, Clusters: 2, Replication: r, Seed: seed})
		blocks := produceAndSettle(t, sys, gen, 4, 24)
		members, _ := sys.ClusterMembers(0)
		if err := sys.FailNode(members[1]); err != nil {
			t.Fatal(err)
		}
		if err := sys.RemoveNode(members[2]); err != nil {
			t.Fatal(err)
		}
		if err := sys.RepairCluster(0, func(int) {}); err != nil {
			t.Fatal(err)
		}
		sys.Network().RunUntilIdle()
		if err := sys.RecoverNode(members[1]); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.PruneCluster(0); err != nil {
			t.Fatal(err)
		}
		ci := sys.clusters[0]
		for _, b := range blocks {
			h := b.Header.Height
			place := ci.PlacementAt(h)
			if place == ci.At(h) {
				continue
			}
			for idx := range ci.At(h).Members {
				owners, err := place.Owners(b.Hash().Uint64(), idx, r)
				if err != nil {
					t.Fatal(err)
				}
				held := 0
				for _, o := range owners {
					if sys.nodes[o].store.HasChunk(storage.ChunkID{Block: b.Hash(), Index: idx}) {
						held++
					}
				}
				if held < r {
					t.Errorf("seed %d: placement at epoch %d, and chunk %d of block %d is held by %d of its %d owners", seed, place.Seq, idx, h, held, r)
				}
			}
		}
	}
}

// TestRepairReplacesADamagedChunk damages every chunk one member holds in
// place, then repairs its cluster. The member takes each in again from
// another owner, and the sound copy replaces the damaged one: every chunk
// reads back, and nothing was lost. A repair that counted the damaged copies
// as held reported 0 lost and left all of them unreadable.
func TestRepairReplacesADamagedChunk(t *testing.T) {
	sys, gen := buildSystem(t, Config{Nodes: 16, Clusters: 2, Replication: 2, Seed: 72})
	blocks := produceAndSettle(t, sys, gen, 3, 24)
	members, _ := sys.ClusterMembers(0)
	victim := sys.nodes[members[0]]
	var damaged []storage.ChunkID
	for _, b := range blocks {
		for _, idx := range victim.store.ChunksForBlock(b.Hash()) {
			id := storage.ChunkID{Block: b.Hash(), Index: idx}
			if !victim.store.Corrupt(id) {
				t.Fatalf("chunk %s not held", id)
			}
			damaged = append(damaged, id)
		}
	}
	if len(damaged) == 0 {
		t.Fatal("the member holds no chunk: nothing was tested")
	}
	lost := -1
	if err := sys.RepairCluster(0, func(l int) { lost = l }); err != nil {
		t.Fatal(err)
	}
	sys.Network().RunUntilIdle()
	if lost != 0 {
		t.Fatalf("repair lost %d chunks", lost)
	}
	for _, id := range damaged {
		if _, err := victim.store.Chunk(id); err != nil {
			t.Errorf("after the repair: %v", err)
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
	if err := sys.LeaveCluster(members[0], func(error) {}); err == nil {
		t.Fatal("graceful leave of a crashed node accepted")
	}
	// A down member could not take in the leaver's chunks: the repair skips
	// it, and a chunk only the leaver held would go down with the leaver.
	if err := sys.LeaveCluster(members[1], func(error) {}); err == nil {
		t.Fatal("graceful leave accepted while another member is down")
	}
	if seq, _ := sys.ClusterEpoch(0); seq != 0 {
		t.Fatalf("a refused leave pushed epoch %d", seq)
	}
	single, _ := buildSystem(t, Config{Nodes: 2, Clusters: 2, Replication: 1, Seed: 81})
	m0, _ := single.ClusterMembers(0)
	if err := single.LeaveCluster(m0[0], func(error) {}); err == nil {
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

// TestRejoinCountsOnlyTheChunksItFetches rejoins a member that kept its
// chunks from before it left: ici.bootstrap.chunk_fetches counts the chunks
// the bootstrap requests, so it rises by what the rejoiner's store gains,
// not by every chunk the rejoiner owns.
func TestRejoinCountsOnlyTheChunksItFetches(t *testing.T) {
	sys, gen := buildSystem(t, Config{Nodes: 16, Clusters: 2, Replication: 2, Seed: 80})
	produceAndSettle(t, sys, gen, 4, 16)
	members, _ := sys.ClusterMembers(0)
	leaver := members[1]
	node, _ := sys.Node(leaver)
	leaveErr := errors.New("leave never finished")
	if err := sys.LeaveCluster(leaver, func(err error) { leaveErr = err }); err != nil {
		t.Fatal(err)
	}
	sys.Network().RunUntilIdle()
	if leaveErr != nil {
		t.Fatalf("leave: %v", leaveErr)
	}
	produceAndSettle(t, sys, gen, 2, 16)
	fetches := sys.Registry().Counter("ici.bootstrap.chunk_fetches")
	fetchesBefore, heldBefore := fetches.Value(), node.Store().Stats().ChunkCount
	rejoinErr := errors.New("rejoin never finished")
	if err := sys.RejoinCluster(leaver, func(err error) { rejoinErr = err }); err != nil {
		t.Fatal(err)
	}
	sys.Network().RunUntilIdle()
	if rejoinErr != nil {
		t.Fatalf("rejoin: %v", rejoinErr)
	}
	counted, gained := fetches.Value()-fetchesBefore, node.Store().Stats().ChunkCount-heldBefore
	if gained == 0 || counted != gained {
		t.Fatalf("rejoin counted %d chunk fetches, its store gained %d chunks: want equal and not 0", counted, gained)
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
	if err := sys.LeaveCluster(leaver, func(err error) {
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
