package core

import (
	"errors"
	"testing"

	"icistrategy/internal/chain"
	"icistrategy/internal/simnet"
	"icistrategy/internal/storage"
)

// archiveFixture commits a few blocks and archives one in cluster 0.
func archiveFixture(t *testing.T, seed uint64, parity int) (*System, []*chain.Block, *chain.Block) {
	t.Helper()
	sys, gen := buildSystem(t, Config{Nodes: 24, Clusters: 2, Replication: 2, Seed: seed})
	blocks := produceAndSettle(t, sys, gen, 4, 24)
	target := blocks[1]
	var archErr error
	done := false
	if err := sys.ArchiveBlock(0, target.Hash(), parity, func(err error) {
		archErr, done = err, true
	}); err != nil {
		t.Fatal(err)
	}
	sys.Network().RunUntilIdle()
	if !done {
		t.Fatal("archive never completed")
	}
	if archErr != nil {
		t.Fatalf("archive: %v", archErr)
	}
	return sys, blocks, target
}

func TestArchiveReducesStorageAndStaysReadable(t *testing.T) {
	sys, _, target := archiveFixture(t, 30, 4)
	members, _ := sys.ClusterMembers(0)

	// Old replicated chunks are gone; coded shares are in place: total
	// stored bytes for this block across the cluster ≈ body × total/k
	// instead of body × r (r=2).
	var codedBytes int64
	for _, m := range members {
		node, _ := sys.Node(m)
		for _, idx := range node.Store().ChunksForBlock(target.Hash()) {
			chk, err := node.Store().Chunk(storage.ChunkID{Block: target.Hash(), Index: idx})
			if err != nil {
				t.Fatal(err)
			}
			codedBytes += int64(len(chk.Data))
		}
	}
	body := int64(target.BodySize())
	k, total := len(members)-4, len(members)
	expect := (body + 8) / int64(k) * int64(total) // approx, plus padding
	if codedBytes < body || codedBytes > 2*expect {
		t.Fatalf("coded bytes %d vs body %d (expected ≈%d)", codedBytes, body, expect)
	}
	if codedBytes >= 2*body {
		t.Fatalf("coded storage %d not below the r=2 replicated footprint %d", codedBytes, 2*body)
	}

	// Reading through the auto path reconstructs and root-verifies.
	reader, _ := sys.Node(members[3])
	var got *chain.Block
	var gotErr error
	reader.RetrieveBlockAuto(sys.Network(), target.Hash(), func(b *chain.Block, err error) {
		got, gotErr = b, err
	})
	sys.Network().RunUntilIdle()
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if got.Hash() != target.Hash() || len(got.Txs) != len(target.Txs) {
		t.Fatal("archived read returned wrong block")
	}
}

func TestArchivedReadSurvivesParityManyFailures(t *testing.T) {
	sys, _, target := archiveFixture(t, 31, 4)
	members, _ := sys.ClusterMembers(0)
	// Fail members until exactly parity-many shares are lost (rendezvous
	// placement is uneven, so count actual shares): any k shares remain
	// and the read must still reconstruct.
	lost := 0
	for _, m := range members[1:] {
		node, _ := sys.Node(m)
		held := len(node.Store().ChunksForBlock(target.Hash()))
		if lost+held > 4 {
			continue
		}
		if err := sys.FailNode(m); err != nil {
			t.Fatal(err)
		}
		lost += held
	}
	if lost == 0 {
		t.Skip("no failable member held shares under this seed")
	}
	reader, _ := sys.Node(members[0])
	var got *chain.Block
	var gotErr error
	reader.RetrieveBlockAuto(sys.Network(), target.Hash(), func(b *chain.Block, err error) {
		got, gotErr = b, err
	})
	sys.Network().RunUntilIdle()
	if gotErr != nil {
		t.Fatalf("read with %d failures (parity 4): %v", 4, gotErr)
	}
	if got.Hash() != target.Hash() {
		t.Fatal("wrong block reconstructed")
	}
}

func TestArchivedReadFailsPastParity(t *testing.T) {
	sys, _, target := archiveFixture(t, 32, 2)
	members, _ := sys.ClusterMembers(0)
	// Fail parity+2 members: with high probability more than parity shares
	// are gone (each member holds ~1 share).
	for _, m := range members[1:6] {
		if err := sys.FailNode(m); err != nil {
			t.Fatal(err)
		}
	}
	reader, _ := sys.Node(members[0])
	var gotErr error
	completed := false
	reader.RetrieveBlockAuto(sys.Network(), target.Hash(), func(_ *chain.Block, err error) {
		gotErr, completed = err, true
	})
	sys.Network().RunUntilIdle()
	if !completed {
		t.Fatal("retrieval callback never fired")
	}
	if gotErr == nil {
		t.Skip("failed members happened to hold few shares under this seed")
	}
	if !errors.Is(gotErr, ErrRetrieveFailed) {
		t.Fatalf("unexpected error: %v", gotErr)
	}
}

func TestArchiveValidation(t *testing.T) {
	sys, gen := buildSystem(t, Config{Nodes: 12, Clusters: 2, Replication: 1, Seed: 33})
	blocks := produceAndSettle(t, sys, gen, 1, 12)
	hash := blocks[0].Hash()
	noop := func(error) {}
	if err := sys.ArchiveBlock(9, hash, 1, noop); err == nil {
		t.Fatal("bad cluster index accepted")
	}
	if err := sys.ArchiveBlock(0, hash, 0, noop); err == nil {
		t.Fatal("zero parity accepted")
	}
	if err := sys.ArchiveBlock(0, hash, 6, noop); err == nil {
		t.Fatal("parity >= members accepted")
	}
	if err := sys.ArchiveBlock(0, hash, 2, noop); err != nil {
		t.Fatal(err)
	}
	sys.Network().RunUntilIdle()
	if err := sys.ArchiveBlock(0, hash, 2, noop); err == nil {
		t.Fatal("double archive accepted")
	}
}

func TestArchiveOnlyAffectsOneCluster(t *testing.T) {
	sys, blocks, target := archiveFixture(t, 34, 3)
	// Cluster 1 still serves the block the replicated way.
	members1, _ := sys.ClusterMembers(1)
	reader, _ := sys.Node(members1[0])
	var got *chain.Block
	var gotErr error
	reader.RetrieveBlock(sys.Network(), target.Hash(), func(b *chain.Block, err error) {
		got, gotErr = b, err
	})
	sys.Network().RunUntilIdle()
	if gotErr != nil {
		t.Fatalf("replicated read in untouched cluster: %v", gotErr)
	}
	if got.Hash() != target.Hash() {
		t.Fatal("wrong block")
	}
	// Unarchived blocks in cluster 0 still read normally.
	members0, _ := sys.ClusterMembers(0)
	r0, _ := sys.Node(members0[0])
	other := blocks[2]
	r0.RetrieveBlockAuto(sys.Network(), other.Hash(), func(b *chain.Block, err error) {
		got, gotErr = b, err
	})
	sys.Network().RunUntilIdle()
	if gotErr != nil || got.Hash() != other.Hash() {
		t.Fatalf("unarchived block read: %v", gotErr)
	}
}

func TestRetrieveArchivedRequiresArchive(t *testing.T) {
	sys, gen := buildSystem(t, Config{Nodes: 12, Clusters: 2, Replication: 1, Seed: 35})
	blocks := produceAndSettle(t, sys, gen, 1, 12)
	node, _ := sys.Node(0)
	var gotErr error
	node.RetrieveArchivedBlock(sys.Network(), blocks[0].Hash(), func(_ *chain.Block, err error) {
		gotErr = err
	})
	sys.Network().RunUntilIdle()
	if !errors.Is(gotErr, ErrNotArchived) {
		t.Fatalf("got %v, want ErrNotArchived", gotErr)
	}
}

func TestTxQueryAfterArchiveFindsNothingCoded(t *testing.T) {
	// Coded shares carry no per-tx structure, so inclusion queries for an
	// archived block report not-found (documented limitation: archive cold
	// blocks only).
	sys, _, target := archiveFixture(t, 36, 3)
	members, _ := sys.ClusterMembers(0)
	node, _ := sys.Node(members[0])
	var gotErr error
	done := false
	node.QueryTxProof(sys.Network(), target.Hash(), target.Txs[0].ID(), func(_ TxProof, err error) {
		gotErr, done = err, true
	})
	sys.Network().RunUntilIdle()
	if !done {
		t.Fatal("query never completed")
	}
	if !errors.Is(gotErr, ErrTxNotFound) {
		t.Fatalf("got %v, want ErrTxNotFound", gotErr)
	}
}

// TestRepairAfterArchiveLosesNothing removes a member of a cluster that
// archived a block and repairs it. Repair re-establishes replicated chunks
// only: the archived block has none, so nothing is fetched for it and
// nothing is lost, while the invariant oracle and the coded read keep
// rebuilding it from the remaining shares.
func TestRepairAfterArchiveLosesNothing(t *testing.T) {
	sys, blocks, target := archiveFixture(t, 30, 4)
	members, _ := sys.ClusterMembers(0)
	holdsAll := func(stage string) {
		t.Helper()
		for _, b := range blocks {
			if err := sys.ClusterHoldsBlock(0, b.Hash()); err != nil {
				t.Fatalf("%s: %v", stage, err)
			}
		}
	}
	holdsAll("after archive")
	if err := sys.RemoveNode(members[3]); err != nil {
		t.Fatal(err)
	}
	lost := -1
	if err := sys.RepairCluster(0, func(l int) { lost = l }); err != nil {
		t.Fatal(err)
	}
	sys.Network().RunUntilIdle()
	if lost != 0 {
		t.Fatalf("repair lost %d chunks", lost)
	}
	if n := sys.Registry().Counter("ici.repair.lost").Value(); n != 0 {
		t.Fatalf("ici.repair.lost = %d", n)
	}
	holdsAll("after repair")
	reader, _ := sys.Node(members[0])
	var got *chain.Block
	var gotErr error
	reader.RetrieveBlockAuto(sys.Network(), target.Hash(), func(b *chain.Block, err error) {
		got, gotErr = b, err
	})
	sys.Network().RunUntilIdle()
	if gotErr != nil {
		t.Fatalf("coded read after repair: %v", gotErr)
	}
	if got.Hash() != target.Hash() {
		t.Fatal("coded read returned the wrong block")
	}
}

// TestJoinAfterArchiveBootstraps joins a node to a cluster that archived a
// block: the joiner takes in the replicated chunks it owns and fetches
// nothing for the archived block, so the bootstrap completes.
func TestJoinAfterArchiveBootstraps(t *testing.T) {
	sys, blocks, _ := archiveFixture(t, 30, 4)
	joinErr := errors.New("join never completed")
	if err := sys.JoinCluster(0, func(_ simnet.NodeID, err error) { joinErr = err }); err != nil {
		t.Fatal(err)
	}
	sys.Network().RunUntilIdle()
	if joinErr != nil {
		t.Fatalf("join: %v", joinErr)
	}
	for _, b := range blocks {
		if err := sys.ClusterHoldsBlock(0, b.Hash()); err != nil {
			t.Fatal(err)
		}
	}
}
