package core

import (
	"errors"
	"testing"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/simnet"
	"icistrategy/internal/workload"
)

// buildSystem creates a small system plus a matching workload generator.
func buildSystem(t testing.TB, cfg Config) (*System, *workload.Generator) {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(workload.Config{Accounts: 50, PayloadBytes: 40, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	return sys, gen
}

// produceAndSettle produces count blocks, running the network to quiescence
// after each, and returns them.
func produceAndSettle(t testing.TB, sys *System, gen *workload.Generator, count, txPerBlock int) []*chain.Block {
	t.Helper()
	blocks := make([]*chain.Block, 0, count)
	for i := 0; i < count; i++ {
		b, err := sys.ProduceBlock(gen.NextTxs(txPerBlock))
		if err != nil {
			t.Fatal(err)
		}
		sys.Network().RunUntilIdle()
		blocks = append(blocks, b)
	}
	return blocks
}

func TestNewSystemValidation(t *testing.T) {
	cases := []Config{
		{Nodes: 0, Clusters: 1},
		{Nodes: 10, Clusters: 0},
		{Nodes: 10, Clusters: 11},
		{Nodes: 12, Clusters: 4, Replication: 10}, // r > cluster size
	}
	for _, cfg := range cases {
		if _, err := NewSystem(cfg); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
}

func TestBlocksCommitEverywhere(t *testing.T) {
	sys, gen := buildSystem(t, Config{Nodes: 24, Clusters: 3, Replication: 1, Seed: 1})
	blocks := produceAndSettle(t, sys, gen, 5, 16)
	for _, b := range blocks {
		if !sys.AllCommitted(b.Hash()) {
			t.Fatalf("block %d not committed everywhere (commit count %d/%d)",
				b.Header.Height, sys.CommitCount(b.Hash()), 24)
		}
	}
	if sys.Height() != 5 {
		t.Fatalf("Height() = %d", sys.Height())
	}
	tip, err := sys.Tip()
	if err != nil {
		t.Fatal(err)
	}
	if tip.Height != 4 {
		t.Fatalf("tip height = %d", tip.Height)
	}
}

func TestIntraClusterIntegrityInvariant(t *testing.T) {
	// THE paper invariant: every cluster holds every block collectively.
	for _, r := range []int{1, 2} {
		sys, gen := buildSystem(t, Config{Nodes: 30, Clusters: 3, Replication: r, Seed: 2})
		blocks := produceAndSettle(t, sys, gen, 4, 20)
		for _, b := range blocks {
			for c := 0; c < sys.NumClusters(); c++ {
				if err := sys.ClusterHoldsBlock(c, b.Hash()); err != nil {
					t.Fatalf("r=%d: %v", r, err)
				}
			}
		}
	}
}

func TestNoSingleNodeHoldsEverything(t *testing.T) {
	// The flip side of intra-cluster integrity: individual nodes hold only
	// a fraction of the body data.
	sys, gen := buildSystem(t, Config{Nodes: 30, Clusters: 3, Replication: 1, Seed: 3})
	blocks := produceAndSettle(t, sys, gen, 6, 20)
	var totalBody int64
	for _, b := range blocks {
		totalBody += int64(b.BodySize())
	}
	for id := simnet.NodeID(0); id < 30; id++ {
		st, err := sys.NodeStorage(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.ChunkBytes >= totalBody/2 {
			t.Fatalf("node %d stores %d of %d body bytes: not collaborative", id, st.ChunkBytes, totalBody)
		}
		if st.HeaderCount != int64(len(blocks)) {
			t.Fatalf("node %d has %d headers, want %d", id, st.HeaderCount, len(blocks))
		}
	}
}

func TestProtocolMatchesAccountant(t *testing.T) {
	// The protocol's actual stored bytes must equal the analytic model fed
	// with the same seeds and transaction sizes.
	sys, gen := buildSystem(t, Config{Nodes: 20, Clusters: 2, Replication: 2, Seed: 4})
	acc, err := sys.NewAccountant()
	if err != nil {
		t.Fatal(err)
	}
	blocks := produceAndSettle(t, sys, gen, 5, 30)
	for _, b := range blocks {
		txSizes := make([]int, len(b.Txs))
		for i, tx := range b.Txs {
			txSizes[i] = tx.EncodedSize()
		}
		acc.AddBlockTxs(b.Hash().Uint64(), txSizes)
	}
	for i := 0; i < 20; i++ {
		want, err := acc.NodeBytes(i)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sys.NodeStorage(simnet.NodeID(i))
		if err != nil {
			t.Fatal(err)
		}
		if got := st.TotalBytes(); got != want {
			t.Fatalf("node %d: protocol stores %d bytes, accountant says %d", i, got, want)
		}
	}
}

func TestRetrieveBlock(t *testing.T) {
	sys, gen := buildSystem(t, Config{Nodes: 18, Clusters: 2, Replication: 1, Seed: 5})
	blocks := produceAndSettle(t, sys, gen, 3, 24)
	target := blocks[1]
	node, err := sys.Node(3)
	if err != nil {
		t.Fatal(err)
	}
	var got *chain.Block
	var gotErr error
	node.RetrieveBlock(target.Hash(), func(b *chain.Block, err error) {
		got, gotErr = b, err
	})
	sys.Network().RunUntilIdle()
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if got == nil || got.Hash() != target.Hash() {
		t.Fatal("retrieved block mismatch")
	}
	if len(got.Txs) != len(target.Txs) {
		t.Fatalf("retrieved %d txs, want %d", len(got.Txs), len(target.Txs))
	}
	for i := range got.Txs {
		if got.Txs[i].ID() != target.Txs[i].ID() {
			t.Fatalf("tx %d differs after reassembly", i)
		}
	}
}

func TestRetrieveUnknownBlock(t *testing.T) {
	sys, gen := buildSystem(t, Config{Nodes: 12, Clusters: 2, Replication: 1, Seed: 6})
	produceAndSettle(t, sys, gen, 1, 8)
	node, _ := sys.Node(0)
	var gotErr error
	node.RetrieveBlock(blockcrypto.Sum256([]byte("phantom")), func(_ *chain.Block, err error) {
		gotErr = err
	})
	sys.Network().RunUntilIdle()
	if !errors.Is(gotErr, ErrUnknownBlock) {
		t.Fatalf("got %v, want ErrUnknownBlock", gotErr)
	}
}

func TestRetrieveDegradedByReplication(t *testing.T) {
	// With r=2, losing one node must not break reads; the dead member's
	// chunks have a live replica.
	sys, gen := buildSystem(t, Config{Nodes: 16, Clusters: 2, Replication: 2, Seed: 7})
	blocks := produceAndSettle(t, sys, gen, 3, 16)
	members, err := sys.ClusterMembers(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.FailNode(members[1]); err != nil {
		t.Fatal(err)
	}
	reader, _ := sys.Node(members[0])
	var got *chain.Block
	var gotErr error
	reader.RetrieveBlock(blocks[2].Hash(), func(b *chain.Block, err error) {
		got, gotErr = b, err
	})
	sys.Network().RunUntilIdle()
	if gotErr != nil {
		t.Fatalf("read with one failed node (r=2): %v", gotErr)
	}
	if got.Hash() != blocks[2].Hash() {
		t.Fatal("wrong block retrieved")
	}
}

func TestByzantineMinorityStillCommits(t *testing.T) {
	// Rejecting members get their chunks reassigned immediately; the
	// cluster commits as long as honest members remain.
	sys, gen := buildSystem(t, Config{Nodes: 16, Clusters: 2, Replication: 1, Seed: 8})
	members, _ := sys.ClusterMembers(0)
	// f = (8-1)/3 = 2 rejectors tolerated.
	for _, m := range members[:2] {
		n, _ := sys.Node(m)
		n.SetBehavior(Behavior{VoteReject: true})
	}
	blocks := produceAndSettle(t, sys, gen, 2, 16)
	for _, b := range blocks {
		ok, err := sys.ClusterCommitted(0, b.Hash())
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("block %d: cluster with 2/8 rejectors failed to commit", b.Header.Height)
		}
		if err := sys.ClusterHoldsBlock(0, b.Hash()); err != nil {
			t.Fatalf("integrity after reassignment: %v", err)
		}
	}
}

func TestLeaderCrashBlocksOnlyItsCluster(t *testing.T) {
	sys, gen := buildSystem(t, Config{Nodes: 16, Clusters: 2, Replication: 1, Seed: 9})
	leader, err := consensusLeaderForTest(sys, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.FailNode(leader); err != nil {
		t.Fatal(err)
	}
	blocks := produceAndSettle(t, sys, gen, 1, 16)
	ok, err := sys.ClusterCommitted(0, blocks[0].Hash())
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("cluster with a crashed leader committed (no view change exists)")
	}
	// The other cluster is unaffected.
	ok, err = sys.ClusterCommitted(1, blocks[0].Hash())
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("healthy cluster failed to commit")
	}
}

func TestTamperingLeaderRejected(t *testing.T) {
	sys, gen := buildSystem(t, Config{Nodes: 16, Clusters: 2, Replication: 1, Seed: 10})
	// Make every member of cluster 0 a tamperer when leading: whichever
	// leads will corrupt its chunks and members must vote reject.
	members, _ := sys.ClusterMembers(0)
	for _, m := range members {
		n, _ := sys.Node(m)
		n.SetBehavior(Behavior{TamperChunks: true})
	}
	blocks := produceAndSettle(t, sys, gen, 1, 16)
	ok, err := sys.ClusterCommitted(0, blocks[0].Hash())
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("cluster committed tampered chunks")
	}
}

func TestCrashedMembersDoNotBlockCommit(t *testing.T) {
	sys, gen := buildSystem(t, Config{Nodes: 20, Clusters: 2, Replication: 2, Seed: 11})
	members, _ := sys.ClusterMembers(0)
	// f = (10-1)/3 = 3; crash 2 non-leader members.
	crashed := 0
	for _, m := range members {
		if crashed == 2 {
			break
		}
		if leader, _ := consensusLeaderForTest(sys, 0, 0); m == leader {
			continue
		}
		if err := sys.FailNode(m); err != nil {
			t.Fatal(err)
		}
		crashed++
	}
	blocks := produceAndSettle(t, sys, gen, 1, 16)
	ok, err := sys.ClusterCommitted(0, blocks[0].Hash())
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("cluster with 2/10 crashed members failed to commit")
	}
}

// consensusLeaderForTest exposes the leader for a height.
func consensusLeaderForTest(sys *System, clusterIdx int, height uint64) (simnet.NodeID, error) {
	return sys.clusters[clusterIdx].leaderAt(height)
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int64, int64) {
		sys, gen := buildSystem(t, Config{Nodes: 20, Clusters: 2, Replication: 1, Seed: 12})
		produceAndSettle(t, sys, gen, 3, 16)
		tt := sys.Network().TotalTraffic()
		return tt.BytesSent, tt.MsgsSent
	}
	b1, m1 := run()
	b2, m2 := run()
	if b1 != b2 || m1 != m2 {
		t.Fatalf("identical seeds diverged: (%d,%d) vs (%d,%d)", b1, m1, b2, m2)
	}
}

func TestVerifyChunkRejectsBadProofIndex(t *testing.T) {
	// A chunk whose proofs do not line up with its claimed position must
	// fail verification even when every proof is individually valid.
	gen, err := workload.NewGenerator(workload.Config{Accounts: 10, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	txs := gen.NextTxs(8)
	b, err := chain.NewBlock(0, blockcrypto.ZeroHash, txs, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	tree, _ := chain.TxMerkleTree(txs)
	p0, _ := tree.Prove(0)
	p1, _ := tree.Prove(1)
	good := Group{Index: 0, Parts: 4, TxStart: 0, Txs: txs[:2], Proofs: []chain.Proof{p0, p1}}
	if err := good.Verify(b.Header); err != nil {
		t.Fatalf("good chunk rejected: %v", err)
	}
	shifted := good
	shifted.TxStart = 2
	if err := shifted.Verify(b.Header); err == nil {
		t.Fatal("position-shifted chunk accepted")
	}
	mismatched := good
	mismatched.Proofs = []chain.Proof{p0}
	if err := mismatched.Verify(b.Header); err == nil {
		t.Fatal("proof-count mismatch accepted")
	}
}

// recordingTransport passes every call on to the network underneath and
// keeps what was sent.
type recordingTransport struct {
	transport
	sent []simnet.Message
}

func (r *recordingTransport) Send(msg simnet.Message) error {
	r.sent = append(r.sent, msg)
	return r.transport.Send(msg)
}

// TestNodeSendsToItselfWithoutTheTransport records the transport of a node
// that proposes a block to itself, hands itself its own share and votes on
// it: every message the transport sees is addressed to another node, and the
// transport's count is the network's.
func TestNodeSendsToItselfWithoutTheTransport(t *testing.T) {
	const nodes = 16
	sys, gen := buildSystem(t, Config{Nodes: nodes, Clusters: 2, Replication: 2, Seed: 7})
	// The first height whose proposer leads its own cluster.
	var height uint64
	for ; ; height++ {
		id := simnet.NodeID(height % nodes)
		if l, _ := sys.nodes[id].cluster.leaderAt(height); l == id {
			break
		}
	}
	id := simnet.NodeID(height % nodes)
	node := sys.nodes[id]
	rec := &recordingTransport{transport: node.net}
	node.net = rec
	blocks := produceAndSettle(t, sys, gen, int(height)+1, 16)

	for _, b := range blocks {
		if !sys.AllCommitted(b.Hash()) {
			t.Fatalf("block %d not committed everywhere", b.Header.Height)
		}
	}
	if len(node.store.ChunksForBlock(blocks[height].Hash())) == 0 {
		t.Fatalf("node %d holds no chunk of block %d it proposed to itself", id, height)
	}
	for _, m := range rec.sent {
		if m.To == id || m.From != id {
			t.Fatalf("transport of node %d saw %s from %d to %d", id, m.Kind, m.From, m.To)
		}
	}
	traffic, err := sys.Network().Traffic(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.sent) == 0 || int64(len(rec.sent)) != traffic.MsgsSent {
		t.Fatalf("transport saw %d messages, network counts %d sent", len(rec.sent), traffic.MsgsSent)
	}
}
