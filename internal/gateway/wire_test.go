package gateway

import (
	"errors"
	"sync/atomic"
	"testing"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/core"
	"icistrategy/internal/metrics"
	"icistrategy/internal/netx"
	"icistrategy/internal/workload"
)

// startCluster launches n real TCP storage servers, armed for fault
// injection, distributes blocks across them with replication r, and returns
// the addresses and blocks.
func startCluster(t *testing.T, n, r, blockCount, txPerBlock int) ([]string, []*chain.Block) {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		s, err := netx.NewServer("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		s.EnableChaos()
		addrs[i] = s.Addr()
	}
	gen, err := workload.NewGenerator(workload.Config{Accounts: 40, PayloadBytes: 24, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	cb, err := workload.NewChainBuilder(gen, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := netx.NewCluster(addrs, r)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	blocks := make([]*chain.Block, blockCount)
	for i := range blocks {
		b, err := cb.NextBlock(txPerBlock)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.DistributeBlock(b); err != nil {
			t.Fatal(err)
		}
		blocks[i] = b
	}
	return addrs, blocks
}

// TestGatewayEndToEndOverTCP drives the full stack: real storage servers,
// ClusterUpstream, a Gateway, its TCP listener, and a wire client.
func TestGatewayEndToEndOverTCP(t *testing.T) {
	addrs, blocks := startCluster(t, 5, 2, 3, 20)
	up, err := NewClusterUpstream(addrs, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	reg := metrics.NewRegistry()
	g, err := New(Config{Upstream: up, BlockCacheBytes: 1 << 20, ChunkCacheBytes: 1 << 20, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", g)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := DialClient(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, b := range blocks {
		got, err := c.GetBlock(b.Hash())
		if err != nil {
			t.Fatal(err)
		}
		if got.Hash() != b.Hash() || len(got.Txs) != len(b.Txs) {
			t.Fatal("block mismatch through gateway wire")
		}
	}
	// Proof for a transaction of the middle block; the client re-verifies.
	b := blocks[1]
	tx := b.Txs[len(b.Txs)/2]
	p, err := c.GetTxProof(b.Hash(), tx.ID())
	if err != nil {
		t.Fatal(err)
	}
	if p.Tx.ID() != tx.ID() {
		t.Fatal("wrong transaction proved")
	}

	// Unknown block surfaces as a remote error, not a hang or crash.
	if _, err := c.GetBlock(blockcrypto.Sum256([]byte("missing"))); !errors.Is(err, ErrRemote) {
		t.Fatalf("unknown block: got %v, want ErrRemote", err)
	}
	// Unknown transaction in a known block.
	if _, err := c.GetTxProof(b.Hash(), blockcrypto.Sum256([]byte("ghost"))); !errors.Is(err, ErrRemote) {
		t.Fatalf("unknown tx: got %v, want ErrRemote", err)
	}

	// Re-reading a block is a cache hit: no new upstream batch RPCs.
	snap1 := reg.Snapshot()
	if _, err := c.GetBlock(blocks[0].Hash()); err != nil {
		t.Fatal(err)
	}
	snap2 := reg.Snapshot()
	if snap2["ici.gateway.batch.rpcs"] != snap1["ici.gateway.batch.rpcs"] {
		t.Fatal("cached block re-read issued upstream RPCs")
	}
	if snap2["ici.gateway.block_cache.hits"] <= snap1["ici.gateway.block_cache.hits"] {
		t.Fatal("cache hit not recorded")
	}
}

// TestGatewaySurvivesOneCorruptingMemberOverTCP is netx's
// TestRetrieveSurvivesOneCorruptingMember on the path clients use: 3 real
// members, r=2, each in turn flipping every chunk it serves. Whichever member
// it is, every chunk has a sound copy on its other owner, so every uncached
// read must succeed — at the price of its plan, one re-read with proofs per
// member of that plan, and one more plan — and must have fetched some chunk
// more than once, or no first owner was ever the corrupting one and nothing
// was tested.
func TestGatewaySurvivesOneCorruptingMemberOverTCP(t *testing.T) {
	const members = 3
	addrs, blocks := startCluster(t, members, 2, 3, 18)
	up, err := NewClusterUpstream(addrs, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	reg := metrics.NewRegistry()
	g, err := New(Config{Upstream: up, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range addrs {
		c, err := netx.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.InjectFault(netx.FaultReq{Set: &netx.FaultConfig{CorruptRate: 1, Seed: 7}}); err != nil {
			t.Fatal(err)
		}
		for _, b := range blocks {
			got, err := readBlock(g, b.Hash())
			if err != nil {
				t.Fatalf("block %d, %s corrupting: a read every chunk of which has an honest replica failed: %v", b.Header.Height, addr, err)
			}
			if got.Hash() != b.Hash() || got.VerifyShape() != nil {
				t.Fatalf("block %d reassembled wrong", b.Header.Height)
			}
		}
		if _, err := c.InjectFault(netx.FaultReq{Set: &netx.FaultConfig{}}); err != nil {
			t.Fatal(err)
		}
	}
	reads := members * len(blocks)
	if refs := reg.Snapshot()["ici.gateway.batch.refs"]; refs <= float64(reads*members) {
		t.Fatalf("%d reads of %d chunks fetched %v refs: no bad copy was ever replaced", reads, members, refs)
	}
}

// proofCounter is a ClusterUpstream that counts what its batches ask for and
// what the answers carry.
type proofCounter struct {
	*ClusterUpstream
	refs, provenRefs, proofs atomic.Int64
}

func (u *proofCounter) FetchBatch(peer int, refs []netx.ChunkRef) (*netx.ChunkBatchResp, error) {
	for _, ref := range refs {
		u.refs.Add(1)
		if ref.Proofs {
			u.provenRefs.Add(1)
		}
	}
	resp, err := u.ClusterUpstream.FetchBatch(peer, refs)
	if err == nil {
		for i := range resp.Chunks {
			u.proofs.Add(int64(len(resp.Chunks[i].Proofs)))
		}
	}
	return resp, err
}

// TestSoundReadCarriesNoProofs is netx's test of that name on the path
// clients use: cold reads through a gateway over real members ask for no
// proofs and are sent none; with one member corrupting what it serves the
// gateway asks for them, and only then.
func TestSoundReadCarriesNoProofs(t *testing.T) {
	const members = 4
	addrs, blocks := startCluster(t, members, 2, 3, 24)
	cu, err := NewClusterUpstream(addrs, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cu.Close()
	up := &proofCounter{ClusterUpstream: cu}
	g, err := New(Config{Upstream: up})
	if err != nil {
		t.Fatal(err)
	}
	readAll := func() {
		t.Helper()
		for _, b := range blocks {
			got, err := readBlock(g, b.Hash())
			if err != nil || got.Hash() != b.Hash() {
				t.Fatalf("block %d: %v", b.Header.Height, err)
			}
		}
	}
	readAll()
	if refs, proven, proofs := up.refs.Load(), up.provenRefs.Load(), up.proofs.Load(); refs != int64(len(blocks)*members) || proven != 0 || proofs != 0 {
		t.Fatalf("sound reads asked for %d chunks, %d of them with proofs, and were sent %d proofs: want %d, 0, 0", refs, proven, proofs, len(blocks)*members)
	}
	c, err := netx.Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.InjectFault(netx.FaultReq{Set: &netx.FaultConfig{CorruptRate: 1, Seed: 7}}); err != nil {
		t.Fatal(err)
	}
	readAll()
	if proven, proofs := up.provenRefs.Load(), up.proofs.Load(); proven == 0 || proofs == 0 {
		t.Fatalf("reads past a corrupting member asked for the proofs of %d chunks and were sent %d proofs: no copy was judged", proven, proofs)
	}
}

// TestClusterUpstreamHeaderSync covers the incremental header index: a
// fresh upstream resolves any distributed block's header, and a later
// block distributed after the first sync is still found.
func TestClusterUpstreamHeaderSync(t *testing.T) {
	addrs, blocks := startCluster(t, 3, 1, 2, 10)
	up, err := NewClusterUpstream(addrs, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()

	h, err := up.Header(blocks[1].Hash())
	if err != nil {
		t.Fatal(err)
	}
	if h.Hash() != blocks[1].Hash() {
		t.Fatal("wrong header")
	}

	// Unknown hash: clean error.
	if _, err := up.Header(blockcrypto.Sum256([]byte("nope"))); !errors.Is(err, ErrUnknownBlock) {
		t.Fatalf("got %v, want ErrUnknownBlock", err)
	}

	// Rendezvous placement agrees with the writer's: every owner the
	// upstream names actually serves the chunk.
	b := blocks[0]
	parts, err := up.Parts(b.Hash())
	if err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < parts; idx++ {
		owners, err := up.Owners(b.Hash(), idx)
		if err != nil {
			t.Fatal(err)
		}
		if len(owners) != 1 {
			t.Fatalf("r=1 placement returned %d owners", len(owners))
		}
		resp, err := up.FetchBatch(owners[0], []netx.ChunkRef{{Block: b.Hash(), Index: idx}})
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Found[0] {
			t.Fatalf("owner %d does not hold chunk %d", owners[0], idx)
		}
	}
}

// TestGatewayProofMatchesCoreVerify ties the wire proof back to the core
// light-client contract.
func TestGatewayProofMatchesCoreVerify(t *testing.T) {
	addrs, blocks := startCluster(t, 4, 2, 1, 15)
	up, err := NewClusterUpstream(addrs, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	g, err := New(Config{Upstream: up, BlockCacheBytes: 1 << 20, ChunkCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	b := blocks[0]
	for _, tx := range b.Txs {
		p, err := g.GetTxProof(b.Hash(), tx.ID())
		if err != nil {
			t.Fatalf("tx %s: %v", tx.ID().Short(), err)
		}
		if err := p.Verify(); err != nil {
			t.Fatalf("tx %s: %v", tx.ID().Short(), err)
		}
	}
	if _, err := g.GetTxProof(b.Hash(), blockcrypto.Sum256([]byte("ghost"))); !errors.Is(err, core.ErrTxNotFound) {
		t.Fatalf("got %v, want core.ErrTxNotFound", err)
	}
}
