package gateway

import (
	"errors"
	"testing"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/metrics"
	"icistrategy/internal/netx"
	"icistrategy/internal/workload"
)

// TestGatewayServesAcrossMembershipChange is the regression test for the
// frozen-membership upstream: a gateway built over the original roster kept
// resolving placement against its construction-time snapshot, so blocks
// written after a member retired were unreadable (wrong parts count, owners
// pointing at the departed server). With epoch-versioned cluster maps the
// gateway refreshes on the miss and serves both pre- and post-churn blocks
// — even with the retired server fully offline.
func TestGatewayServesAcrossMembershipChange(t *testing.T) {
	const n, r = 4, 2
	servers := make([]*netx.Server, n)
	addrs := make([]string, n)
	for i := range servers {
		s, err := netx.NewServer("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		servers[i] = s
		addrs[i] = s.Addr()
	}
	gen, err := workload.NewGenerator(workload.Config{Accounts: 40, PayloadBytes: 24, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	cb, err := workload.NewChainBuilder(gen, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	full, err := netx.NewCluster(addrs, r)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	var pre []*workloadBlock
	for i := 0; i < 3; i++ {
		b, err := cb.NextBlock(16)
		if err != nil {
			t.Fatal(err)
		}
		if err := full.DistributeBlock(b); err != nil {
			t.Fatal(err)
		}
		pre = append(pre, &workloadBlock{b.Hash(), len(b.Txs)})
	}

	up, err := NewClusterUpstream(addrs, r)
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	reg := metrics.NewRegistry()
	g, err := New(Config{Upstream: up, BlockCacheBytes: 1 << 20, ChunkCacheBytes: 1 << 20, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the gateway under the full membership so its view predates churn.
	if _, err := g.GetBlock(pre[0].hash); err != nil {
		t.Fatal(err)
	}

	// Graceful departure of the last member: displaced chunks move to their
	// new owners, the shrunk epoch is published, and the server goes away.
	moved, err := full.RetireMember(addrs[n-1])
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("retirement moved no chunks; placement cannot have covered the leaver")
	}
	_ = servers[n-1].Close()

	// Post-churn blocks are written by the shrunk cluster: fewer parts,
	// placement over the remaining members only.
	shrunk, err := netx.NewCluster(addrs[:n-1], r)
	if err != nil {
		t.Fatal(err)
	}
	defer shrunk.Close()
	var post []*workloadBlock
	for i := 0; i < 2; i++ {
		b, err := cb.NextBlock(16)
		if err != nil {
			t.Fatal(err)
		}
		if err := shrunk.DistributeBlock(b); err != nil {
			t.Fatal(err)
		}
		post = append(post, &workloadBlock{b.Hash(), len(b.Txs)})
	}

	// The gateway's map is still epoch 0: the first post-churn read misses,
	// refreshes the cluster map, and succeeds on retry.
	for _, want := range post {
		got, err := readBlock(g, want.hash)
		if err != nil {
			t.Fatalf("post-churn block: %v", err)
		}
		if got.Hash() != want.hash || len(got.Txs) != want.txs {
			t.Fatal("post-churn block mismatch")
		}
	}
	if reg.Snapshot()["ici.gateway.map_refreshes"] == 0 {
		t.Fatal("stale-map recovery did not refresh the cluster map")
	}

	// Pre-churn history stays readable with the retired member offline:
	// write-epoch owners answer where they survived, migrated replicas
	// answer for the leaver's share.
	for _, want := range pre {
		got, err := readBlock(g, want.hash)
		if err != nil {
			t.Fatalf("pre-churn block: %v", err)
		}
		if got.Hash() != want.hash || len(got.Txs) != want.txs {
			t.Fatal("pre-churn block mismatch")
		}
	}

	// A fresh gateway that only ever knew the shrunk roster also reads the
	// pre-churn history (its map lists every epoch, so write-epoch parts
	// resolve correctly even though the roster grew from 3 members). It
	// adopted the published map when it was built: a refresh finds nothing
	// newer.
	up2, err := NewClusterUpstream(addrs[:n-1], r)
	if err != nil {
		t.Fatal(err)
	}
	defer up2.Close()
	if up2.Refresh() || len(up2.cl.Map()) != 2 {
		t.Fatalf("fresh upstream holds %d epochs after its build, want the published 2", len(up2.cl.Map()))
	}
	g2, err := New(Config{Upstream: up2, BlockCacheBytes: 1 << 20, ChunkCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range append(append([]*workloadBlock(nil), pre...), post...) {
		got, err := readBlock(g2, want.hash)
		if err != nil {
			t.Fatalf("fresh gateway: %v", err)
		}
		if len(got.Txs) != want.txs {
			t.Fatal("fresh gateway block mismatch")
		}
	}

	// Proof reads rotate over live peers only — the offline member must not
	// make light-client queries flaky.
	for i := 0; i < 2*n; i++ {
		if _, err := g2.GetTxProof(post[0].hash, fakeTxID(t, g2, post[0].hash, i)); err != nil {
			t.Fatalf("proof rotation %d: %v", i, err)
		}
	}
}

// workloadBlock records the identity and size of a distributed block so the
// test can drop the block itself (gateway reads must reproduce it).
type workloadBlock struct {
	hash blockcrypto.Hash
	txs  int
}

// fakeTxID picks the i-th transaction ID of a block via the gateway itself.
func fakeTxID(t *testing.T, g *Gateway, block blockcrypto.Hash, i int) blockcrypto.Hash {
	t.Helper()
	b, err := readBlock(g, block)
	if err != nil {
		t.Fatal(err)
	}
	return b.Txs[i%len(b.Txs)].ID()
}

// TestUpstreamRefreshNoMapIsFalse pins the no-op path: with no published
// map anywhere, Refresh reports false and placement stays on epoch 0.
func TestUpstreamRefreshNoMapIsFalse(t *testing.T) {
	addrs, blocks := startCluster(t, 3, 2, 1, 10)
	up, err := NewClusterUpstream(addrs, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	if up.Refresh() {
		t.Fatal("Refresh adopted a map nobody published")
	}
	parts, err := up.Parts(blocks[0].Hash())
	if err != nil {
		t.Fatal(err)
	}
	if parts != 3 {
		t.Fatalf("parts = %d, want 3", parts)
	}
	if got := up.Peers(); len(got) != 3 {
		t.Fatalf("peers = %v, want 3 members", got)
	}
}

// TestHeaderSyncAsksPastAnEmptyMember: member 0 restarted with an empty
// store and heads the roster. Its answer to the header sync — no headers —
// is not the cluster's: the members behind it hold every header and, at
// r = 2, a copy of every chunk, so the block must be found and read.
func TestHeaderSyncAsksPastAnEmptyMember(t *testing.T) {
	addrs, blocks := startCluster(t, 3, 2, 2, 10)
	empty, err := netx.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	up, err := NewClusterUpstream([]string{empty.Addr(), addrs[1], addrs[2]}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	g, err := New(Config{Upstream: up})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		got, err := readBlock(g, b.Hash())
		if err != nil {
			t.Fatalf("block %d behind an empty first member: %v", b.Header.Height, err)
		}
		if got.Hash() != b.Hash() {
			t.Fatalf("block %d read wrong", b.Header.Height)
		}
	}
	if _, err := up.Header(blockcrypto.Sum256([]byte("nobody wrote this"))); !errors.Is(err, ErrUnknownBlock) {
		t.Fatalf("a block no member knows: got %v, want %v", err, ErrUnknownBlock)
	}
}
