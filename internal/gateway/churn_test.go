package gateway

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
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

// countingProxy forwards TCP connections to backend and counts the ones it
// accepted — how many times a client dialed.
func countingProxy(t *testing.T, backend string) (string, *atomic.Int64) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		accepts atomic.Int64
		wg      sync.WaitGroup
	)
	t.Cleanup(func() {
		_ = l.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			in, err := l.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			out, err := net.Dial("tcp", backend)
			if err != nil {
				_ = in.Close()
				continue
			}
			wg.Add(2)
			for _, pair := range [][2]net.Conn{{in, out}, {out, in}} {
				go func() {
					defer wg.Done()
					_, _ = io.Copy(pair[0], pair[1])
					_ = pair[0].Close() // one side ended: unblock the other copy
				}()
			}
		}
	}()
	return l.Addr().String(), &accepts
}

// TestUpstreamEvictsOnlyDeadConnections is the regression test for the
// gateway's own connection cache, which evicted by peer number on any error:
// a server that answered with an error had its sound connection closed, and
// a goroutine still holding the old client evicted the fresh connection
// another goroutine had just dialed. The upstream now shares netx.Cluster's
// cache, which drops only a connection a failed call already closed, and
// only while it is still the cached one.
func TestUpstreamEvictsOnlyDeadConnections(t *testing.T) {
	addrs, blocks := startCluster(t, 1, 1, 1, 8)
	proxied, accepts := countingProxy(t, addrs[0])
	up, err := NewClusterUpstream([]string{proxied}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	refs := []netx.ChunkRef{{Block: blocks[0].Hash(), Index: 0}}

	// A server-answered error (an empty batch is a malformed request) leaves
	// the connection in the cache: the next fetch does not dial.
	if _, err := up.FetchBatch(0, nil); err == nil {
		t.Fatal("empty batch was served")
	}
	if resp, err := up.FetchBatch(0, refs); err != nil || !resp.Found[0] {
		t.Fatalf("fetch after a refusal: %v", err)
	}
	if n := accepts.Load(); n != 1 {
		t.Fatalf("server saw %d connections, want 1: a refusal evicted a sound connection", n)
	}

	// A connection that died is replaced...
	stale, err := up.cl.Client(proxied)
	if err != nil {
		t.Fatal(err)
	}
	_ = stale.Close()
	if _, err := up.FetchBatch(0, refs); err == nil {
		t.Fatal("fetch on a closed connection succeeded")
	}
	if _, err := up.FetchBatch(0, refs); err != nil {
		t.Fatalf("fetch after the dead connection was dropped: %v", err)
	}
	if n := accepts.Load(); n != 2 {
		t.Fatalf("server saw %d connections, want 2", n)
	}
	// ...and a late report about the dead one does not evict its successor.
	up.cl.DropClient(proxied, stale)
	if _, err := up.FetchBatch(0, refs); err != nil {
		t.Fatal(err)
	}
	if n := accepts.Load(); n != 2 {
		t.Fatalf("server saw %d connections, want 2: a stale drop evicted the fresh connection", n)
	}
}

// TestUpstreamRedialsARestartedMember: a member restarts at its address
// while the upstream still caches a connection to its old process. The next
// fetch finds that connection hung up and is asked again on a new one;
// without that it failed, and a gather struck the member as if it were down
// — unreadable, when no other holder of its chunks was up.
func TestUpstreamRedialsARestartedMember(t *testing.T) {
	_, blocks := startCluster(t, 1, 1, 1, 8)
	b := blocks[0]
	// serve starts a member at addr holding b.
	serve := func(addr string) *netx.Server {
		s, err := netx.NewServer(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		cl, err := netx.NewCluster([]string{s.Addr()}, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if err := cl.DistributeBlock(b); err != nil {
			t.Fatal(err)
		}
		return s
	}
	first := serve("127.0.0.1:0")
	addr := first.Addr()
	up, err := NewClusterUpstream([]string{addr}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	refs := []netx.ChunkRef{{Block: b.Hash(), Index: 0}}
	if resp, err := up.FetchBatch(0, refs); err != nil || !resp.Found[0] {
		t.Fatalf("fetch before the restart: %v", err)
	}
	old, err := up.cl.Client(addr)
	if err != nil {
		t.Fatal(err)
	}

	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	serve(addr)
	if resp, err := up.FetchBatch(0, refs); err != nil || !resp.Found[0] {
		t.Fatalf("fetch from the restarted member: %v", err)
	}
	if cur, _ := up.cl.Client(addr); cur == old {
		t.Fatal("the hung-up connection is still cached")
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
