package netx

import (
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// restart closes s and starts an empty server at its address.
func restart(t *testing.T, s *Server) *Server {
	t.Helper()
	addr := s.Addr()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reborn, err := NewServer(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = reborn.Close() })
	return reborn
}

// TestRetrieveFromARestartedMember: the only member of an r = 1 cluster
// restarts at its address and a second Cluster writes the block to it again,
// while the first still caches a connection to the old process. The first
// Cluster's read finds that connection hung up and asks again on a new one;
// it used to strike the member as if it were down and fail with "have 0 of
// 1", with no other holder to ask.
func TestRetrieveFromARestartedMember(t *testing.T) {
	servers, addrs := startServers(t, 1)
	cl, err := NewCluster(addrs, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	b := distributeBlocks(t, cl, 1, 8)[0]
	if _, err := cl.RetrieveBlock(b.Header); err != nil {
		t.Fatalf("read before the restart: %v", err)
	}
	old, err := cl.client(addrs[0], 0)
	if err != nil {
		t.Fatal(err)
	}

	restart(t, servers[0])
	writer, err := NewCluster(addrs, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	if err := writer.DistributeBlock(b); err != nil {
		t.Fatal(err)
	}
	got, err := cl.RetrieveBlock(b.Header)
	if err != nil {
		t.Fatalf("read from the restarted member: %v", err)
	}
	if got.Hash() != b.Hash() {
		t.Fatal("the block read back wrong")
	}
	if cur, _ := cl.client(addrs[0], 0); cur == old {
		t.Fatal("the hung-up connection is still cached")
	}
}

// TestDistributeToARestartedMember: member 0 of three (r = 2) restarts empty
// at its address and a second Cluster resyncs it. The writer's cached
// connection went with the old process: its next write finds it hung up and
// puts the member's share over a new one. It used to fail the whole write
// with "put header to …: EOF".
func TestDistributeToARestartedMember(t *testing.T) {
	const n, r = 3, 2
	servers, addrs := startServers(t, n)
	cl, err := NewCluster(addrs, r)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	blocks := testBlocks(t, 3, 16)
	for _, b := range blocks[:2] {
		if err := cl.DistributeBlock(b); err != nil {
			t.Fatal(err)
		}
	}

	servers[0] = restart(t, servers[0])
	other, err := NewCluster(addrs, r)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if _, err := other.ResyncMember(addrs[0]); err != nil {
		t.Fatal(err)
	}
	if err := cl.DistributeBlock(blocks[2]); err != nil {
		t.Fatalf("write after member 0 restarted: %v", err)
	}
	for m, s := range servers {
		requireShare(t, s, m, blocks, n, r)
	}
}

// TestCallEvictsOnlyDeadConnections is the regression test for the
// gateway's old connection cache, which evicted by peer number on any error:
// a server that answered with an error had its sound connection closed, and
// a goroutine still holding the old client evicted the fresh connection
// another goroutine had just dialed. Cluster.Call drops only a connection a
// failed call already closed, and only while it is still the cached one.
func TestCallEvictsOnlyDeadConnections(t *testing.T) {
	_, addrs := startServers(t, 1)
	writer, err := NewCluster(addrs, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	b := distributeBlocks(t, writer, 1, 8)[0]
	proxied, accepts := countingProxy(t, addrs[0])
	cl, err := NewCluster([]string{proxied}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	fetch := func(refs []ChunkRef) (resp *ChunkBatchResp, err error) {
		err = cl.Call(proxied, 0, func(c *Client) (err error) {
			resp, err = c.GetChunkBatch(refs)
			return err
		})
		return resp, err
	}
	refs := []ChunkRef{{Block: b.Hash(), Index: 0}}

	// A server-answered error (an empty batch is a malformed request) leaves
	// the connection in the cache: the next fetch does not dial.
	if _, err := fetch(nil); err == nil {
		t.Fatal("empty batch was served")
	}
	if resp, err := fetch(refs); err != nil || !resp.Found[0] {
		t.Fatalf("fetch after a refusal: %v", err)
	}
	if n := accepts.Load(); n != 1 {
		t.Fatalf("server saw %d connections, want 1: a refusal evicted a sound connection", n)
	}

	// A connection that died is replaced...
	stale, err := cl.client(proxied, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = stale.Close()
	if _, err := fetch(refs); err == nil {
		t.Fatal("fetch on a closed connection succeeded")
	}
	if _, err := fetch(refs); err != nil {
		t.Fatalf("fetch after the dead connection was dropped: %v", err)
	}
	if n := accepts.Load(); n != 2 {
		t.Fatalf("server saw %d connections, want 2", n)
	}
	// ...and a late report about the dead one does not evict its successor.
	cl.drop(proxied, stale)
	if _, err := fetch(refs); err != nil {
		t.Fatal(err)
	}
	if n := accepts.Load(); n != 2 {
		t.Fatalf("server saw %d connections, want 2: a stale drop evicted the fresh connection", n)
	}
}

// TestCallDoesNotRetryADeadline: a member that accepts and never answers
// costs the caller one deadline, not two, and its connection is dropped.
func TestCallDoesNotRetryADeadline(t *testing.T) {
	addr, accepts := countingProxy(t, stalledServer(t))
	cl := &Cluster{replication: 1, clients: make(map[string]*Client), timeout: 150 * time.Millisecond} // NewCluster's poll would wait out the default deadline
	defer cl.Close()
	err := within(t, func() error {
		return cl.Call(addr, 0, func(c *Client) error {
			_, err := c.Stats()
			return err
		})
	})
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want a deadline", err)
	}
	if n := accepts.Load(); n != 1 {
		t.Fatalf("a stalled member was dialed %d times, want 1", n)
	}
	if len(cl.clients) != 0 {
		t.Fatal("the timed-out connection is still cached")
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
