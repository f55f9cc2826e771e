package netx

import (
	"encoding/binary"
	"io"
	"net"
	"strings"
	"sync"
	"testing"

	"icistrategy/internal/chain"
)

// The bootstrap failure-path suite: peers that refuse connections, peers
// that serve truncated frames, and peers that die mid-transfer must all be
// survivable as long as one replica of everything stays reachable.

// distributeBlocks pushes count blocks through cl, failing the test on any
// error, and returns them.
func distributeBlocks(t *testing.T, cl *Cluster, count, txPerBlock int) []*chain.Block {
	t.Helper()
	blocks := testBlocks(t, count, txPerBlock)
	for _, b := range blocks {
		if err := cl.DistributeBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	return blocks
}

// deadAddr returns a loopback address that refuses connections: the port
// was bound and released, so nothing listens there.
func deadAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	_ = l.Close()
	return addr
}

func TestBootstrapSurvivesRefusedPeer(t *testing.T) {
	// 3 members, r=2: member 0 is down when the newcomer bootstraps.
	// Header sync and every chunk fetch must fall through to survivors.
	servers, addrs := startServers(t, 3)
	cl, err := NewCluster(addrs, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	distributeBlocks(t, cl, 3, 18)
	if err := servers[0].Close(); err != nil {
		t.Fatal(err)
	}

	newcomer, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = newcomer.Close() })
	transferred, err := cl.BootstrapNewMember(newcomer.Addr())
	if err != nil {
		t.Fatalf("bootstrap with one refused peer: %v", err)
	}
	if transferred == 0 {
		t.Fatal("no chunks transferred")
	}
	if got := newcomer.Stats().HeaderCount; got != 3 {
		t.Fatalf("newcomer has %d headers, want 3", got)
	}
}

func TestBootstrapAllPeersRefuse(t *testing.T) {
	addrs := []string{deadAddr(t), deadAddr(t)}
	cl, err := NewCluster(addrs, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	newcomer, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = newcomer.Close() })
	if _, err := cl.BootstrapNewMember(newcomer.Addr()); err == nil {
		t.Fatal("bootstrap succeeded with every peer refusing connections")
	} else if !strings.Contains(err.Error(), "bootstrap") {
		t.Fatalf("error does not identify the bootstrap phase: %v", err)
	}
}

// truncatingPeer accepts connections, reads one request frame, then writes
// a frame header claiming a large body but only a few bytes of it before
// closing — the wire shape of a peer dying mid-frame.
func truncatingPeer(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				var hdr [4]byte
				if _, err := io.ReadFull(c, hdr[:]); err != nil {
					return
				}
				n := binary.BigEndian.Uint32(hdr[:])
				if _, err := io.CopyN(io.Discard, c, int64(n)); err != nil {
					return
				}
				var out [4]byte
				binary.BigEndian.PutUint32(out[:], 100)
				_, _ = c.Write(out[:])
				_, _ = c.Write([]byte("truncated!"))
			}(conn)
		}
	}()
	return l.Addr().String()
}

func TestBootstrapSurvivesTruncatedFrames(t *testing.T) {
	// Distribute over two real members (ids 0, 1, r=2: both own every
	// chunk), then bootstrap through a membership view where member 0's
	// address is a peer that truncates every response mid-frame. Header
	// sync and chunk fetches must fall through to member 1.
	_, addrs := startServers(t, 2)
	cl, err := NewCluster(addrs, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	blocks := distributeBlocks(t, cl, 2, 16)

	remapped, err := NewCluster([]string{truncatingPeer(t), addrs[1]}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer remapped.Close()
	newcomer, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = newcomer.Close() })
	transferred, err := remapped.BootstrapNewMember(newcomer.Addr())
	if err != nil {
		t.Fatalf("bootstrap with truncating peer: %v", err)
	}
	if transferred == 0 {
		t.Fatal("no chunks transferred")
	}
	if got := newcomer.Stats().HeaderCount; got != int64(len(blocks)) {
		t.Fatalf("newcomer has %d headers, want %d", got, len(blocks))
	}
}

// dyingProxy forwards TCP to backend but kills the whole peer (active
// connections and listener) after relaying responseBudget response frames
// — a peer that serves header sync and then dies mid-transfer.
type dyingProxy struct {
	addr string

	mu     sync.Mutex
	budget int
	conns  []net.Conn
	l      net.Listener
	dead   bool
}

func newDyingProxy(t *testing.T, backend string, responseBudget int) *dyingProxy {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &dyingProxy{addr: l.Addr().String(), budget: responseBudget, l: l}
	t.Cleanup(p.kill)
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			p.mu.Lock()
			if p.dead {
				p.mu.Unlock()
				_ = conn.Close()
				return
			}
			p.conns = append(p.conns, conn)
			p.mu.Unlock()
			go p.serve(conn, backend)
		}
	}()
	return p
}

func (p *dyingProxy) kill() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead {
		return
	}
	p.dead = true
	_ = p.l.Close()
	for _, c := range p.conns {
		_ = c.Close()
	}
}

// serve relays client<->backend, counting response frames and killing the
// proxy once the budget runs out.
func (p *dyingProxy) serve(client net.Conn, backend string) {
	defer client.Close()
	up, err := net.Dial("tcp", backend)
	if err != nil {
		return
	}
	defer up.Close()
	go func() { _, _ = io.Copy(up, client) }() // requests: relay raw
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(up, hdr[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if _, err := client.Write(hdr[:]); err != nil {
			return
		}
		if _, err := io.CopyN(client, up, int64(n)); err != nil {
			return
		}
		p.mu.Lock()
		p.budget--
		out := p.budget <= 0
		p.mu.Unlock()
		if out {
			p.kill()
			return
		}
	}
}

func TestBootstrapRecoversWhenPeerDiesMidTransfer(t *testing.T) {
	// Two real members, r=2. The bootstrap's view routes member 0 through
	// a proxy that dies after two response frames: enough to serve the
	// header sync (and perhaps one chunk), then every later fetch from
	// member 0 fails and must be satisfied by member 1 — the second peer.
	_, addrs := startServers(t, 2)
	cl, err := NewCluster(addrs, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	blocks := distributeBlocks(t, cl, 3, 16)

	proxy := newDyingProxy(t, addrs[0], 2)
	remapped, err := NewCluster([]string{proxy.addr, addrs[1]}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer remapped.Close()
	newcomer, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = newcomer.Close() })
	transferred, err := remapped.BootstrapNewMember(newcomer.Addr())
	if err != nil {
		t.Fatalf("bootstrap with peer dying mid-transfer: %v", err)
	}
	if transferred == 0 {
		t.Fatal("no chunks transferred")
	}
	if got := newcomer.Stats().HeaderCount; got != int64(len(blocks)) {
		t.Fatalf("newcomer has %d headers, want %d", got, len(blocks))
	}
}

func TestResyncMemberRestoresCrashedNode(t *testing.T) {
	// A member crashes and restarts empty on a fresh port; ResyncMember
	// refills exactly the chunks it owns under the unchanged membership.
	servers, addrs := startServers(t, 4)
	cl, err := NewCluster(addrs, 2)
	if err != nil {
		t.Fatal(err)
	}
	distributeBlocks(t, cl, 3, 20)
	wantChunks := servers[2].Stats().ChunkCount
	wantHeaders := servers[2].Stats().HeaderCount
	cl.Close()
	if err := servers[2].Close(); err != nil {
		t.Fatal(err)
	}

	reborn, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = reborn.Close() })
	newAddrs := append([]string(nil), addrs...)
	newAddrs[2] = reborn.Addr()
	view, err := NewCluster(newAddrs, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer view.Close()
	transferred, err := view.ResyncMember(reborn.Addr())
	if err != nil {
		t.Fatalf("resync: %v", err)
	}
	st := reborn.Stats()
	if st.ChunkCount != wantChunks || int64(transferred) != wantChunks {
		t.Fatalf("resynced %d chunks (stored %d), want %d", transferred, st.ChunkCount, wantChunks)
	}
	if st.HeaderCount != wantHeaders {
		t.Fatalf("resynced %d headers, want %d", st.HeaderCount, wantHeaders)
	}
	// The healed cluster serves verified reads again.
	var hdrs []chain.Header
	c, err := Dial(newAddrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if hdrs, err = c.GetHeaders(0); err != nil || len(hdrs) == 0 {
		t.Fatalf("headers after resync: %v (%d)", err, len(hdrs))
	}
	if _, err := view.RetrieveBlock(hdrs[len(hdrs)-1]); err != nil {
		t.Fatalf("retrieve after resync: %v", err)
	}
}

// TestResyncMemberValidatesIdentity: the identity a resync provisions is
// the one the current epoch gives the address, so an address the current
// epoch does not list — never a member, or retired — is refused.
func TestResyncMemberValidatesIdentity(t *testing.T) {
	_, addrs := startServers(t, 3)
	cl, err := NewCluster(addrs, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.ResyncMember("127.0.0.1:1"); err == nil {
		t.Fatal("a non-member address accepted")
	}
	if _, err := cl.RetireMember(addrs[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ResyncMember(addrs[2]); err == nil {
		t.Fatal("a retired member's address accepted")
	}
}
