package netx

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/core"
	"icistrategy/internal/workload"
)

// startServers launches n TCP storage servers on ephemeral ports.
func startServers(t testing.TB, n int) ([]*Server, []string) {
	t.Helper()
	servers := make([]*Server, n)
	addrs := make([]string, n)
	for i := range servers {
		s, err := NewServer("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		servers[i] = s
		addrs[i] = s.Addr()
	}
	return servers, addrs
}

func testBlocks(t testing.TB, count, txPerBlock int) []*chain.Block {
	t.Helper()
	return seededBlocks(t, 77, count, txPerBlock)
}

// seededBlocks generates a chain of count blocks from the workload seed.
func seededBlocks(t testing.TB, seed uint64, count, txPerBlock int) []*chain.Block {
	t.Helper()
	gen, err := workload.NewGenerator(workload.Config{Accounts: 40, PayloadBytes: 20, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	cb, err := workload.NewChainBuilder(gen, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*chain.Block, count)
	for i := range out {
		b, err := cb.NextBlock(txPerBlock)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

func TestFramingRoundTrip(t *testing.T) {
	// In-memory pipe: write a request, read it back.
	srv, addrs := startServers(t, 1)
	_ = srv
	c, err := Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h := chain.Header{Height: 3, TxCount: 1}
	if err := c.PutHeader(h); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetHeaders(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Hash() != h.Hash() {
		t.Fatalf("headers round trip: %+v", got)
	}
}

func TestClusterDistributeAndRetrieve(t *testing.T) {
	_, addrs := startServers(t, 6)
	cl, err := NewCluster(addrs, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	blocks := testBlocks(t, 3, 30)
	for _, b := range blocks {
		if err := cl.DistributeBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range blocks {
		got, err := cl.RetrieveBlock(b.Header)
		if err != nil {
			t.Fatal(err)
		}
		if got.Hash() != b.Hash() || len(got.Txs) != len(b.Txs) {
			t.Fatal("retrieved block mismatch")
		}
	}
}

// TestGetChunkServesTheSplitsProofs: a server keeps a chunk's Merkle edge,
// not its proofs, and what it serves with proofs is exactly what
// core.SplitBlock made, for every replica of every chunk, an uneven split's
// included.
func TestGetChunkServesTheSplitsProofs(t *testing.T) {
	const n, r = 4, 2
	_, addrs := startServers(t, n)
	cl, err := NewCluster(addrs, r)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	served := 0
	for _, b := range distributeBlocks(t, cl, 2, 37) {
		groups, err := core.SplitBlock(b, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, addr := range addrs {
			c, err := cl.client(addr, 0)
			if err != nil {
				t.Fatal(err)
			}
			for idx, g := range groups {
				chk, err := c.GetChunk(b.Hash(), idx)
				if err != nil {
					continue // another member owns it
				}
				if !reflect.DeepEqual(chk.Proofs, g.Proofs) {
					t.Errorf("block %d chunk %d from %s: served proofs are not the split's", b.Header.Height, idx, addr)
				}
				served++
			}
		}
	}
	if want := 2 * n * r; served != want {
		t.Fatalf("%d chunks served, want %d", served, want)
	}
}

func TestClusterStorageIsPartitioned(t *testing.T) {
	servers, addrs := startServers(t, 5)
	cl, err := NewCluster(addrs, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	b := testBlocks(t, 1, 40)[0]
	if err := cl.DistributeBlock(b); err != nil {
		t.Fatal(err)
	}
	body := int64(b.BodySize())
	var sum int64
	for _, s := range servers {
		st := s.Stats()
		if st.ChunkBytes >= body {
			t.Fatalf("one server stores the whole body (%d of %d)", st.ChunkBytes, body)
		}
		sum += st.ChunkBytes
	}
	// r=1: cluster-wide chunk bytes == body bytes (modulo per-chunk count
	// prefixes: 5 chunks x 4 bytes, minus the body's own 4-byte prefix).
	want := body + 4*int64(len(servers)) - 4
	if sum != want {
		t.Fatalf("cluster stores %d bytes, want %d", sum, want)
	}
}

func TestDegradedReadWithDeadServer(t *testing.T) {
	servers, addrs := startServers(t, 6)
	cl, err := NewCluster(addrs, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	b := testBlocks(t, 1, 24)[0]
	if err := cl.DistributeBlock(b); err != nil {
		t.Fatal(err)
	}
	// Kill one server; with r=2 every chunk has a live replica.
	if err := servers[2].Close(); err != nil {
		t.Fatal(err)
	}
	got, err := cl.RetrieveBlock(b.Header)
	if err != nil {
		t.Fatalf("degraded read: %v", err)
	}
	if got.Hash() != b.Hash() {
		t.Fatal("wrong block")
	}
}

func TestServerRejectsUnverifiableChunks(t *testing.T) {
	_, addrs := startServers(t, 1)
	c, err := Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	b := testBlocks(t, 1, 8)[0]
	if err := c.PutHeader(b.Header); err != nil {
		t.Fatal(err)
	}
	tree, _ := chain.TxMerkleTree(b.Txs)
	proof0, _ := tree.Prove(0)
	sub := chain.Block{Txs: b.Txs[:1]}
	good := PutChunkReq{
		Block: b.Hash(), Index: 0, Parts: 8, TxStart: 0,
		Data: sub.EncodeBody(), Proofs: []chain.Proof{proof0},
	}
	if err := c.PutChunk(good); err != nil {
		t.Fatalf("valid chunk rejected: %v", err)
	}

	// Tampered data fails proof verification server-side.
	proof1, _ := tree.Prove(1)
	tampered := good
	tampered.Index, tampered.TxStart, tampered.Proofs = 1, 1, []chain.Proof{proof1}
	mut := *b.Txs[1]
	mut.Amount++
	tsub := chain.Block{Txs: []*chain.Transaction{&mut}}
	tampered.Data = tsub.EncodeBody()
	if err := c.PutChunk(tampered); err == nil {
		t.Fatal("tampered chunk accepted")
	}

	// Chunk for an unknown header is refused.
	unknown := good
	unknown.Block = blockcrypto.Sum256([]byte("phantom"))
	if err := c.PutChunk(unknown); err == nil {
		t.Fatal("chunk without header accepted")
	}

	// Structural garbage is refused.
	garbage := good
	garbage.Index = 2
	garbage.Data = []byte{1, 2, 3}
	if err := c.PutChunk(garbage); err == nil {
		t.Fatal("garbage chunk accepted")
	}
	empty := good
	empty.Index = 3
	empty.Data = nil
	if err := c.PutChunk(empty); err == nil {
		t.Fatal("empty chunk accepted")
	}
}

// TestServerRefusesAChunkCutShort: a chunk one transaction short of the
// range the split gives its index — every transaction it holds proves into
// the root and is signed — is refused as a bad request and not stored, as a
// lying transfer source might send it; the chunk as split is then taken.
func TestServerRefusesAChunkCutShort(t *testing.T) {
	servers, addrs := startServers(t, 1)
	c, err := Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	b := testBlocks(t, 1, 16)[0]
	if err := c.PutHeader(b.Header); err != nil {
		t.Fatal(err)
	}
	tree, _ := chain.TxMerkleTree(b.Txs)
	put := func(txs int) error {
		const parts, idx, start = 4, 1, 4 // SplitCounts(16, 4): chunk 1 holds txs [4,8)
		sub := chain.Block{Txs: b.Txs[start : start+txs]}
		req := PutChunkReq{Block: b.Hash(), Index: idx, Parts: parts, TxStart: start, Data: sub.EncodeBody()}
		for i := start; i < start+txs; i++ {
			p, _ := tree.Prove(i)
			req.Proofs = append(req.Proofs, p)
		}
		return c.PutChunk(req)
	}
	// An error crosses the wire as its text.
	if err := put(3); err == nil || !strings.HasPrefix(err.Error(), ErrBadRequest.Error()) {
		t.Fatalf("chunk cut one transaction short: got %v, want %v", err, ErrBadRequest)
	}
	if st := servers[0].Stats(); st.ChunkCount != 0 {
		t.Fatalf("the server stored %d chunks after refusing the short one", st.ChunkCount)
	}
	if err := put(4); err != nil {
		t.Fatalf("chunk as split refused: %v", err)
	}
}

func TestGetChunkNotFound(t *testing.T) {
	_, addrs := startServers(t, 1)
	c, err := Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.GetChunk(blockcrypto.Sum256([]byte("nope")), 0); err == nil {
		t.Fatal("missing chunk found")
	}
}

func TestStats(t *testing.T) {
	_, addrs := startServers(t, 3)
	cl, err := NewCluster(addrs, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	b := testBlocks(t, 1, 12)[0]
	if err := cl.DistributeBlock(b); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.HeaderCount != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(nil, 1); err == nil {
		t.Fatal("empty cluster accepted")
	}
	if _, err := NewCluster([]string{"a"}, 2); err == nil {
		t.Fatal("replication > servers accepted")
	}
}

func TestClientAfterClose(t *testing.T) {
	_, addrs := startServers(t, 1)
	c, err := Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.PutHeader(chain.Header{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestRetrieveIncompleteWithReplicationOne(t *testing.T) {
	servers, addrs := startServers(t, 5)
	cl, err := NewCluster(addrs, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	b := testBlocks(t, 1, 20)[0]
	if err := cl.DistributeBlock(b); err != nil {
		t.Fatal(err)
	}
	// Find a server that holds at least one chunk and kill it: r=1 means
	// its chunks are gone.
	killed := false
	for _, s := range servers {
		if s.Stats().ChunkCount > 0 {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			killed = true
			break
		}
	}
	if !killed {
		t.Fatal("no server held chunks")
	}
	if _, err := cl.RetrieveBlock(b.Header); !errors.Is(err, ErrIncompleteBlock) {
		t.Fatalf("read despite lost chunks (r=1): got %v, want %v", err, ErrIncompleteBlock)
	}
}

func TestConcurrentClients(t *testing.T) {
	// One server, many goroutine clients hammering reads and writes: the
	// server must stay consistent and race-free (run with -race).
	_, addrs := startServers(t, 1)
	blocks := testBlocks(t, 1, 16)
	b := blocks[0]
	setup, err := Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer setup.Close()
	if err := setup.PutHeader(b.Header); err != nil {
		t.Fatal(err)
	}
	tree, _ := chain.TxMerkleTree(b.Txs)

	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		go func() {
			c, err := Dial(addrs[0])
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < 20; i++ {
				idx := (w*20 + i) % len(b.Txs)
				proof, perr := tree.Prove(idx)
				if perr != nil {
					errs <- perr
					return
				}
				sub := chain.Block{Txs: b.Txs[idx : idx+1]}
				put := PutChunkReq{
					Block: b.Hash(), Index: idx, Parts: len(b.Txs), TxStart: idx,
					Data: sub.EncodeBody(), Proofs: []chain.Proof{proof},
				}
				if err := c.PutChunk(put); err != nil {
					errs <- err
					return
				}
				if _, err := c.GetChunk(b.Hash(), idx); err != nil {
					errs <- err
					return
				}
				if _, err := c.Stats(); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	st, err := setup.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ChunkCount != int64(len(b.Txs)) {
		t.Fatalf("server holds %d chunks, want %d", st.ChunkCount, len(b.Txs))
	}
}
