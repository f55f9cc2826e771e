package netx

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/core"
	"icistrategy/internal/simnet"
	"icistrategy/internal/storage"
)

// Tests of the concurrent write path: DistributeBlock's one goroutine per
// member, the transfer workers behind bootstrap / resync / rejoin / retire,
// and the server verifying chunks outside its store lock.

// sequentialDistribute is DistributeBlock as it was before members were
// written to side by side: every header in address order, then every chunk
// in index order to each owner in turn. The differential tests use it as
// the reference.
func sequentialDistribute(cl *Cluster, b *chain.Block) error {
	tree, err := chain.TxMerkleTree(b.Txs)
	if err != nil {
		return err
	}
	for _, addr := range cl.Map().Current().Addrs {
		c, err := cl.client(addr, 0)
		if err != nil {
			return err
		}
		if err := c.PutHeader(b.Header); err != nil {
			return fmt.Errorf("put header to %s: %w", addr, err)
		}
	}
	parts := len(cl.Map().Current().Addrs)
	counts, err := core.SplitCounts(len(b.Txs), parts)
	if err != nil {
		return err
	}
	seed := b.Hash().Uint64()
	txStart := 0
	for idx := 0; idx < parts; idx++ {
		group := b.Txs[txStart : txStart+counts[idx]]
		proofs := make([]chain.Proof, len(group))
		for i := range group {
			if proofs[i], err = tree.Prove(txStart + i); err != nil {
				return err
			}
		}
		sub := chain.Block{Txs: group}
		req := PutChunkReq{Block: b.Hash(), Index: idx, Parts: parts, TxStart: txStart, Data: sub.EncodeBody(), Proofs: proofs}
		owners, err := core.Owners(seed, cl.Map().Current().Members, idx, cl.replication)
		if err != nil {
			return err
		}
		for _, o := range owners {
			addr := cl.Map().Current().Addrs[int(o)]
			c, err := cl.client(addr, 0)
			if err != nil {
				return err
			}
			if err := c.PutChunk(req); err != nil {
				return fmt.Errorf("put chunk %d to %s: %w", idx, addr, err)
			}
		}
		txStart += counts[idx]
	}
	return nil
}

// sequentialBootstrap provisions target as member len(cl.Map().Current().Members) one chunk
// after another over one connection: the reference for BootstrapNewMember.
func sequentialBootstrap(t *testing.T, cl *Cluster, target string) int {
	t.Helper()
	headers, err := cl.syncHeaders(target, cl.Map())
	if err != nil {
		t.Fatal(err)
	}
	dst, err := Dial(target)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	grown := memberIDs(len(cl.Map().Current().Members) + 1)
	n := 0
	for _, h := range headers {
		for _, idx := range ownedChunks(t, h.Hash(), grown, len(cl.Map().Current().Members), cl.replication)[len(cl.Map().Current().Members)] {
			owners, err := core.Owners(h.Hash().Uint64(), cl.Map().Current().Members, idx, cl.replication)
			if err != nil {
				t.Fatal(err)
			}
			src, err := cl.client(cl.Map().Current().Addrs[int(owners[0])], 0)
			if err != nil {
				t.Fatal(err)
			}
			chk, err := src.GetChunk(h.Hash(), idx)
			if err != nil {
				t.Fatal(err)
			}
			req := PutChunkReq{Block: h.Hash(), Index: idx, Parts: chk.Parts, TxStart: chk.TxStart, Data: chk.Data, Proofs: chk.Proofs}
			if err := dst.PutChunk(req); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	return n
}

func memberIDs(n int) []simnet.NodeID {
	ids := make([]simnet.NodeID, n)
	for i := range ids {
		ids[i] = simnet.NodeID(i)
	}
	return ids
}

// ownedChunks lists, per member, the chunk indices of a parts-chunk block
// that rendezvous placement gives it, ascending.
func ownedChunks(t testing.TB, block blockcrypto.Hash, ids []simnet.NodeID, parts, replication int) [][]int {
	t.Helper()
	owned := make([][]int, len(ids))
	for idx := 0; idx < parts; idx++ {
		owners, err := core.Owners(block.Uint64(), ids, idx, replication)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range owners {
			owned[int(o)] = append(owned[int(o)], idx)
		}
	}
	return owned
}

// serverState is everything a client can read back from one server.
type serverState struct {
	Stats  StatsResp
	Chunks []*BlockChunksResp // per block, in chain order
}

func readState(t *testing.T, addr string, blocks []*chain.Block) serverState {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	out := serverState{Stats: *st}
	for _, b := range blocks {
		resp, err := c.GetBlockChunks(b.Hash())
		if err != nil {
			t.Fatal(err)
		}
		out.Chunks = append(out.Chunks, resp)
	}
	return out
}

func requireSameState(t *testing.T, when string, ref, got []string, blocks []*chain.Block) {
	t.Helper()
	for i := range ref {
		if a, b := readState(t, ref[i], blocks), readState(t, got[i], blocks); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: server %d differs from the sequential reference: stats %+v vs %+v", when, i, a.Stats, b.Stats)
		}
	}
}

func newJoiner(t *testing.T) *Server {
	t.Helper()
	servers, _ := startServers(t, 1)
	return servers[0]
}

// TestDistributeMatchesSequentialReference distributes the same seeded
// chains by the sequential reference and by DistributeBlock, then takes
// both clusters through bootstrap, retire and rejoin: at every step each
// server of one cluster must answer Stats and GetBlockChunks exactly as its
// counterpart does.
func TestDistributeMatchesSequentialReference(t *testing.T) {
	for _, seed := range []uint64{7, 1009} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			const n, r = 5, 2
			blocks := seededBlocks(t, seed, 12, 30)
			_, refAddrs := startServers(t, n)
			_, gotAddrs := startServers(t, n)
			ref, err := NewCluster(refAddrs, r)
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			got, err := NewCluster(gotAddrs, r)
			if err != nil {
				t.Fatal(err)
			}
			defer got.Close()
			for _, b := range blocks {
				if err := sequentialDistribute(ref, b); err != nil {
					t.Fatal(err)
				}
				if err := got.DistributeBlock(b); err != nil {
					t.Fatal(err)
				}
			}
			requireSameState(t, "after distribute", refAddrs, gotAddrs, blocks)

			refJoiner, gotJoiner := newJoiner(t), newJoiner(t)
			want := sequentialBootstrap(t, ref, refJoiner.Addr())
			moved, err := got.BootstrapNewMember(gotJoiner.Addr())
			if err != nil || moved != want {
				t.Fatalf("bootstrap transferred %d chunks, err %v; the reference moved %d", moved, err, want)
			}
			requireSameState(t, "joiner after bootstrap", []string{refJoiner.Addr()}, []string{gotJoiner.Addr()}, blocks)

			// Retire and rejoin have one implementation; run over both
			// clusters they must leave the same bytes everywhere, and every
			// block must read back from the members that remain.
			for _, step := range []struct {
				name string
				op   func(cl *Cluster, addr string) (int, error)
			}{{"retire", (*Cluster).RetireMember}, {"rejoin", (*Cluster).RejoinMember}} {
				a, err := step.op(ref, refAddrs[n-1])
				if err != nil {
					t.Fatalf("%s (reference cluster): %v", step.name, err)
				}
				b, err := step.op(got, gotAddrs[n-1])
				if err != nil || a != b || b == 0 {
					t.Fatalf("%s moved %d chunks, err %v; on the reference cluster %d", step.name, b, err, a)
				}
				requireSameState(t, "after "+step.name, refAddrs, gotAddrs, blocks)
				shrunk, err := NewCluster(gotAddrs[:n-1], r)
				if err != nil {
					t.Fatal(err)
				}
				for _, blk := range blocks {
					if rb, err := shrunk.RetrieveBlock(blk.Header); err != nil || rb.Hash() != blk.Hash() {
						t.Fatalf("after %s: block %d from the other members: %v", step.name, blk.Header.Height, err)
					}
				}
				shrunk.Close()
			}
		})
	}
}

// requireShare checks that a server holds exactly the headers given and the
// chunks placement gives member m of them.
func requireShare(t *testing.T, s *Server, m int, blocks []*chain.Block, members, replication int) {
	t.Helper()
	var chunks int64
	for _, b := range blocks {
		chunks += int64(len(ownedChunks(t, b.Hash(), memberIDs(members), members, replication)[m]))
	}
	if st := s.Stats(); st.HeaderCount != int64(len(blocks)) || st.ChunkCount != chunks {
		t.Fatalf("member %d holds %d headers and %d chunks, want %d and %d", m, st.HeaderCount, st.ChunkCount, len(blocks), chunks)
	}
}

// TestDistributeWithMembersDown closes two members' servers between two
// blocks. The second DistributeBlock must name the first of them in address
// order, the six others must hold the header and their chunks all the same,
// and once the two are back the same block must distribute cleanly.
func TestDistributeWithMembersDown(t *testing.T) {
	const n, r = 8, 2
	servers, addrs := startServers(t, n)
	cl, err := NewCluster(addrs, r)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	blocks := testBlocks(t, 2, 48)
	if err := cl.DistributeBlock(blocks[0]); err != nil {
		t.Fatal(err)
	}
	down := []int{3, 5}
	for _, m := range down {
		if err := servers[m].Close(); err != nil {
			t.Fatal(err)
		}
	}
	err = cl.DistributeBlock(blocks[1])
	if err == nil || !strings.HasPrefix(err.Error(), "put header to "+addrs[3]+": ") {
		t.Fatalf("err = %v, want the put header to %s (member 3) failing", err, addrs[3])
	}
	cl.mu.Lock()
	for _, m := range down {
		if _, ok := cl.clients[addrs[m]]; ok {
			t.Errorf("the failed connection to member %d is still cached", m)
		}
	}
	cl.mu.Unlock()
	for m, s := range servers {
		if m != 3 && m != 5 {
			requireShare(t, s, m, blocks, n, r)
		}
	}

	// The two come back empty on their old addresses.
	for _, m := range down {
		s, err := NewServer(addrs[m])
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		servers[m] = s
	}
	if err := cl.DistributeBlock(blocks[1]); err != nil {
		t.Fatalf("distributing the block again: %v", err)
	}
	for m, s := range servers {
		if m == 3 || m == 5 {
			requireShare(t, s, m, blocks[1:], n, r)
		} else {
			requireShare(t, s, m, blocks, n, r) // the repeat stored nothing twice
		}
	}
	if b, err := cl.RetrieveBlock(blocks[1].Header); err != nil || b.Hash() != blocks[1].Hash() {
		t.Fatalf("retrieve: %v", err)
	}
}

// TestDistributeChunkPutFails reaches one member through a proxy that dies
// after relaying two replies — the cluster map NewCluster polls for, and the
// header's — so that member's first chunk is what fails, while the others
// finish.
func TestDistributeChunkPutFails(t *testing.T) {
	const n, r = 4, 2
	servers, addrs := startServers(t, n)
	b := testBlocks(t, 1, 24)[0]
	owned := ownedChunks(t, b.Hash(), memberIDs(n), n, r)
	m := 0
	for len(owned[m]) == 0 {
		m++
	}
	proxy := newDyingProxy(t, addrs[m], 2)
	via := append([]string(nil), addrs...)
	via[m] = proxy.addr
	cl, err := NewCluster(via, r)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.DistributeBlock(b)
	want := fmt.Sprintf("put chunk %d to %s: ", owned[m][0], proxy.addr)
	if err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("err = %v, want %q…", err, want)
	}
	for i, s := range servers {
		if i != m {
			requireShare(t, s, i, []*chain.Block{b}, n, r)
		}
	}
}

// TestTransferStopsAtUnavailableChunk damages the only replica of one chunk
// a joiner should receive. The bootstrap must report that chunk, stop
// handing out work, and count exactly the chunks the joiner acknowledged.
func TestTransferStopsAtUnavailableChunk(t *testing.T) {
	const n, r = 4, 1
	servers, addrs := startServers(t, n)
	cl, err := NewCluster(addrs, r)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	blocks := distributeBlocks(t, cl, 40, 16)

	// The joiner's chunks in the order the bootstrap takes them.
	var moves []storage.ChunkID
	for _, b := range blocks {
		for _, idx := range ownedChunks(t, b.Hash(), memberIDs(n+1), n, r)[n] {
			moves = append(moves, storage.ChunkID{Block: b.Hash(), Index: idx})
		}
	}
	// Every move before the bad one was taken before it and completes. While
	// the bad one asks its n sources in turn (its one holder, then every other
	// member), each other worker finishes at most about one move per ask, and
	// once it fails at most one more move is on its way to a worker.
	bad := len(moves) / 3
	limit := bad + (transferWorkers-1)*n + 1
	if bad < 2 || len(moves) <= limit {
		t.Fatalf("joiner owns %d chunks: too few for the test", len(moves))
	}
	owners, err := core.Owners(moves[bad].Block.Uint64(), cl.Map().Current().Members, moves[bad].Index, r)
	if err != nil {
		t.Fatal(err)
	}
	holder := servers[int(owners[0])]
	holder.mu.Lock()
	damaged := holder.store.Corrupt(moves[bad])
	holder.mu.Unlock()
	if !damaged {
		t.Fatal("the holder does not have the chunk")
	}

	joiner := newJoiner(t)
	got, err := cl.BootstrapNewMember(joiner.Addr())
	want := fmt.Sprintf("chunk %d of %s unavailable", moves[bad].Index, moves[bad].Block.Short())
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want it to name %q", err, want)
	}
	if stored := joiner.Stats().ChunkCount; int64(got) != stored {
		t.Fatalf("transferred = %d, the joiner stores %d chunks", got, stored)
	}
	if got < bad || got > limit {
		t.Fatalf("transferred = %d, want between %d and %d of %d", got, bad, limit, len(moves))
	}
	if joiner.ConnErrors() != 0 {
		t.Fatalf("joiner saw %d connection errors", joiner.ConnErrors())
	}
}

// TestConcurrentPutsAndReadsOneServer hammers one server from writers and
// readers on connections of their own. Every pair of writers puts the same
// chunks, so each chunk id is put twice at about the same time.
func TestConcurrentPutsAndReadsOneServer(t *testing.T) {
	const parts, writers, readers = 8, 6, 3
	s := newJoiner(t)
	blocks := testBlocks(t, writers/2, 48)
	setup, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer setup.Close()
	puts := make([][]PutChunkReq, len(blocks))
	for i, b := range blocks {
		if err := setup.PutHeader(b.Header); err != nil {
			t.Fatal(err)
		}
		for idx := 0; idx < parts; idx++ {
			puts[i] = append(puts[i], testChunk(t, b, parts, idx))
		}
	}

	var wg sync.WaitGroup
	stopReaders := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(s.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for idx, put := range puts[w/2] {
				if err := c.PutChunk(put); err != nil {
					t.Errorf("writer %d chunk %d: %v", w, idx, err)
				}
			}
		}()
	}
	var rg sync.WaitGroup
	for rd := 0; rd < readers; rd++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			c, err := Dial(s.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; ; i++ {
				select {
				case <-stopReaders:
					return
				default:
				}
				b := blocks[i%len(blocks)]
				resp, err := c.GetBlockChunks(b.Hash())
				if err != nil {
					t.Errorf("reader %d: %v", rd, err)
					return
				}
				for _, chk := range resp.Chunks {
					if _, err := core.AdoptChunk(b.Header, chk.Index, chk.Parts, chk.TxStart, chk.Data, chk.Proofs); err != nil {
						t.Errorf("reader %d was served an unverifiable chunk %d: %v", rd, chk.Index, err)
					}
				}
				if _, err := c.Stats(); err != nil {
					t.Errorf("reader %d: stats: %v", rd, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stopReaders)
	rg.Wait()

	var bytes int64
	for i, b := range blocks {
		resp, err := setup.GetBlockChunks(b.Hash())
		if err != nil || len(resp.Chunks) != parts {
			t.Fatalf("block %d: %d chunks stored, err %v; want %d", b.Header.Height, len(resp.Chunks), err, parts)
		}
		for _, chk := range resp.Chunks {
			want := puts[i][chk.Index]
			if !reflect.DeepEqual(chk.Data, want.Data) || !reflect.DeepEqual(chk.Proofs, want.Proofs) || chk.TxStart != want.TxStart {
				t.Fatalf("block %d chunk %d is not what was put", b.Header.Height, chk.Index)
			}
			bytes += int64(len(chk.Data))
		}
	}
	st := s.Stats()
	if st.ChunkCount != int64(len(blocks)*parts) || st.ChunkBytes != bytes {
		t.Fatalf("stats count %d bytes %d, want %d distinct chunks of %d bytes", st.ChunkCount, st.ChunkBytes, len(blocks)*parts, bytes)
	}
	if s.ConnErrors() != 0 {
		t.Fatalf("server saw %d connection errors", s.ConnErrors())
	}
}

// TestPutChunkBeforeHeaderStillRefused: the header lookup is the first
// thing a put does, under the lock, so a header that another connection
// delivers afterwards does not let the chunk in.
func TestPutChunkBeforeHeaderStillRefused(t *testing.T) {
	s := newJoiner(t)
	a, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	blk := testBlocks(t, 1, 16)[0]
	chunk := testChunk(t, blk, 4, 1)
	if err := a.PutChunk(chunk); err == nil || !strings.Contains(err.Error(), "header unknown") {
		t.Fatalf("put before the header: err = %v, want header unknown", err)
	}
	if err := b.PutHeader(blk.Header); err != nil {
		t.Fatal(err)
	}
	if n := s.Stats().ChunkCount; n != 0 {
		t.Fatalf("the refused chunk was stored (%d chunks)", n)
	}
	if err := a.PutChunk(chunk); err != nil {
		t.Fatalf("put after the header, on the connection that was refused: %v", err)
	}
}

// TestRefusalKeepsTheSharedConnection: transfer workers share the cached
// connections to the holders, so a holder answering "not found" to one
// worker must not close the connection under the others.
func TestRefusalKeepsTheSharedConnection(t *testing.T) {
	_, addrs := startServers(t, 1)
	cl, err := NewCluster(addrs, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	c, err := cl.client(addrs[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetChunk(blockcrypto.Hash{1}, 0); err == nil {
		t.Fatal("an empty server served a chunk")
	} else {
		cl.drop(addrs[0], c)
	}
	if again, err := cl.client(addrs[0], 0); err != nil || again != c {
		t.Fatalf("the connection was evicted after a refusal (err %v)", err)
	}
	if _, err := c.Stats(); err != nil {
		t.Fatalf("the connection was closed after a refusal: %v", err)
	}
}
