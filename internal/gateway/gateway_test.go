package gateway

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/core"
	"icistrategy/internal/metrics"
	"icistrategy/internal/netx"
	"icistrategy/internal/workload"
)

// fakeUpstream holds fully chunked blocks in memory and counts every
// upstream touch, so tests can assert exactly how much cluster traffic a
// gateway operation cost. Owners assigns chunk idx to peer idx%n with the
// next replication-1 peers as fallbacks (every other peer unless a test
// narrows it).
type fakeUpstream struct {
	parts       int
	replication int
	headers     map[blockcrypto.Hash]chain.Header
	chunks      map[int]map[netx.ChunkRef]netx.ChunkResp // peer -> ref -> chunk
	txs         map[blockcrypto.Hash][]*chain.Transaction

	headerCalls  atomic.Int64
	batchCalls   atomic.Int64
	batchRefs    atomic.Int64
	provenRefs   atomic.Int64 // refs answered with their proofs
	proofCalls   atomic.Int64
	refreshCalls atomic.Int64

	// gate, when non-nil, blocks every FetchBatch until closed; entered,
	// when non-nil, receives one (buffered) send as each FetchBatch arrives.
	gate    chan struct{}
	entered chan struct{}
	// lost marks (peer, ref) pairs that answer Found=false; a dead peer
	// fails every FetchBatch.
	mu   sync.Mutex
	lost map[int]map[netx.ChunkRef]bool
	dead map[int]bool
}

func newFakeUpstream(t testing.TB, peers, blocks, txPerBlock int) (*fakeUpstream, []*chain.Block) {
	t.Helper()
	gen, err := workload.NewGenerator(workload.Config{Accounts: 40, PayloadBytes: 24, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cb, err := workload.NewChainBuilder(gen, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	u := &fakeUpstream{
		parts:       peers,
		replication: peers,
		headers:     make(map[blockcrypto.Hash]chain.Header),
		chunks:      make(map[int]map[netx.ChunkRef]netx.ChunkResp),
		txs:         make(map[blockcrypto.Hash][]*chain.Transaction),
		lost:        make(map[int]map[netx.ChunkRef]bool),
	}
	for p := 0; p < peers; p++ {
		u.chunks[p] = make(map[netx.ChunkRef]netx.ChunkResp)
	}
	out := make([]*chain.Block, blocks)
	for bi := range out {
		b, err := cb.NextBlock(txPerBlock)
		if err != nil {
			t.Fatal(err)
		}
		out[bi] = b
		u.addBlock(t, b)
	}
	return u, out
}

// addBlock chunks b the way DistributeBlock does and gives every peer every
// chunk; Owners narrows who is asked.
func (u *fakeUpstream) addBlock(t testing.TB, b *chain.Block) {
	t.Helper()
	peers := u.parts
	u.headers[b.Hash()] = b.Header
	u.txs[b.Hash()] = b.Txs
	tree, err := chain.TxMerkleTree(b.Txs)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := core.SplitCounts(len(b.Txs), peers)
	if err != nil {
		t.Fatal(err)
	}
	txStart := 0
	for idx := 0; idx < peers; idx++ {
		group := b.Txs[txStart : txStart+counts[idx]]
		proofs := make([]chain.Proof, len(group))
		for i := range group {
			proofs[i], err = tree.Prove(txStart + i)
			if err != nil {
				t.Fatal(err)
			}
		}
		sub := chain.Block{Txs: group}
		resp := netx.ChunkResp{
			Index: idx, Parts: peers, TxStart: txStart,
			Data: sub.EncodeBody(), Proofs: proofs,
		}
		for p := 0; p < peers; p++ {
			u.chunks[p][netx.ChunkRef{Block: b.Hash(), Index: idx}] = resp
		}
		txStart += counts[idx]
	}
}

func (u *fakeUpstream) Parts(block blockcrypto.Hash) (int, error) { return u.parts, nil }

func (u *fakeUpstream) Peers() []int {
	peers := make([]int, u.parts)
	for i := range peers {
		peers[i] = i
	}
	return peers
}

func (u *fakeUpstream) Refresh() bool {
	u.refreshCalls.Add(1)
	return false
}

func (u *fakeUpstream) Owners(block blockcrypto.Hash, idx int) ([]int, error) {
	owners := make([]int, u.replication)
	for i := range owners {
		owners[i] = (idx + i) % u.parts
	}
	return owners, nil
}

func (u *fakeUpstream) Header(block blockcrypto.Hash) (chain.Header, error) {
	u.headerCalls.Add(1)
	h, ok := u.headers[block]
	if !ok {
		return chain.Header{}, ErrUnknownBlock
	}
	return h, nil
}

func (u *fakeUpstream) FetchBatch(peer int, refs []netx.ChunkRef) (*netx.ChunkBatchResp, error) {
	if u.entered != nil {
		u.entered <- struct{}{}
	}
	if u.gate != nil {
		<-u.gate
	}
	u.batchCalls.Add(1)
	u.batchRefs.Add(int64(len(refs)))
	if u.dead[peer] {
		return nil, errors.New("fake upstream: peer is down")
	}
	resp := &netx.ChunkBatchResp{Found: make([]bool, len(refs)), Chunks: make([]netx.ChunkResp, len(refs))}
	u.mu.Lock()
	defer u.mu.Unlock()
	for i, ref := range refs {
		proofs := ref.Proofs
		ref.Proofs = false // the maps are keyed by the chunk's name alone
		if u.lost[peer][ref] {
			continue
		}
		if c, ok := u.chunks[peer][ref]; ok {
			if proofs {
				u.provenRefs.Add(1)
			} else {
				c.Proofs = nil // a bare ref is answered bare, as a server does
			}
			resp.Found[i] = true
			resp.Chunks[i] = c
		}
	}
	return resp, nil
}

func (u *fakeUpstream) TxProof(peer int, block, txID blockcrypto.Hash) (*netx.TxProofResp, error) {
	u.proofCalls.Add(1)
	txs, ok := u.txs[block]
	if !ok {
		return &netx.TxProofResp{}, nil
	}
	// This fake peer holds chunk indexes where idx%parts maps to it; for
	// proof simplicity every peer can prove every transaction.
	tree, err := chain.TxMerkleTree(txs)
	if err != nil {
		return nil, err
	}
	for i, tx := range txs {
		if tx.ID() == txID {
			p, err := tree.Prove(i)
			if err != nil {
				return nil, err
			}
			return &netx.TxProofResp{Found: true, Tx: tx, Proof: p}, nil
		}
	}
	return &netx.TxProofResp{}, nil
}

func (u *fakeUpstream) loseChunk(peer int, ref netx.ChunkRef) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.lost[peer] == nil {
		u.lost[peer] = make(map[netx.ChunkRef]bool)
	}
	u.lost[peer][ref] = true
}

func newTestGateway(t testing.TB, u Upstream, reg *metrics.Registry, cacheBytes int64) *Gateway {
	t.Helper()
	g, err := New(Config{
		Upstream:        u,
		BlockCacheBytes: cacheBytes,
		ChunkCacheBytes: cacheBytes,
		Registry:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// readBlock reads block h through g and decodes the encoding it serves.
func readBlock(g *Gateway, h blockcrypto.Hash) (*chain.Block, error) {
	enc, err := g.GetBlock(h)
	if err != nil {
		return nil, err
	}
	return chain.DecodeBlock(enc)
}

// TestConcurrentGetsCoalesceToOneFetch is the coalescing acceptance test:
// eight concurrent GetBlock calls for one cold block must cost exactly one
// upstream retrieval (one header resolution, one assembly), with the other
// seven riding the same flight.
func TestConcurrentGetsCoalesceToOneFetch(t *testing.T) {
	u, blocks := newFakeUpstream(t, 4, 1, 16)
	u.gate = make(chan struct{})
	reg := metrics.NewRegistry()
	g := newTestGateway(t, u, reg, 1<<20)
	b := blocks[0]

	const N = 8
	var started, done sync.WaitGroup
	results := make([]*chain.Block, N)
	errs := make([]error, N)
	for i := 0; i < N; i++ {
		started.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			started.Done()
			results[i], errs[i] = readBlock(g, b.Hash())
		}(i)
	}
	started.Wait()
	// Give every goroutine time to miss the cache and join the flight
	// before the upstream is allowed to answer.
	time.Sleep(200 * time.Millisecond)
	close(u.gate)
	done.Wait()

	for i := 0; i < N; i++ {
		if errs[i] != nil {
			t.Fatalf("get %d: %v", i, errs[i])
		}
		if results[i].Hash() != b.Hash() {
			t.Fatalf("get %d returned the wrong block", i)
		}
	}
	if v := u.headerCalls.Load(); v != 1 {
		t.Fatalf("upstream header resolutions = %d, want exactly 1", v)
	}
	snap := reg.Snapshot()
	if v := snap["ici.gateway.fetches"]; v != 1 {
		t.Fatalf("ici.gateway.fetches = %v, want exactly 1", v)
	}
	if v := snap["ici.gateway.coalesced"]; v != N-1 {
		t.Fatalf("ici.gateway.coalesced = %v, want %d", v, N-1)
	}
	// One retrieval over 4 single-owner chunk groups: at most one batch RPC
	// per contacted peer.
	if v := u.batchCalls.Load(); v > 4 {
		t.Fatalf("upstream batch RPCs = %d for one retrieval of 4 chunks", v)
	}
}

// TestCacheHitServesWithZeroUpstream: once a block is hot, serving it again
// must touch the upstream zero times — and with the caches off, every read
// goes upstream.
func TestCacheHitServesWithZeroUpstream(t *testing.T) {
	u, blocks := newFakeUpstream(t, 3, 1, 12)
	reg := metrics.NewRegistry()
	g := newTestGateway(t, u, reg, 1<<20)
	b := blocks[0]

	if _, err := g.GetBlock(b.Hash()); err != nil {
		t.Fatal(err)
	}
	h0, b0 := u.headerCalls.Load(), u.batchCalls.Load()

	got, err := readBlock(g, b.Hash())
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash() != b.Hash() {
		t.Fatal("wrong block from cache")
	}
	if u.headerCalls.Load() != h0 || u.batchCalls.Load() != b0 {
		t.Fatalf("cache hit touched upstream: headers %d->%d batches %d->%d",
			h0, u.headerCalls.Load(), b0, u.batchCalls.Load())
	}
	snap := reg.Snapshot()
	if v := snap["ici.gateway.block_cache.hits"]; v < 1 {
		t.Fatalf("block cache hits = %v, want >= 1", v)
	}

	// The other side: with a cache budget of 0 nothing is ever hot, so
	// every read of the same block costs upstream RPCs again.
	reg = metrics.NewRegistry()
	g = newTestGateway(t, u, reg, 0)
	last := u.batchCalls.Load()
	for read := 1; read <= 3; read++ {
		got, err := readBlock(g, b.Hash())
		if err != nil {
			t.Fatal(err)
		}
		if got.Hash() != b.Hash() {
			t.Fatal("wrong block with caches off")
		}
		now := u.batchCalls.Load()
		if now <= last {
			t.Fatalf("caches off: read %d cost no upstream RPC (batches %d->%d)", read, last, now)
		}
		last = now
	}
	snap = reg.Snapshot()
	if hits := snap["ici.gateway.block_cache.hits"] + snap["ici.gateway.chunk_cache.hits"]; hits != 0 {
		t.Fatalf("caches off recorded %v hits", hits)
	}
}

// TestFetchFallsBackToSecondaryOwner: a primary owner missing its chunk
// must not fail the read while another owner still holds it.
func TestFetchFallsBackToSecondaryOwner(t *testing.T) {
	u, blocks := newFakeUpstream(t, 4, 1, 16)
	b := blocks[0]
	// Chunk 2's primary owner (peer 2 under idx%n placement) lost it.
	u.loseChunk(2, netx.ChunkRef{Block: b.Hash(), Index: 2})
	g := newTestGateway(t, u, nil, 1<<20)
	got, err := readBlock(g, b.Hash())
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash() != b.Hash() {
		t.Fatal("wrong block after fallback")
	}
}

// TestFetchFailsWhenChunkLostEverywhere: when no owner holds a chunk the
// gateway reports an incomplete read instead of fabricating a block.
func TestFetchFailsWhenChunkLostEverywhere(t *testing.T) {
	u, blocks := newFakeUpstream(t, 3, 1, 9)
	b := blocks[0]
	ref := netx.ChunkRef{Block: b.Hash(), Index: 1}
	for p := 0; p < 3; p++ {
		u.loseChunk(p, ref)
	}
	g := newTestGateway(t, u, nil, 1<<20)
	if _, err := g.GetBlock(b.Hash()); err == nil {
		t.Fatal("incomplete block served")
	}
}

// TestChunkCacheServesPartialReassembly: with the block cache disabled but
// chunks hot, a re-read only refetches nothing and reassembles from the
// chunk cache.
func TestChunkCacheServesPartialReassembly(t *testing.T) {
	u, blocks := newFakeUpstream(t, 3, 1, 12)
	b := blocks[0]
	g, err := New(Config{Upstream: u, BlockCacheBytes: 0, ChunkCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.GetBlock(b.Hash()); err != nil {
		t.Fatal(err)
	}
	before := u.batchCalls.Load()
	if _, err := g.GetBlock(b.Hash()); err != nil {
		t.Fatal(err)
	}
	if u.batchCalls.Load() != before {
		t.Fatal("hot chunks were refetched")
	}
}

func TestGetTxProofThroughGateway(t *testing.T) {
	u, blocks := newFakeUpstream(t, 3, 2, 12)
	reg := metrics.NewRegistry()
	g := newTestGateway(t, u, reg, 1<<20)
	b := blocks[1]
	tx := b.Txs[3]

	p, err := g.GetTxProof(b.Hash(), tx.ID())
	if err != nil {
		t.Fatal(err)
	}
	if p.Tx.ID() != tx.ID() || p.Header.Hash() != b.Hash() {
		t.Fatal("wrong proof returned")
	}
	if err := p.Verify(); err != nil {
		t.Fatalf("proof does not verify: %v", err)
	}

	// Unknown tx: definitive not-found.
	if _, err := g.GetTxProof(b.Hash(), blockcrypto.Sum256([]byte("ghost"))); err == nil {
		t.Fatal("proof produced for a transaction that does not exist")
	}

	// With the block cached, proofs are derived locally with no new
	// upstream proof queries.
	if _, err := g.GetBlock(b.Hash()); err != nil {
		t.Fatal(err)
	}
	before := u.proofCalls.Load()
	p2, err := g.GetTxProof(b.Hash(), tx.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.Verify(); err != nil {
		t.Fatal(err)
	}
	if u.proofCalls.Load() != before {
		t.Fatal("cached block did not serve the proof locally")
	}
	if v := reg.Snapshot()["ici.gateway.txproofs_local"]; v < 1 {
		t.Fatalf("ici.gateway.txproofs_local = %v, want >= 1", v)
	}
}

func TestGetBlockUnknownHash(t *testing.T) {
	u, _ := newFakeUpstream(t, 3, 1, 6)
	g := newTestGateway(t, u, nil, 1<<20)
	if _, err := g.GetBlock(blockcrypto.Sum256([]byte("nope"))); err == nil {
		t.Fatal("unknown block served")
	}
}

// setChunk replaces the copy of a chunk one peer serves.
func (u *fakeUpstream) setChunk(peer int, ref netx.ChunkRef, c netx.ChunkResp) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.chunks[peer][ref] = c
}

// TestBadChunkIsNotCached: a chunk that decodes but is wrong — what a faulty
// member serves — fails the read it was fetched for and nothing else. It
// must not enter the chunk cache, or every later read of the block would be
// reassembled from it after upstream is sound again.
func TestBadChunkIsNotCached(t *testing.T) {
	u, blocks := newFakeUpstream(t, 3, 1, 12)
	u.replication = 1 // no second owner to fall back to
	b := blocks[0]
	g, err := New(Config{Upstream: u, BlockCacheBytes: 0, ChunkCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ref := netx.ChunkRef{Block: b.Hash(), Index: 1}
	sound := u.chunks[1][ref] // chunk 1's only owner is peer 1
	u.setChunk(1, ref, flipAmount(sound))

	if _, err := g.GetBlock(b.Hash()); !errors.Is(err, chain.ErrBlockBadRoot) {
		t.Fatalf("read through a corrupting member: got %v, want %v", err, chain.ErrBlockBadRoot)
	}
	if n := g.chunks.Len(); n != 0 {
		t.Fatalf("%d chunks cached from a block that did not verify", n)
	}

	u.setChunk(1, ref, sound)
	got, err := readBlock(g, b.Hash())
	if err != nil {
		t.Fatalf("read after upstream healed: %v", err)
	}
	if got.Hash() != b.Hash() || got.VerifyShape() != nil {
		t.Fatal("wrong block after upstream healed")
	}
	var cached int64
	for idx := 0; idx < u.parts; idx++ {
		v, ok := g.chunks.Get(chunkKey(b.Hash(), idx))
		if !ok {
			t.Fatalf("chunk %d of a verified block is not cached", idx)
		}
		c := v.(*netx.ChunkResp)
		want := u.chunks[idx][netx.ChunkRef{Block: b.Hash(), Index: idx}]
		if !bytes.Equal(c.Data, want.Data) || c.Proofs != nil {
			t.Fatalf("cached chunk %d: sound payload %v, %d proofs kept", idx, bytes.Equal(c.Data, want.Data), len(c.Proofs))
		}
		cached += int64(len(c.Data))
	}
	if g.chunks.Bytes() != cached {
		t.Fatalf("chunk cache accounts %d bytes for %d bytes of payload", g.chunks.Bytes(), cached)
	}
	before := u.batchCalls.Load()
	if _, err := g.GetBlock(b.Hash()); err != nil || u.batchCalls.Load() != before {
		t.Fatalf("re-read from verified chunks: err %v, upstream batches %d->%d", err, before, u.batchCalls.Load())
	}
}

// flipAmount returns c with one bit of its first transaction's amount
// flipped: a payload that decodes but no longer proves into the root.
func flipAmount(c netx.ChunkResp) netx.ChunkResp {
	c.Data = append([]byte(nil), c.Data...)
	c.Data[4+2*blockcrypto.HashSize+7] ^= 1
	return c
}

// TestGatewaySurvivesOneCorruptingMember: replication 2, and one peer
// serves a flipped payload for every chunk it owns. Every chunk has a sound
// copy on its other owner, so every read must succeed — at the price of the
// plan's batches, one re-read with proofs per member of that plan (the first
// pass reads bare, and a root that does not match blames no copy), then one
// more plan over the chunks the corrupting peer served, without it — and the
// chunk cache must hold the sound payloads, never the flipped ones.
func TestGatewaySurvivesOneCorruptingMember(t *testing.T) {
	const peers, corrupting = 4, 1
	u, blocks := newFakeUpstream(t, peers, 3, 16)
	u.replication = 2
	for ref, c := range u.chunks[corrupting] {
		u.setChunk(corrupting, ref, flipAmount(c))
	}
	reg := metrics.NewRegistry()
	g, err := New(Config{Upstream: u, BlockCacheBytes: 0, ChunkCacheBytes: 1 << 20, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	served := 0
	for _, b := range blocks {
		plan := planFor(t, u, b.Hash(), upTo(peers))
		want := len(plan)
		for _, pb := range plan {
			if pb.peer == corrupting {
				want += len(plan) + len(planFor(t, u, b.Hash(), pb.idxs, corrupting))
				served += len(pb.idxs)
			}
		}
		before := u.batchCalls.Load()
		got, err := readBlock(g, b.Hash())
		if err != nil {
			t.Fatalf("block %d: one corrupting member failed a read every chunk of which has an honest replica: %v", b.Header.Height, err)
		}
		if got.Hash() != b.Hash() || got.VerifyShape() != nil {
			t.Fatalf("block %d reassembled wrong", b.Header.Height)
		}
		if calls := u.batchCalls.Load() - before; calls != int64(want) {
			t.Fatalf("block %d cost %d upstream batches, want %d", b.Header.Height, calls, want)
		}
		for idx := 0; idx < peers; idx++ {
			v, ok := g.chunks.Get(chunkKey(b.Hash(), idx))
			if !ok {
				t.Fatalf("chunk %d of a verified block is not cached", idx)
			}
			sound := u.chunks[(corrupting+1)%peers][netx.ChunkRef{Block: b.Hash(), Index: idx}]
			if c := v.(*netx.ChunkResp); !bytes.Equal(c.Data, sound.Data) || c.Proofs != nil {
				t.Fatalf("cached chunk %d is not the sound payload without proofs", idx)
			}
		}
	}
	if served == 0 {
		t.Fatal("the corrupting member was in no plan: nothing was tested")
	}
	// A sound cluster is read by its plan and nothing more: one batch per
	// planned member, every chunk asked for once, no proof looked at.
	sound, soundBlocks := newFakeUpstream(t, peers, 1, 16)
	sound.replication = 2
	g2 := newTestGateway(t, sound, nil, 0)
	if _, err := g2.GetBlock(soundBlocks[0].Hash()); err != nil {
		t.Fatal(err)
	}
	plan := planFor(t, sound, soundBlocks[0].Hash(), upTo(peers))
	if calls, refs := sound.batchCalls.Load(), sound.batchRefs.Load(); calls != int64(len(plan)) || refs != peers {
		t.Fatalf("sound read cost %d batches of %d refs, want %d of %d", calls, refs, len(plan), peers)
	}
	if proven := sound.provenRefs.Load(); proven != 0 {
		t.Fatalf("a sound read asked for the proofs of %d chunks", proven)
	}
}

// cachedEntry reads b through g and returns its block-cache entry.
func cachedEntry(t testing.TB, g *Gateway, b *chain.Block) *cachedBlock {
	t.Helper()
	if _, err := g.GetBlock(b.Hash()); err != nil {
		t.Fatal(err)
	}
	v, ok := g.blocks.Get(blockKey(b.Hash()))
	if !ok {
		t.Fatal("block not cached after a read")
	}
	return v.(*cachedBlock)
}

// TestLocalProofIsTheTreesProof: a proof served from a cached block is cut
// from the tree the block's root check built. For every leaf of blocks with
// one transaction, two, seven (odd levels: the duplicated trailing node) and
// the benchmark's 96, it must be the proof a fresh tree gives and verify
// against the header; an id the block does not hold is a definitive
// not-found; and neither touches upstream.
func TestLocalProofIsTheTreesProof(t *testing.T) {
	for _, n := range []int{1, 2, 7, 96} {
		u, blocks := newFakeUpstream(t, 3, 1, n)
		b := blocks[0]
		g := newTestGateway(t, u, nil, 1<<20)
		entry := cachedEntry(t, g, b)
		tree, err := chain.TxMerkleTree(b.Txs)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := g.blocks.Bytes(), int64(b.BodySize()+chain.HeaderSize+tree.Size()); got != want || entry.size() != want {
			t.Errorf("n=%d: block cache accounts %d bytes, want the encoding (body + header) + tree = %d", n, got, want)
		}
		headers, batches := u.headerCalls.Load(), u.batchCalls.Load()
		for i, tx := range b.Txs {
			p, err := g.GetTxProof(b.Hash(), tx.ID())
			if err != nil {
				t.Fatalf("n=%d leaf %d: %v", n, i, err)
			}
			want, err := tree.Prove(i)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(p.Proof, want) || p.Header != b.Header || !reflect.DeepEqual(p.Tx, tx) {
				t.Fatalf("n=%d leaf %d: served proof is not the tree's", n, i)
			}
			if err := p.Verify(); err != nil {
				t.Fatalf("n=%d leaf %d: %v", n, i, err)
			}
		}
		if _, err := g.GetTxProof(b.Hash(), blockcrypto.Sum256([]byte("ghost"))); !errors.Is(err, core.ErrTxNotFound) {
			t.Errorf("n=%d: unknown id on a cached block: got %v, want %v", n, err, core.ErrTxNotFound)
		}
		if u.headerCalls.Load() != headers || u.batchCalls.Load() != batches || u.proofCalls.Load() != 0 {
			t.Errorf("n=%d: proof reads of a cached block went upstream: headers %d->%d, batches %d->%d, proof queries %d",
				n, headers, u.headerCalls.Load(), batches, u.batchCalls.Load(), u.proofCalls.Load())
		}
	}
}

// TestLocalProofConcurrentReaders: a block-cache entry is read by every
// connection handler at once. Proof and block readers start on a cold
// gateway, so some proofs come from upstream and the rest from the entry
// the one coalesced fetch caches meanwhile; all must verify. Run under
// -race (make race).
func TestLocalProofConcurrentReaders(t *testing.T) {
	u, blocks := newFakeUpstream(t, 4, 1, 96)
	b := blocks[0]
	g := newTestGateway(t, u, nil, 1<<20)
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if r%2 == 0 { // odd readers ask for proofs while the block is still cold
				if got, err := readBlock(g, b.Hash()); err != nil || got.Hash() != b.Hash() {
					t.Errorf("reader %d: block: %v", r, err)
					return
				}
			}
			for i := r; i < len(b.Txs); i += 3 {
				p, err := g.GetTxProof(b.Hash(), b.Txs[i].ID())
				if err != nil || p.Verify() != nil || p.Proof.LeafIndex != i {
					t.Errorf("reader %d leaf %d: %v", r, i, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

// TestLocalProofAllocatesOnlyItsSteps: cutting a proof from a cached block
// allocates the proof's steps and the one transaction it decodes from the
// encoding (the transaction and its variable-length bytes) and nothing else
// — no tree is rebuilt, no other transaction is decoded.
func TestLocalProofAllocatesOnlyItsSteps(t *testing.T) {
	u, blocks := newFakeUpstream(t, 3, 1, 96)
	entry := cachedEntry(t, newTestGateway(t, u, nil, 1<<20), blocks[0])
	id := blocks[0].Txs[41].ID()
	allocs := testing.AllocsPerRun(50, func() {
		if _, ok := entry.proof(id); !ok {
			t.Fatal("no proof for a transaction of the block")
		}
	})
	if allocs > 3 {
		t.Errorf("%.0f allocations for a proof from a cached block, want 3 (its steps, its transaction and that one's bytes)", allocs)
	}
}

func BenchmarkGatewayLocalProof(b *testing.B) {
	u, blocks := newFakeUpstream(b, 3, 1, 96)
	g := newTestGateway(b, u, nil, 1<<20)
	blk := blocks[0]
	cachedEntry(b, g, blk)
	ids := make([]blockcrypto.Hash, len(blk.Txs))
	for i, tx := range blk.Txs {
		ids[i] = tx.ID()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.GetTxProof(blk.Hash(), ids[i%len(ids)]); err != nil {
			b.Fatal(err)
		}
	}
}
