// Package gateway is the client-serving read front end of an ICIStrategy
// storage cluster: a stateless-by-contract cache layer that turns the
// cluster's chunked, collaborative storage into a low-latency block and
// light-client API. Three mechanisms carry the load so the cluster itself
// stays cheap to read from:
//
//   - byte-bounded LRU caches for hot chunks and reassembled blocks, with
//     size-based admission control so one huge block cannot flush the
//     working set;
//   - singleflight coalescing, so N concurrent requests for the same cold
//     block cost exactly one upstream retrieval;
//   - cross-request batching of chunk fetches to the same peer, so
//     concurrent misses share wire round trips instead of paying one each.
//
// All observable behavior lands in a metrics.Registry under ici.gateway.*.
package gateway

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/core"
	"icistrategy/internal/metrics"
	"icistrategy/internal/netx"
)

// Config parameterizes a Gateway.
type Config struct {
	// Upstream is the storage cluster to read through (required).
	Upstream Upstream
	// BlockCacheBytes bounds the reassembled-block cache; <= 0 disables it.
	BlockCacheBytes int64
	// ChunkCacheBytes bounds the hot-chunk cache; <= 0 disables it.
	ChunkCacheBytes int64
	// Registry receives ici.gateway.* metrics; nil discards them.
	Registry *metrics.Registry
}

// Gateway serves verified block and transaction-proof reads over an
// ICIStrategy storage cluster. Safe for concurrent use. Cached blocks are
// shared between callers: treat every *chain.Block it returns as read-only.
//
// Both caches hold only what has been verified. A block-cache entry is a
// cachedBlock; a chunk-cache entry is a *netx.ChunkResp without its proofs,
// put there once the block it was fetched for reassembled to the header's
// root.
type Gateway struct {
	up      Upstream
	blocks  *lruCache
	chunks  *lruCache
	flights flightGroup
	batch   *batcher

	coalesced   *metrics.Counter // ici.gateway.coalesced
	fetches     *metrics.Counter // ici.gateway.fetches
	proofs      *metrics.Counter // ici.gateway.txproofs
	proofsLocal *metrics.Counter // ici.gateway.txproofs_local
	refreshes   *metrics.Counter // ici.gateway.map_refreshes

	mu       sync.Mutex
	rotation int // spreads proof queries across peers
}

// New builds a gateway over the given upstream.
func New(cfg Config) (*Gateway, error) {
	if cfg.Upstream == nil {
		return nil, fmt.Errorf("gateway: nil upstream")
	}
	reg := cfg.Registry
	g := &Gateway{
		up: cfg.Upstream,
		blocks: newLRUCache(cfg.BlockCacheBytes, cacheCounters{
			hits:      reg.Counter("ici.gateway.block_cache.hits"),
			misses:    reg.Counter("ici.gateway.block_cache.misses"),
			evictions: reg.Counter("ici.gateway.block_cache.evictions"),
			rejected:  reg.Counter("ici.gateway.block_cache.rejected"),
		}),
		chunks: newLRUCache(cfg.ChunkCacheBytes, cacheCounters{
			hits:      reg.Counter("ici.gateway.chunk_cache.hits"),
			misses:    reg.Counter("ici.gateway.chunk_cache.misses"),
			evictions: reg.Counter("ici.gateway.chunk_cache.evictions"),
			rejected:  reg.Counter("ici.gateway.chunk_cache.rejected"),
		}),
		coalesced:   reg.Counter("ici.gateway.coalesced"),
		fetches:     reg.Counter("ici.gateway.fetches"),
		proofs:      reg.Counter("ici.gateway.txproofs"),
		proofsLocal: reg.Counter("ici.gateway.txproofs_local"),
		refreshes:   reg.Counter("ici.gateway.map_refreshes"),
	}
	g.batch = newBatcher(cfg.Upstream,
		reg.Counter("ici.gateway.batch.rpcs"),
		reg.Counter("ici.gateway.batch.refs"))
	return g, nil
}

// cachedBlock is a verified block with the Merkle tree its root check built
// (chain.Block.VerifiedTree). The tree's root is the header's, so a proof cut
// from it needs no hashing and no second check.
type cachedBlock struct {
	block *chain.Block
	tree  *chain.MerkleTree
}

func (c *cachedBlock) size() int64 { return int64(c.block.BodySize() + c.tree.Size()) }

func blockKey(h blockcrypto.Hash) string { return "b:" + string(h[:]) }
func chunkKey(h blockcrypto.Hash, idx int) string {
	return fmt.Sprintf("c:%s:%d", h[:], idx)
}

// GetBlock returns the full verified block with the given hash, from cache
// when hot, otherwise by gathering its chunks from the cluster. Concurrent
// calls for the same cold block coalesce into one upstream retrieval.
func (g *Gateway) GetBlock(h blockcrypto.Hash) (*chain.Block, error) {
	key := blockKey(h)
	if v, ok := g.blocks.Get(key); ok {
		return v.(*cachedBlock).block, nil
	}
	v, err, shared := g.flights.Do(key, func() (any, error) {
		// Re-check under the flight: a racing caller may have populated the
		// cache between our miss and winning the flight.
		if v, ok := g.blocks.Get(key); ok {
			return v, nil
		}
		b, err := g.fetchBlock(h)
		if err != nil && g.up.Refresh() {
			// The miss may be stale membership: a block written (or moved)
			// under an epoch this gateway had not learned yet resolves to the
			// wrong parts count or owners. With a fresh cluster map adopted,
			// one retry reads it where it actually lives.
			g.refreshes.Inc()
			b, err = g.fetchBlock(h)
		}
		if err != nil {
			return nil, err
		}
		g.blocks.Put(key, b, b.size())
		return b, nil
	})
	if shared {
		g.coalesced.Inc()
	}
	if err != nil {
		return nil, err
	}
	return v.(*cachedBlock).block, nil
}

// fetchBlock gathers every chunk of h — cached chunks locally, the rest
// batched per owning peer — then reassembles and verifies against the
// header's Merkle root. Only then do the fetched chunks enter the chunk
// cache: one that decodes but is wrong never serves a later read, and costs
// this one a second fetch of that chunk from its next owner (refetchUnproven).
func (g *Gateway) fetchBlock(h blockcrypto.Hash) (*cachedBlock, error) {
	hdr, err := g.up.Header(h)
	if err != nil {
		return nil, err
	}
	g.fetches.Inc()
	parts, err := g.up.Parts(h)
	if err != nil {
		return nil, err
	}
	got := make([]*netx.ChunkResp, parts)
	next := make([]int, parts) // for a fetched chunk, the owner rank after the peer that served it
	var missing []int
	for idx := 0; idx < parts; idx++ {
		if v, ok := g.chunks.Get(chunkKey(h, idx)); ok {
			got[idx] = v.(*netx.ChunkResp)
			continue
		}
		missing = append(missing, idx)
	}

	if len(missing) > 0 {
		var wg sync.WaitGroup
		for _, idx := range missing {
			wg.Add(1)
			go func(idx int) {
				defer wg.Done()
				got[idx], next[idx] = g.fetchChunk(h, idx, 0)
			}(idx)
		}
		wg.Wait()
	}

	have := 0
	for _, c := range got {
		if c != nil {
			have++
		}
	}
	if have < parts {
		return nil, fmt.Errorf("%w: have %d of %d for %s", ErrIncomplete, have, parts, h.Short())
	}

	// Reassemble and verify against the trusted header. A chunk cut for
	// another part count than the map says is refused there, which is how a
	// stale membership surfaces as an error for GetBlock to refresh on. The
	// root of the whole body is what is checked; the per-transaction proofs
	// a chunk carries are read only when it breaks, to find the bad copies.
	b, tree, err := reassemble(hdr, got)
	if errors.Is(err, chain.ErrBlockBadRoot) && g.refetchUnproven(h, hdr.MerkleRoot, missing, got, next) {
		b, tree, err = reassemble(hdr, got)
	}
	if err != nil {
		return nil, err
	}
	for _, idx := range missing {
		payload := *got[idx] // a copy: the batcher hands one response to every reader that wanted it
		payload.Proofs = nil
		g.chunks.Put(chunkKey(h, idx), &payload, int64(len(payload.Data)))
	}
	return &cachedBlock{block: b, tree: tree}, nil
}

// reassemble decodes the payload of every chunk and rebuilds the block of
// hdr from them (core.Reassemble).
func reassemble(hdr chain.Header, chunks []*netx.ChunkResp) (*chain.Block, *chain.MerkleTree, error) {
	groups := make([]core.Group, len(chunks))
	for idx, c := range chunks {
		var err error
		if groups[idx], err = core.DecodeGroup(c.Index, c.Parts, c.TxStart, c.Data, nil); err != nil {
			return nil, nil, fmt.Errorf("gateway: chunk %d: %w", idx, err)
		}
	}
	b, tree, err := core.Reassemble(hdr, groups)
	if err != nil {
		return nil, nil, fmt.Errorf("gateway: reassembly: %w", err)
	}
	return b, tree, nil
}

// proves reports whether the copy c of a chunk, read with the proofs it
// carries, is what the block committed to at that position.
func proves(c *netx.ChunkResp, root blockcrypto.Hash) bool {
	group, err := core.DecodeGroup(c.Index, c.Parts, c.TxStart, c.Data, c.Proofs)
	return err == nil && group.Proves(root) == nil
}

// refetchUnproven is the fallback of a read whose body broke the root: among
// the chunks fetched for it (the cached ones were verified when they went
// in), each copy that does not prove into root is replaced by the first one
// that does from the owners ranked after the peer that served it, the bad
// chunks side by side so their fetches batch. It reports whether any chunk
// was replaced; one with no sound copy left keeps the bad one.
func (g *Gateway) refetchUnproven(h, root blockcrypto.Hash, fetched []int, got []*netx.ChunkResp, next []int) bool {
	replaced := make([]bool, len(got))
	var wg sync.WaitGroup
	for _, idx := range fetched {
		if proves(got[idx], root) {
			continue
		}
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			for {
				c, after := g.fetchChunk(h, idx, next[idx])
				if c == nil {
					return
				}
				next[idx] = after
				if proves(c, root) {
					got[idx], replaced[idx] = c, true
					return
				}
			}
		}(idx)
	}
	wg.Wait()
	return slices.Contains(replaced, true)
}

// fetchChunk tries the owners of (h, idx) ranked from on in placement order
// through the batcher, so concurrent misses against the same peer share
// round trips. It returns the chunk with the rank after the owner that
// produced it; nil means none of them did.
func (g *Gateway) fetchChunk(h blockcrypto.Hash, idx, from int) (*netx.ChunkResp, int) {
	owners, err := g.up.Owners(h, idx)
	if err != nil {
		return nil, 0
	}
	ref := netx.ChunkRef{Block: h, Index: idx}
	for rank := from; rank < len(owners); rank++ {
		chunk, err := g.batch.Fetch(owners[rank], ref)
		if err == nil && chunk != nil {
			return chunk, rank + 1
		}
	}
	return nil, 0
}

// GetTxProof answers a light-client inclusion query: the transaction, the
// header committing to it, and the Merkle proof connecting them. A cached
// block answers locally; otherwise the cluster's members are queried in
// rotation, coalescing concurrent queries for the same transaction.
func (g *Gateway) GetTxProof(block, txID blockcrypto.Hash) (core.TxProof, error) {
	g.proofs.Inc()
	if v, ok := g.blocks.Get(blockKey(block)); ok {
		if p, ok := v.(*cachedBlock).proof(txID); ok {
			g.proofsLocal.Inc()
			return p, nil
		}
		return core.TxProof{}, core.ErrTxNotFound
	}
	key := "p:" + string(block[:]) + string(txID[:])
	v, err, shared := g.flights.Do(key, func() (any, error) {
		p, err := g.fetchProof(block, txID)
		if err != nil && g.up.Refresh() {
			g.refreshes.Inc()
			p, err = g.fetchProof(block, txID)
		}
		return p, err
	})
	if shared {
		g.coalesced.Inc()
	}
	if err != nil {
		return core.TxProof{}, err
	}
	return v.(core.TxProof), nil
}

// proof cuts an inclusion proof from a cached block: the transaction's id is
// a leaf of the tree, so finding it and proving it hash nothing.
func (c *cachedBlock) proof(txID blockcrypto.Hash) (core.TxProof, bool) {
	at := c.tree.LeafIndex(txID)
	if at < 0 {
		return core.TxProof{}, false
	}
	proof, err := c.tree.Prove(at)
	if err != nil {
		return core.TxProof{}, false
	}
	return core.TxProof{Tx: c.block.Txs[at], Header: c.block.Header, Proof: proof}, true
}

// fetchProof queries peers in rotation until one produces a proof that
// verifies against the block's header.
func (g *Gateway) fetchProof(block, txID blockcrypto.Hash) (core.TxProof, error) {
	hdr, err := g.up.Header(block)
	if err != nil {
		return core.TxProof{}, err
	}
	peers := g.up.Peers()
	if len(peers) == 0 {
		return core.TxProof{}, core.ErrTxNotFound
	}
	g.mu.Lock()
	start := g.rotation
	g.rotation++
	g.mu.Unlock()
	for i := 0; i < len(peers); i++ {
		peer := peers[(start+i)%len(peers)]
		resp, err := g.up.TxProof(peer, block, txID)
		if err != nil || !resp.Found || resp.Tx == nil || resp.Tx.ID() != txID {
			continue
		}
		p := core.TxProof{Tx: resp.Tx, Header: hdr, Proof: resp.Proof}
		if p.Verify() == nil {
			return p, nil
		}
	}
	return core.TxProof{}, core.ErrTxNotFound
}
