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
//   - cross-request batching: netx.Gather reads a cold block from the fewest
//     members that cover its chunks, one batch each, and batches of concurrent
//     misses to the same peer share wire round trips instead of paying one each.
//
// All observable behavior lands in a metrics.Registry under ici.gateway.*.
package gateway

import (
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
// ICIStrategy storage cluster. Safe for concurrent use. A block is kept and
// served as its encoding, shared between callers: treat every encoding it
// returns as read-only.
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

// cachedBlock is a verified block as it is served, its encoding
// (chain.Block.Encode), with the Merkle tree its root check built
// (netx.Gather). The tree's root is the header's, so a proof cut from it
// needs no hashing and no second check. Nothing of the block is decoded.
type cachedBlock struct {
	enc  []byte
	tree *chain.MerkleTree
}

func (c *cachedBlock) size() int64 { return int64(len(c.enc) + c.tree.Size()) }

// GetBlock returns the encoding (chain.Block.Encode) of the verified block
// with the given hash, from cache when hot, otherwise by gathering its chunks
// from the cluster. Concurrent calls for the same cold block coalesce into
// one upstream retrieval. The encoding is shared: the caller must not write
// to it.
func (g *Gateway) GetBlock(h blockcrypto.Hash) ([]byte, error) {
	key := blockKey(h)
	if v, ok := g.blocks.Get(key); ok {
		return v.(*cachedBlock).enc, nil
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
	return v.(*cachedBlock).enc, nil
}

// fetchBlock reads block h from the cluster: the chunks the chunk cache
// holds are taken from it, and the rest are gathered through the batcher,
// reassembled and verified against the header's Merkle root by netx.Gather.
// Only then do the fetched chunks enter the chunk cache: a copy that is
// wrong never serves a later read. A stale membership surfaces there as an
// error, for GetBlock to refresh on.
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
	holders := make([][]int, parts) // for a missing chunk, the members that may hold it
	var missing []int
	for idx := 0; idx < parts; idx++ {
		if v, ok := g.chunks.Get(chunkKey(h, idx)); ok {
			got[idx] = v.(*netx.ChunkResp)
			continue
		}
		owners, err := g.up.Owners(h, idx)
		if err != nil {
			return nil, fmt.Errorf("%w: owners of chunk %d of %s: %v", ErrIncomplete, idx, h.Short(), err)
		}
		missing = append(missing, idx)
		holders[idx] = slices.Clone(owners)
	}
	enc, tree, err := netx.Gather(hdr, got, holders, g.batch.Fetch)
	if err != nil {
		return nil, err
	}
	for _, idx := range missing {
		payload := *got[idx] // a copy: the batcher hands one response to every reader that wanted it
		payload.Proofs = nil
		g.chunks.Put(chunkKey(h, idx), &payload, int64(len(payload.Data)))
	}
	return &cachedBlock{enc: enc, tree: tree}, nil
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
	v, err, shared := g.flights.Do(proofKey(block, txID), func() (any, error) {
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
// a leaf of the tree, so finding it and proving it hash nothing, and the one
// transaction is decoded from the encoding.
func (c *cachedBlock) proof(txID blockcrypto.Hash) (core.TxProof, bool) {
	at := c.tree.LeafIndex(txID)
	if at < 0 {
		return core.TxProof{}, false
	}
	hdr, err := chain.DecodeHeader(c.enc)
	if err != nil {
		return core.TxProof{}, false
	}
	tx, err := chain.TxAt(c.enc[chain.HeaderSize:], at)
	if err != nil {
		return core.TxProof{}, false
	}
	proof, err := c.tree.Prove(at)
	if err != nil {
		return core.TxProof{}, false
	}
	return core.TxProof{Tx: tx, Header: hdr, Proof: proof}, true
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
