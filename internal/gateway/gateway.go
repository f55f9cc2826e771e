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
//   - a planned gather: a cold block is read from the fewest members that
//     cover its chunks, one batch each, and batches of concurrent misses to
//     the same peer share wire round trips instead of paying one each.
//
// All observable behavior lands in a metrics.Registry under ici.gateway.*.
package gateway

import (
	"fmt"
	"slices"
	"strconv"
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
	return "c:" + string(h[:]) + ":" + strconv.Itoa(idx)
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

// fetchBlock gathers every chunk of h — cached chunks locally, the rest by
// one planned gather (planGather) — then reassembles and verifies against
// the header's Merkle root. Only then do the fetched chunks enter the chunk
// cache: a copy that is wrong never serves a later read.
//
// First attempt and fallback are one loop. A chunk whose member failed or
// withheld it, or served a copy that does not decode or does not prove, is
// wanted again, and what is wanted is planned again over the holders not
// asked yet. The loop ends when the block verifies or some wanted chunk has
// no holder left.
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
	holders := make([][]int, parts) // for a missing chunk, the members that may hold it and were not asked yet
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

	var b *chain.Block
	var tree *chain.MerkleTree
	var broken error  // why the last reassembly failed; nil before the first
	wanted := missing // read, never written through: fetch returns a slice of its own
	for {
		asked := wanted // the copies this pass fetches: nobody has looked at them yet
		for len(wanted) > 0 {
			plan, ok := planGather(h, parts, wanted, holders)
			if !ok {
				if broken != nil {
					return nil, broken // no sound copy left: the bad one stays
				}
				return nil, fmt.Errorf("%w: have %d of %d for %s", ErrIncomplete, parts-len(wanted), parts, h.Short())
			}
			wanted = g.fetch(h, plan, holders, got)
		}
		// Reassemble and verify against the trusted header. A chunk cut for
		// another part count than the map says is refused there, which is how a
		// stale membership surfaces as an error for GetBlock to refresh on. The
		// root of the whole body is what is checked; the per-transaction proofs
		// a chunk carries are read only when it breaks, to find the bad copies.
		if b, tree, broken = reassemble(hdr, got); broken == nil {
			break
		}
		for _, idx := range asked {
			if !sound(got[idx], hdr, parts, idx) {
				wanted = append(wanted, idx)
			}
		}
		if len(wanted) == 0 {
			return nil, broken
		}
	}
	for _, idx := range missing {
		payload := *got[idx] // a copy: the batcher hands one response to every reader that wanted it
		payload.Proofs = nil
		g.chunks.Put(chunkKey(h, idx), &payload, int64(len(payload.Data)))
	}
	return &cachedBlock{block: b, tree: tree}, nil
}

// fetch asks every member of the plan for its share in one batcher call,
// the members side by side and the last on the caller's goroutine, and files
// the copies that came in got. A member is asked for a chunk once: whatever
// it answers, it is struck from the chunk's holders. A chunk that did not
// come — its member failed or does not hold it — is returned to be planned
// again.
func (g *Gateway) fetch(h blockcrypto.Hash, plan []peerBatch, holders [][]int, got []*netx.ChunkResp) (again []int) {
	answers := make([][]chunkResult, len(plan))
	ask := func(i int) {
		refs := make([]netx.ChunkRef, len(plan[i].idxs))
		for j, idx := range plan[i].idxs {
			refs[j] = netx.ChunkRef{Block: h, Index: idx}
		}
		answers[i] = g.batch.Fetch(plan[i].peer, refs)
	}
	last := len(plan) - 1
	var wg sync.WaitGroup
	for i := 0; i < last; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ask(i)
		}()
	}
	ask(last)
	wg.Wait()
	for i, pb := range plan {
		for j, idx := range pb.idxs {
			holders[idx] = slices.DeleteFunc(holders[idx], func(p int) bool { return p == pb.peer })
			if res := answers[i][j]; res.err == nil && res.chunk != nil {
				got[idx] = res.chunk
			} else {
				again = append(again, idx)
			}
		}
	}
	return again
}

// peerBatch is one member's share of a planned gather.
type peerBatch struct {
	peer int
	idxs []int // chunk indexes asked of peer, ascending
}

// planGather assigns each wanted chunk of block h to one of its holders
// (holders[idx], for idx in want) so that few members are asked: a greedy
// cover, each step taking the member that can serve the most chunks still
// unassigned. Ties go to the member with the lowest value of a hash of the
// block and the member, so that no member is favoured across blocks. No
// member is handed more than ⌈parts/2⌉ chunks while another holder of the
// chunk exists: a block's bytes come from at least two members side by side,
// and no member serves a whole block serially under its store lock. The same
// input gives the same plan. ok is false when a wanted chunk has no holder.
func planGather(h blockcrypto.Hash, parts int, want []int, holders [][]int) (plan []peerBatch, ok bool) {
	top := -1
	for _, idx := range want {
		if len(holders[idx]) == 0 {
			return nil, false
		}
		top = max(top, slices.Max(holders[idx]))
	}
	limit := (parts + 1) / 2
	seed := h.Uint64()
	serves := make([]int, top+1) // per member, how many unassigned chunks it holds; -1 once chosen
	left := slices.Clone(want)
	for len(left) > 0 {
		for p := range serves {
			serves[p] = min(serves[p], 0)
		}
		for _, idx := range left {
			for _, p := range holders[idx] {
				if serves[p] >= 0 {
					serves[p]++
				}
			}
		}
		best := -1
		for p, n := range serves {
			if n > 0 && (best < 0 || n > serves[best] || n == serves[best] && tieBreak(seed, p) < tieBreak(seed, best)) {
				best = p
			}
		}
		serves[best] = -1
		// alts counts the members not chosen yet that hold idx too; a chunk
		// with none must be taken now, whatever the limit.
		alts := func(idx int) (n int) {
			for _, p := range holders[idx] {
				if serves[p] >= 0 {
					n++
				}
			}
			return n
		}
		var take []int
		for _, idx := range left {
			if slices.Contains(holders[idx], best) {
				take = append(take, idx)
			}
		}
		if len(take) > limit {
			// Over the limit: keep the chunks hardest to place elsewhere.
			slices.SortStableFunc(take, func(a, b int) int { return alts(a) - alts(b) })
			keep := limit
			for keep < len(take) && alts(take[keep]) == 0 {
				keep++
			}
			take = take[:keep]
			slices.Sort(take)
		}
		left = slices.DeleteFunc(left, func(idx int) bool { return slices.Contains(take, idx) })
		plan = append(plan, peerBatch{peer: best, idxs: take})
	}
	return plan, true
}

// tieBreak orders members that can serve equally many chunks of a block.
func tieBreak(seed uint64, peer int) uint64 {
	x := seed ^ (uint64(peer)+1)*0x9e3779b97f4a7c15
	x ^= x >> 32
	x *= 0xd6e8feb86659fd93
	x ^= x >> 32
	return x
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

// sound reports whether the copy c, read with the proofs it carries, is
// chunk idx of parts of hdr's block: it decodes, is cut where the split
// cuts, and every transaction proves into the root (core.Group.ProvesChunk).
func sound(c *netx.ChunkResp, hdr chain.Header, parts, idx int) bool {
	group, err := core.DecodeGroup(c.Index, c.Parts, c.TxStart, c.Data, c.Proofs)
	return err == nil && group.ProvesChunk(hdr, parts, idx) == nil
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
