package core

import (
	"errors"
	"fmt"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/erasure"
	"icistrategy/internal/simnet"
	"icistrategy/internal/storage"
)

// KindArchiveShare carries Reed-Solomon shares (and the drop-old-chunks
// directive) to a cluster member during block archival.
const KindArchiveShare = "ici/archive-share"

// Archival errors.
var (
	ErrBadParity       = errors.New("core: parity must be in [1, members-1]")
	ErrAlreadyArchived = errors.New("core: block already archived")
	ErrNotArchived     = errors.New("core: block is not archived")
)

// archiveInfo is the cluster-wide record of one archived block: the body
// was RS(K, Total−K)-encoded into Total equal shares, share i owned by the
// top rendezvous member for (Seed, i).
type archiveInfo struct {
	k     int
	total int
	seed  uint64
}

// archiveSalt separates archival share placement from live chunk placement
// in rendezvous space.
const archiveSalt = 0xA6C417E5A17

// archiveShareMsg delivers a member's shares of an archived block. Shares
// may be empty: the message then only instructs the member to drop its
// transaction-group chunks for the block.
type archiveShareMsg struct {
	Block blockcrypto.Hash
	K     int
	Total int
	// Shares maps share index -> share bytes for this member.
	Shares map[int][]byte
}

func (m archiveShareMsg) wireSize() int {
	n := reqOverhead
	for _, s := range m.Shares {
		n += 8 + len(s)
	}
	return n
}

// Archived reports whether the cluster has converted the block to coded
// storage.
func (c *clusterInfo) archivedInfo(block blockcrypto.Hash) (archiveInfo, bool) {
	info, ok := c.archived[block]
	return info, ok
}

// ArchiveBlock converts one committed block in cluster c from replicated
// transaction-group chunks to Reed-Solomon coded storage: the body is
// encoded into |members| equal shares (|members|−parity data shares), each
// placed on one member; the old chunks are dropped. Any k live members can
// then reconstruct the block — r=1-class storage with near-r=3
// availability (experiment E7). cb fires once with the outcome; drive the
// network afterwards.
func (s *System) ArchiveBlock(c int, block blockcrypto.Hash, parity int, cb func(error)) error {
	if c < 0 || c >= len(s.clusters) {
		return fmt.Errorf("%w: %d", ErrUnknownCluster, c)
	}
	ci := s.clusters[c]
	if ci.archived == nil {
		ci.archived = make(map[blockcrypto.Hash]archiveInfo)
	}
	if _, ok := ci.archived[block]; ok {
		return fmt.Errorf("%w: %s", ErrAlreadyArchived, block.Short())
	}
	total := len(ci.Current().Members)
	if parity < 1 || parity >= total {
		return fmt.Errorf("%w: parity=%d, members=%d", ErrBadParity, parity, total)
	}
	// The archiver is any live member; use the block's rendezvous leader
	// order so repeated archival work spreads across the cluster.
	var archiver *Node
	for _, m := range ci.Current().Members {
		if !s.net.IsDown(m) {
			archiver = s.nodes[m]
			break
		}
	}
	if archiver == nil {
		return fmt.Errorf("core: cluster %d has no live archiver", c)
	}
	info := archiveInfo{k: total - parity, total: total, seed: block.Uint64() ^ archiveSalt}
	archiver.archive(s.net, block, info, func(err error) {
		if err == nil {
			ci.archived[block] = info
		}
		cb(err)
	})
	return nil
}

// archive retrieves the full block, encodes it, and distributes shares.
func (n *Node) archive(net *simnet.Network, block blockcrypto.Hash, info archiveInfo, cb func(error)) {
	n.pc.archives.Inc()
	span := n.tr.Start(0, "archive", "archive", int64(n.id))
	done := func(err error) {
		span.SetErr(err)
		span.End()
		cb(err)
	}
	n.retrieveBlock(net, block, span.Context(), func(b *chain.Block, err error) {
		if err != nil {
			done(fmt.Errorf("archive %s: %w", block.Short(), err))
			return
		}
		code, err := erasure.Cached(info.k, info.total-info.k)
		if err != nil {
			done(err)
			return
		}
		shares, err := code.Split(b.EncodeBody())
		if err != nil {
			done(err)
			return
		}
		span.AddBytes(int64(b.BodySize()))
		// Group shares by owner so each member gets one message.
		perMember := make(map[simnet.NodeID]map[int][]byte, len(n.cluster.Current().Members))
		for _, m := range n.cluster.Current().Members {
			perMember[m] = make(map[int][]byte)
		}
		for i, share := range shares {
			owners, oerr := n.cluster.Current().Owners(info.seed, i, 1)
			if oerr != nil {
				done(oerr)
				return
			}
			perMember[owners[0]][i] = share
		}
		for _, m := range n.cluster.Current().Members {
			msg := archiveShareMsg{Block: block, K: info.k, Total: info.total, Shares: perMember[m]}
			if m == n.id {
				prev := n.rxSpan
				n.rxSpan = span.Context()
				n.onArchiveShare(net, msg)
				n.rxSpan = prev
				continue
			}
			_ = net.Send(simnet.Message{
				From: n.id, To: m, Kind: KindArchiveShare,
				Size: msg.wireSize(), Payload: msg, Span: span.Context(),
			})
		}
		done(nil)
	})
}

// onArchiveShare stores this member's coded shares and drops its old
// transaction-group chunks for the block.
func (n *Node) onArchiveShare(_ *simnet.Network, m archiveShareMsg) {
	if !n.store.HasHeader(m.Block) {
		return // never finalized here; nothing to archive
	}
	n.pc.archiveShares.Add(int64(len(m.Shares)))
	n.tr.Point(n.rxSpan, "archive", "store-shares", int64(n.id), int64(m.wireSize()-reqOverhead), "")
	// Drop replicated chunks first so share indices cannot collide with
	// live chunk IDs.
	for _, idx := range n.store.ChunksForBlock(m.Block) {
		id := storage.ChunkID{Block: m.Block, Index: idx}
		if meta, ok := n.meta[id]; ok && meta.coded {
			continue
		}
		if err := n.store.DeleteChunk(id); err != nil {
			continue
		}
		if meta, ok := n.meta[id]; ok {
			for _, p := range meta.proofs {
				n.proofBytes -= int64(p.EncodedSize())
			}
			delete(n.meta, id)
		}
	}
	for i, share := range m.Shares {
		id := storage.ChunkID{Block: m.Block, Index: i}
		if err := n.store.PutChunk(storage.NewChunk(id, share)); err != nil {
			continue
		}
		n.meta[id] = chunkMeta{parts: m.Total, coded: true, codedK: m.K}
	}
}

// RetrieveArchivedBlock reassembles a coded block: gather shares from the
// cluster, reconstruct with Reed-Solomon once k distinct shares arrived,
// decode the body, and verify the Merkle root. info comes from the shared
// cluster record; System.RetrieveBlockAuto routes automatically.
func (n *Node) RetrieveArchivedBlock(net *simnet.Network, block blockcrypto.Hash, cb func(*chain.Block, error)) {
	info, ok := n.cluster.archivedInfo(block)
	if !ok {
		cb(nil, fmt.Errorf("%w: %s", ErrNotArchived, block.Short()))
		return
	}
	if !n.store.HasHeader(block) {
		cb(nil, fmt.Errorf("%w: %s", ErrUnknownBlock, block.Short()))
		return
	}
	n.nextReq++
	req := n.nextReq
	st := &fetchState{
		block:   block,
		parts:   info.total,
		codedK:  info.k,
		chunks:  make(map[int]retrievedChunk),
		timeout: fetchTimeout,
		onBlock: cb,
		span:    n.tr.Start(n.rxSpan, "archive", "retrieve-archived", int64(n.id)),
	}
	n.fetches[req] = st
	n.pc.codedRetrieves.Inc()
	for _, idx := range n.store.ChunksForBlock(block) {
		id := storage.ChunkID{Block: block, Index: idx}
		chk, err := n.store.Chunk(id)
		if err != nil {
			n.metrics.LocalChunkErrors.Inc()
			continue
		}
		if !n.meta[id].coded {
			continue
		}
		st.chunks[idx] = retrievedChunk{Idx: idx, Raw: chk.Data, Coded: true}
	}
	if n.tryFinishCodedRetrieve(req, st) {
		return
	}
	// Shares ride the same request/response pair as live chunks, so the
	// retry-aware broadcast round of RetrieveBlock serves both modes.
	n.broadcastFetch(net, req, st)
}

// tryFinishCodedRetrieve reconstructs once k distinct shares are present.
// The codec comes from the shared registry: this runs on every share
// arrival, and re-deriving the systematic matrix per response used to
// dominate the coded read path.
func (n *Node) tryFinishCodedRetrieve(req uint64, st *fetchState) bool {
	if st.onBlock == nil || len(st.chunks) < st.codedK {
		return false
	}
	code, err := erasure.Cached(st.codedK, st.parts-st.codedK)
	if err != nil {
		n.failFetch(req, st, err)
		return true
	}
	shards := make([][]byte, st.parts)
	for i, c := range st.chunks {
		if i >= 0 && i < st.parts && c.Coded {
			shards[i] = c.Raw
		}
	}
	if err := code.Reconstruct(shards); err != nil {
		return false // wait for more shares
	}
	body, err := code.Join(shards)
	if err != nil {
		n.failFetch(req, st, err)
		return true
	}
	txs, err := chain.DecodeBody(body)
	if err != nil {
		n.failFetch(req, st, fmt.Errorf("%w: %v", ErrRetrieveFailed, err))
		return true
	}
	hdr, err := n.store.Header(st.block)
	if err != nil {
		n.failFetch(req, st, err)
		return true
	}
	b := &chain.Block{Header: hdr, Txs: txs}
	if err := b.VerifyShape(); err != nil {
		n.failFetch(req, st, fmt.Errorf("%w: %v", ErrRetrieveFailed, err))
		return true
	}
	st.done = true
	delete(n.fetches, req)
	n.finishFetchSpan(st, int64(b.BodySize()), nil)
	st.onBlock(b, nil)
	return true
}

// RetrieveBlockAuto reads a block through whichever storage mode the
// cluster currently uses for it.
func (n *Node) RetrieveBlockAuto(net *simnet.Network, block blockcrypto.Hash, cb func(*chain.Block, error)) {
	if _, ok := n.cluster.archivedInfo(block); ok {
		n.RetrieveArchivedBlock(net, block, cb)
		return
	}
	n.RetrieveBlock(net, block, cb)
}
