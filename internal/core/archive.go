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
		code, err := erasure.New(info.k, info.total-info.k)
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
	// live chunk IDs. Shares already held (a duplicate delivery) stay.
	for _, idx := range n.store.ChunksForBlock(m.Block) {
		id := storage.ChunkID{Block: m.Block, Index: idx}
		if chk, err := n.store.Chunk(id); err == nil && chk.CodedK > 0 {
			continue
		}
		n.store.DeleteChunk(id)
	}
	for i, share := range m.Shares {
		c := storage.NewChunk(storage.ChunkID{Block: m.Block, Index: i}, share)
		c.Parts, c.CodedK = m.Total, m.K
		_ = n.store.PutChunk(c) // an empty share is refused; reconstruction then counts it missing
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
	hdr, err := n.store.Header(block)
	if err != nil {
		cb(nil, fmt.Errorf("%w: %s", ErrUnknownBlock, block.Short()))
		return
	}
	n.pc.codedRetrieves.Inc()
	n.startRetrieve(net, &fetchState{
		block:   block,
		hdr:     hdr,
		parts:   info.total,
		codedK:  info.k,
		onBlock: cb,
		span:    n.tr.Start(n.rxSpan, "archive", "retrieve-archived", int64(n.id)),
	})
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
