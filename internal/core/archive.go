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

// Archival errors.
var (
	ErrBadParity       = errors.New("core: parity must be in [1, members-1]")
	ErrAlreadyArchived = errors.New("core: block already archived")
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

// archiveShareMsg carries a member's Reed-Solomon shares of a block, and the
// directive to drop its old chunks, during block archival. Shares may be
// empty: the message then only instructs the member to drop its
// transaction-group chunks for the block.
type archiveShareMsg struct {
	Block blockcrypto.Hash
	K     int
	Total int
	// Shares maps share index -> share bytes for this member.
	Shares map[int][]byte
}

func (archiveShareMsg) kind() string { return "ici/archive-share" }
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
	// The archiver is the first live member of the current roster.
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
	archiver.archive(block, info, func(err error) {
		if err == nil {
			ci.archived[block] = info
		}
		cb(err)
	})
	return nil
}

// archive retrieves the full block, encodes it, and distributes shares.
func (n *Node) archive(block blockcrypto.Hash, info archiveInfo, cb func(error)) {
	n.pc.archives.Inc()
	span := n.tr.Start(0, "archive", "archive", int64(n.id))
	done := func(err error) {
		span.SetErr(err)
		span.End()
		cb(err)
	}
	n.retrieveBlock(block, span.Context(), func(b *chain.Block, err error) {
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
			_ = n.send(m, msg, span.Context())
		}
		done(nil)
	})
}

// onArchiveShare stores this member's coded shares and drops its old
// transaction-group chunks for the block.
func (n *Node) onArchiveShare(m archiveShareMsg) {
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
