// Package core implements ICIStrategy, the paper's contribution: intra-
// cluster-integrity collaborative storage for a blockchain network.
//
// The strategy partitions all participants into clusters (internal/cluster).
// Every cluster collectively stores every finalized block: the block body is
// split into as many chunks as the cluster has members, and each chunk is
// placed on r members by rendezvous hashing. Members collaboratively verify
// a new block — each checks only its own chunk (transaction signatures plus
// Merkle membership against the header root) and votes; the cluster leader
// commits on a BFT quorum (internal/consensus). A node bootstraps by
// fetching all headers plus only its own chunks, and repairs rebuild lost
// chunks from replicas inside the cluster.
//
// The package exposes two layers that share this placement logic:
//
//   - Accountant: exact byte-level storage/bootstrap accounting at any
//     scale (no data moved) — drives the storage experiments.
//   - System/Node: the full protocol over the simulated network with real
//     chunk bytes, signatures, proofs, votes, retrieval, bootstrap and
//     repair — drives the communication and latency experiments.
package core

import (
	"errors"
	"fmt"
	"sort"

	"icistrategy/internal/simnet"
)

// Placement errors.
var (
	ErrNoMembers  = errors.New("core: cluster has no members")
	ErrBadParts   = errors.New("core: part count must be positive")
	ErrBadReplica = errors.New("core: replication factor must be in [1, cluster size]")
)

// mix64 is the SplitMix64 finalizer: a fast, well-distributed 64-bit mixer
// used for rendezvous scores. Placement runs millions of times inside the
// accountant, so this must stay branch-free and allocation-free.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// rendezvousScore ranks node candidates for (blockSeed, chunkIdx); the
// highest scores own the chunk.
func rendezvousScore(blockSeed uint64, chunkIdx int, node simnet.NodeID) uint64 {
	return mix64(blockSeed ^ mix64(uint64(chunkIdx)+0x9e3779b97f4a7c15) ^ mix64(uint64(node)))
}

// Owners returns the r members that store chunk chunkIdx of the block with
// the given seed, by highest-random-weight (rendezvous) selection. The
// result is deterministic, balanced in expectation, and minimally
// disruptive: removing a member only reassigns the chunks that member
// owned.
//
// Distinct members never tie (mix64 is a bijection), so the order of the
// owners is fixed by their scores alone.
func Owners(blockSeed uint64, members []simnet.NodeID, chunkIdx, r int) ([]simnet.NodeID, error) {
	if len(members) == 0 {
		return nil, ErrNoMembers
	}
	if r < 1 || r > len(members) {
		return nil, fmt.Errorf("%w: r=%d, members=%d", ErrBadReplica, r, len(members))
	}
	type scored struct {
		id    simnet.NodeID
		score uint64
	}
	// best is kept sorted by descending score: each candidate that makes
	// the top r is insertion-sorted into place.
	best := make([]scored, 0, r)
	for _, m := range members {
		s := rendezvousScore(blockSeed, chunkIdx, m)
		switch {
		case len(best) < r:
			best = append(best, scored{id: m, score: s})
		case s > best[r-1].score:
			best[r-1] = scored{id: m, score: s}
		default:
			continue
		}
		for i := len(best) - 1; i > 0 && best[i].score > best[i-1].score; i-- {
			best[i], best[i-1] = best[i-1], best[i]
		}
	}
	out := make([]simnet.NodeID, r)
	for i, b := range best {
		out[i] = b.id
	}
	return out, nil
}

// RankedMembers returns all members ordered by descending rendezvous score
// for (blockSeed, chunkIdx): the first r entries are the chunk's owners and
// the rest are the fallback order leaders walk when owners fail or reject.
func RankedMembers(blockSeed uint64, members []simnet.NodeID, chunkIdx int) ([]simnet.NodeID, error) {
	if len(members) == 0 {
		return nil, ErrNoMembers
	}
	out := append([]simnet.NodeID(nil), members...)
	scores := make(map[simnet.NodeID]uint64, len(members))
	for _, m := range out {
		scores[m] = rendezvousScore(blockSeed, chunkIdx, m)
	}
	sort.Slice(out, func(i, j int) bool { return scores[out[i]] > scores[out[j]] })
	return out, nil
}

// IsOwner reports whether node stores chunk chunkIdx of the block with the
// given seed under replication r.
func IsOwner(blockSeed uint64, members []simnet.NodeID, chunkIdx, r int, node simnet.NodeID) (bool, error) {
	owners, err := Owners(blockSeed, members, chunkIdx, r)
	if err != nil {
		return false, err
	}
	for _, o := range owners {
		if o == node {
			return true, nil
		}
	}
	return false, nil
}

// SplitCounts divides total items into parts balanced groups: the first
// total%parts groups get one extra item. Used both to split a transaction
// list into chunk groups and to split a byte size for analytic accounting.
func SplitCounts(total, parts int) ([]int, error) {
	if parts <= 0 {
		return nil, ErrBadParts
	}
	out := make([]int, parts)
	base, extra := total/parts, total%parts
	for i := range out {
		out[i] = base
		if i < extra {
			out[i]++
		}
	}
	return out, nil
}

// ChunkRange returns the [start, end) item range of chunk chunkIdx under
// SplitCounts(total, parts), without building the counts: a reader calls it
// with a part count that came off the wire.
func ChunkRange(total, parts, chunkIdx int) (start, end int, err error) {
	if parts <= 0 {
		return 0, 0, ErrBadParts
	}
	if chunkIdx < 0 || chunkIdx >= parts {
		return 0, 0, fmt.Errorf("core: chunk index %d out of [0,%d)", chunkIdx, parts)
	}
	base, extra := total/parts, total%parts
	start = chunkIdx*base + min(chunkIdx, extra)
	end = start + base
	if chunkIdx < extra {
		end++
	}
	return start, end, nil
}
