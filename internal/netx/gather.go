package netx

import (
	"fmt"
	"slices"
	"sync"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/core"
)

// Gather is the one way a block is read from a cluster over TCP: the
// gateway's cold read and Cluster.RetrieveBlock both end here (DESIGN.md
// "Reading a block over TCP"). have holds one entry per chunk of hdr's
// block, nil where the chunk is still to be read, and holders[idx] the
// members that may hold such a chunk, numbered as the caller likes. fetch is
// one round trip to one member: its answer, position for position, or nil.
//
// First attempt and fallback are one loop: the wanted chunks are planned
// over their holders (planGather) and fetched, a member struck from
// holders[idx] once asked, and a chunk that did not come is wanted again,
// until the block verifies against the header's root (have then holds the
// copies it was built from) or a wanted chunk has no holder left. The root
// is the only check a sound read pays for, so the copies are asked for
// bare, without their Merkle proofs. Once a reassembly is refused somebody
// has to say which copy is wrong: the copies of that pass are read again
// from the members that served them, with proofs this time and for the rest
// of the read, and one that does not come again, does not decode, is cut
// short or does not prove is wanted again, from a holder not asked yet. A
// stale cluster map ends the same way: chunks cut for another part count
// than len(have) are unsound.
func Gather(hdr chain.Header, have []*ChunkResp, holders [][]int, fetch func(member int, refs []ChunkRef) *ChunkBatchResp) (*chain.Block, *chain.MerkleTree, error) {
	h, parts := hdr.Hash(), len(have)
	rd := reading{block: h, have: have, from: make([]int, parts), holders: holders, fetch: fetch}
	var wanted []int
	for idx, c := range have {
		if c == nil {
			wanted = append(wanted, idx)
		}
	}
	var broken error // why the last reassembly failed; nil before the first
	for {
		asked := wanted // the copies this pass fetches: nobody has looked at them yet
		for len(wanted) > 0 {
			plan, ok := planGather(h, parts, wanted, holders)
			if !ok {
				if broken != nil {
					return nil, nil, broken // no sound copy left
				}
				return nil, nil, fmt.Errorf("%w: have %d of %d for %s", ErrIncompleteBlock, parts-len(wanted), parts, h.Short())
			}
			wanted = rd.ask(plan)
		}
		b, tree, err := reassemble(hdr, have)
		if err == nil {
			return b, tree, nil
		}
		if len(asked) == 0 {
			return nil, nil, err // every copy left has proved, or was the caller's
		}
		broken = err
		if !rd.proofs {
			rd.proofs = true
			wanted = rd.ask(rd.servers(asked))
		}
		for _, idx := range asked {
			if have[idx] != nil && !sound(have[idx], hdr, parts, idx) {
				wanted = append(wanted, idx)
			}
		}
	}
}

// reading is the state of one Gather that its round trips share.
type reading struct {
	block   blockcrypto.Hash
	have    []*ChunkResp
	from    []int // from[idx] is the member that served have[idx], where a round trip did
	holders [][]int
	proofs  bool // whether copies are asked for with their proofs: not until a reassembly was refused
	fetch   func(member int, refs []ChunkRef) *ChunkBatchResp
}

// ask carries out one plan, its members side by side, files the copies that
// came in have and returns the chunks that did not, to be planned again.
func (rd *reading) ask(plan []peerBatch) (again []int) {
	var wg sync.WaitGroup
	for i, pb := range plan {
		refs := make([]ChunkRef, len(pb.idxs))
		for j, idx := range pb.idxs {
			refs[j] = ChunkRef{Block: rd.block, Index: idx, Proofs: rd.proofs}
			rd.have[idx] = nil // a copy nobody could judge does not stand in for the one asked for now
			rd.holders[idx] = slices.DeleteFunc(rd.holders[idx], func(p int) bool { return p == pb.peer })
		}
		file := func() {
			res := rd.fetch(pb.peer, refs)
			for j, idx := range pb.idxs {
				if res != nil && res.Found[j] {
					rd.have[idx], rd.from[idx] = &res.Chunks[j], pb.peer
				}
			}
		}
		if i == len(plan)-1 {
			file() // on the caller's goroutine: a one-member plan starts none
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			file()
		}()
	}
	wg.Wait()
	for _, pb := range plan {
		for _, idx := range pb.idxs {
			if rd.have[idx] == nil {
				again = append(again, idx)
			}
		}
	}
	return again
}

// servers is the plan that reads the copies idxs again where they came
// from: one batch per member that served any, in the order of first use.
func (rd *reading) servers(idxs []int) (plan []peerBatch) {
	for _, idx := range idxs {
		at := slices.IndexFunc(plan, func(pb peerBatch) bool { return pb.peer == rd.from[idx] })
		if at < 0 {
			at, plan = len(plan), append(plan, peerBatch{peer: rd.from[idx]})
		}
		plan[at].idxs = append(plan[at].idxs, idx)
	}
	return plan
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
func reassemble(hdr chain.Header, chunks []*ChunkResp) (*chain.Block, *chain.MerkleTree, error) {
	groups := make([]core.Group, len(chunks))
	for idx, c := range chunks {
		var err error
		if groups[idx], err = core.DecodeGroup(c.Index, c.Parts, c.TxStart, c.Data, nil); err != nil {
			return nil, nil, fmt.Errorf("netx: chunk %d: %w", idx, err)
		}
	}
	return core.Reassemble(hdr, groups)
}

// sound reports whether the copy c, read with the proofs it carries, is
// chunk idx of parts of hdr's block: it decodes, is cut where the split
// cuts, and every transaction proves into the root (core.Group.ProvesChunk).
func sound(c *ChunkResp, hdr chain.Header, parts, idx int) bool {
	group, err := core.DecodeGroup(c.Index, c.Parts, c.TxStart, c.Data, c.Proofs)
	return err == nil && group.ProvesChunk(hdr, parts, idx) == nil
}
