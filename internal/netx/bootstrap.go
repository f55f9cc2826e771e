package netx

import (
	"fmt"
	"slices"
	"sync"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/core"
	"icistrategy/internal/simnet"
)

// This file is the real-TCP bootstrap path: provisioning a storage server
// with the headers and chunks it is responsible for, fetched from live
// cluster members, verify-on-write. Two entry points share the machinery:
//
//   - BootstrapNewMember: a brand-new node joins a cluster of N as member
//     N — ownership is computed under the grown membership (the
//     re-placement case).
//   - ResyncMember: an existing member restarted with an empty store
//     re-fetches the chunks it owns under the unchanged membership (the
//     crash-recovery case).

// BootstrapNewMember provisions a brand-new storage server as the next
// member of this cluster, over TCP: it syncs every header from an existing
// member (validating the hash chain), computes which chunks the newcomer
// owns under the grown membership with the same rendezvous placement the
// simulator's join protocol uses, fetches each from a current owner, and
// pushes it — verify-on-write — into the new server. It returns how many
// chunks were transferred.
//
// The cluster's own membership view is not mutated: callers that want the
// newcomer to serve future blocks build a new Cluster over addrs +
// newAddr.
func (cl *Cluster) BootstrapNewMember(newAddr string) (int, error) {
	newID := simnet.NodeID(len(cl.ids))
	grown := append(append([]simnet.NodeID(nil), cl.ids...), newID)
	return cl.provisionMember(newAddr, newID, grown, []EpochInfo{cl.baseEpoch()})
}

// ResyncMember re-provisions an existing member whose local store was lost
// (crash, restart, disk wipe): headers are synced from a surviving member
// and every chunk the member owns under the current membership is fetched
// from another replica and pushed back, verify-on-write. addr must be the
// member's own address — cl must span the full membership including it.
// It returns how many chunks were transferred.
//
// A chunk whose only owners were the lost member itself (replication 1)
// cannot be recovered and fails the resync.
func (cl *Cluster) ResyncMember(addr string, id simnet.NodeID) (int, error) {
	if int(id) < 0 || int(id) >= len(cl.ids) {
		return 0, fmt.Errorf("netx: resync: member id %d outside cluster of %d", id, len(cl.ids))
	}
	if cl.addrs[int(id)] != addr {
		return 0, fmt.Errorf("netx: resync: member %d is %s, not %s", id, cl.addrs[int(id)], addr)
	}
	return cl.provisionMember(addr, id, cl.ids, []EpochInfo{cl.baseEpoch()})
}

// provisionMember pushes headers plus the chunks self owns (ownership is
// rendezvous placement over the ownership id set) into the server at
// target, fetching everything from members other than target itself. Each
// block is resolved against the epoch of the map it was written under —
// that epoch's member count is its chunk count — and a chunk is fetched
// from its write-epoch owners or, failing those, the owners it migrated to
// under the newest epoch.
func (cl *Cluster) provisionMember(target string, self simnet.NodeID, ownership []simnet.NodeID, epochs []EpochInfo) (int, error) {
	headers, err := cl.syncHeaders(target)
	if err != nil {
		return 0, err
	}
	newest := epochs[len(epochs)-1]
	n, err := cl.transfer(func(emit func(chunkMove) bool) error {
		for _, h := range headers {
			block := h.Hash()
			seed := block.Uint64()
			wrote := epochForMap(epochs, h.Height)
			for idx := range wrote.Members {
				owns, err := core.IsOwner(seed, ownership, idx, cl.replication, self)
				if err != nil {
					return err
				}
				if !owns {
					continue
				}
				from, err := cl.epochHolders(seed, idx, target, wrote, newest)
				if err != nil {
					return err
				}
				if !emit(chunkMove{block: block, index: idx, from: from, to: []string{target}}) {
					return nil
				}
			}
		}
		return nil
	})
	if err != nil {
		return n, fmt.Errorf("netx: bootstrap: %w", err)
	}
	return n, nil
}

// epochHolders lists, in fail-over order and without repeats, the addresses
// of chunk idx's owners under each of the epochs in turn — skipping the
// member being provisioned, which has nothing to offer.
func (cl *Cluster) epochHolders(seed uint64, idx int, skip string, es ...EpochInfo) ([]string, error) {
	var out []string
	for i, e := range es {
		if i > 0 && e.Epoch == es[i-1].Epoch {
			continue // a block written under the newest epoch: same owners again
		}
		ids := make([]simnet.NodeID, len(e.Members))
		addrOf := make(map[simnet.NodeID]string, len(e.Members))
		for i, m := range e.Members {
			ids[i] = simnet.NodeID(m.ID)
			addrOf[ids[i]] = m.Addr
		}
		owners, err := core.Owners(seed, ids, idx, min(cl.replication, len(ids)))
		if err != nil {
			return nil, err
		}
		for _, o := range owners {
			if a := addrOf[o]; a != skip && !slices.Contains(out, a) {
				out = append(out, a)
			}
		}
	}
	return out, nil
}

// transferWorkers is how many chunks a bootstrap, resync, rejoin or retire
// moves at once. The receiving server spends ~0.6 ms of signature checks on
// each chunk and a sender waits a round trip for each, so a few in flight
// keep the receiver's cores and the wire busy. 2, 4 and 8 bootstrap a joiner
// at the same rate on a 2-core loopback host (the receiver is CPU-bound);
// 4 leaves room for more cores and real round trips. A constant, not an
// option: no caller has needed another value.
const transferWorkers = 4

// chunkMove is one chunk to copy between servers.
type chunkMove struct {
	seq   int // position in the producer's order
	block blockcrypto.Hash
	index int
	from  []string   // holders to fetch from, in fail-over order...
	chunk *ChunkResp // ...or the chunk itself, when the producer already read it
	to    []string   // servers to push to
}

// transfer copies chunks between servers on transferWorkers goroutines.
// produce runs on the caller's goroutine and hands each move to emit, which
// reports false once a move has failed and no more are taken. A worker
// fetches its move's chunk from the first holder that serves it and pushes
// it to every destination over connections of its own: the destination
// verifies on write, and separate connections let it verify several chunks
// at once. Moves already taken when one fails still finish.
//
// It returns how many moves had every push acknowledged, and the error of
// the earliest failed move in the producer's order — the one a sequential
// copy would have stopped at — or else the producer's own.
func (cl *Cluster) transfer(produce func(emit func(chunkMove) bool) error) (int, error) {
	var (
		moves = make(chan chunkMove)
		wg    sync.WaitGroup

		mu      sync.Mutex // guards done, failed and failSeq
		done    int
		failed  error
		failSeq int
	)
	for w := 0; w < transferWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dests := make(map[string]*Client)
			defer func() {
				for _, c := range dests {
					_ = c.Close()
				}
			}()
			for mv := range moves {
				err := cl.moveChunk(mv, dests)
				mu.Lock()
				if err == nil {
					done++
				} else if failed == nil || mv.seq < failSeq {
					failed, failSeq = err, mv.seq
				}
				mu.Unlock()
			}
		}()
	}
	seq := 0
	err := produce(func(mv chunkMove) bool {
		mu.Lock()
		ok := failed == nil
		mu.Unlock()
		if ok {
			mv.seq = seq
			seq++
			moves <- mv // never blocks for good: the workers receive until moves is closed
		}
		return ok
	})
	close(moves)
	wg.Wait()
	if failed != nil {
		return done, failed
	}
	return done, err
}

// moveChunk carries out one move, dialing destinations into dests as needed.
func (cl *Cluster) moveChunk(mv chunkMove, dests map[string]*Client) error {
	chunk := mv.chunk
	for _, addr := range mv.from {
		c, err := cl.client(addr)
		if err != nil {
			continue
		}
		if chunk, err = c.GetChunk(mv.block, mv.index); err == nil {
			break
		}
		cl.dropClient(addr, c)
	}
	if chunk == nil {
		return fmt.Errorf("chunk %d of %s unavailable from any owner", mv.index, mv.block.Short())
	}
	// The receiving server verifies the proofs against its header on write.
	req := PutChunkReq{
		Block:   mv.block,
		Index:   mv.index,
		Parts:   chunk.Parts,
		TxStart: chunk.TxStart,
		Data:    chunk.Data,
		Proofs:  chunk.Proofs,
	}
	for _, addr := range mv.to {
		dst := dests[addr]
		if dst == nil {
			var err error
			if dst, err = cl.dial(addr); err != nil {
				return err
			}
			dests[addr] = dst
		}
		if err := dst.PutChunk(req); err != nil {
			return fmt.Errorf("push chunk %d to %s: %w", mv.index, addr, err)
		}
	}
	return nil
}

// syncHeaders copies the header chain from the first reachable member
// (skipping target itself) into the server at target, validating genesis
// anchoring and hash-chain linkage on the way.
func (cl *Cluster) syncHeaders(target string) ([]chain.Header, error) {
	targetClient, err := cl.dial(target)
	if err != nil {
		return nil, fmt.Errorf("netx: bootstrap: dial member %s: %w", target, err)
	}
	defer targetClient.Close()
	var headers []chain.Header
	err = ErrNoServers // what is left to report when target is the only member
	for _, addr := range cl.addrs {
		if addr == target {
			continue
		}
		var c *Client
		if c, err = cl.client(addr); err != nil {
			continue
		}
		if headers, err = c.GetHeaders(0); err == nil {
			break
		}
		err = fmt.Errorf("get headers from %s: %w", addr, err)
		cl.dropClient(addr, c)
	}
	if err != nil {
		return nil, fmt.Errorf("netx: bootstrap: no member served headers: %w", err)
	}
	var prev *chain.Header
	for i := range headers {
		h := headers[i]
		if prev != nil {
			blk := chain.Block{Header: h}
			if err := blk.VerifyLink(prev); err != nil {
				return nil, fmt.Errorf("netx: bootstrap: header %d: %w", i, err)
			}
		} else if h.Height != 0 || !h.PrevHash.IsZero() {
			return nil, fmt.Errorf("netx: bootstrap: chain does not start at genesis")
		}
		if err := targetClient.PutHeader(h); err != nil {
			return nil, fmt.Errorf("netx: bootstrap: push header %d: %w", i, err)
		}
		prev = &headers[i]
	}
	return headers, nil
}
