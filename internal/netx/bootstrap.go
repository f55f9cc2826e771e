package netx

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/core"
	"icistrategy/internal/simnet"
)

// This file is the real-TCP side of a membership change: who takes part
// is read from the cluster map (CurrentMap), what moves is planned by core's
// one rule (EpochMap.MovesTo: every member that gains a chunk pulls it) on
// planMap's copy of it; transfer carries it out, verify-on-write.
// BootstrapNewMember (a newcomer joins), ResyncMember (a member restarted
// empty) and RejoinMember (churn.go) provision one server; RetireMember
// (churn.go) has every staying member pull the leaver's share.

// BootstrapNewMember provisions a brand-new storage server as a new member
// of this cluster, under an identity no epoch of the cluster map has ever
// listed: every header (hash chain checked), then every chunk the newcomer
// owns once the current epoch is grown by it, each fetched from a member
// that holds it. It returns how many chunks were transferred. Nothing is
// published: a caller that wants the newcomer to serve publishes the grown
// epoch (PublishEpoch).
func (cl *Cluster) BootstrapNewMember(newAddr string) (int, error) {
	m := cl.CurrentMap()
	cur, id := m.Current(), fresh(m)
	return cl.provision(m, newAddr, id, append(slices.Clone(cur.Members), id), append(slices.Clone(cur.Addrs), newAddr))
}

// fresh returns the identity one above the highest that any epoch of m
// lists: a departed member's identity is never handed to a newcomer, whose
// placement would then claim the departed member's chunks.
func fresh(m core.EpochMap) simnet.NodeID {
	var top simnet.NodeID
	for _, e := range m {
		top = max(top, slices.Max(e.Members))
	}
	return top + 1
}

// ResyncMember re-provisions the member serving at addr in the current
// epoch of the cluster map, as the identity the map gives it, whose store
// was lost (crash, restart, disk wipe) with the headers and every chunk it
// owns. It returns how many chunks were transferred. A chunk only the lost
// member held (replication 1) cannot be recovered and fails the resync.
func (cl *Cluster) ResyncMember(addr string) (int, error) {
	m := cl.CurrentMap()
	cur := m.Current()
	if i := slices.Index(cur.Addrs, addr); i >= 0 {
		return cl.provision(m, addr, cur.Members[i], nil, nil)
	}
	return 0, fmt.Errorf("netx: resync: %s is not a member of the current epoch", addr)
}

// provision pushes headers plus every chunk member self takes in
// (EpochMap.MovesTo) into the server at target, each fetched from the
// sources the plan names. The plan is m with, unless ids is nil, the
// membership ids at addrs that the change leads to (planMap); a resync
// changes none. A published m is handed to the target first (syncHeaders).
func (cl *Cluster) provision(m core.EpochMap, target string, self simnet.NodeID, ids []simnet.NodeID, addrs []string) (int, error) {
	plan, err := planMap(m, ids, addrs)
	if err != nil {
		return 0, fmt.Errorf("netx: bootstrap: %w", err)
	}
	headers, err := cl.syncHeaders(target, m)
	if err != nil {
		return 0, err
	}
	n, err := cl.transfer(plan, headers, func(block blockcrypto.Hash, height uint64) ([]core.Move, error) {
		return plan.MovesTo(block, height, self, cl.replication)
	})
	if err != nil {
		return n, fmt.Errorf("netx: bootstrap: %w", err)
	}
	return n, nil
}

// planMap returns the map a membership change is planned on: a copy of m,
// the newest published map, with placement advanced to its current epoch —
// a TCP epoch is published only once the migration into it completed, and
// the placement cursor never crosses the wire — and, unless ids is nil, the
// membership ids at addrs pushed on top, from a height no block reaches. The
// map a Cluster holds, serves and reads by is not touched.
func planMap(m core.EpochMap, ids []simnet.NodeID, addrs []string) (core.EpochMap, error) {
	m = slices.Clone(m)
	m.AdvancePlacement(m.Current().Seq)
	if ids == nil {
		return m, nil
	}
	_, err := m.Push(math.MaxUint64, ids, addrs)
	return m, err
}

// addrsOf returns where the members ids serve under m, in order, without
// repeats or skip: a server being provisioned has nothing to offer, even
// where a departed member once served at its address.
func addrsOf(m core.EpochMap, ids []simnet.NodeID, skip string) []string {
	var out []string
	for _, id := range ids {
		if a := m.Addr(id); a != skip && !slices.Contains(out, a) {
			out = append(out, a)
		}
	}
	return out
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
	seq   int // position in the plan's order
	block blockcrypto.Hash
	index int
	from  []string // holders to fetch from, in fail-over order
	to    string   // the server taking it in
}

// transfer carries out, on transferWorkers goroutines, the moves movesOf
// plans on plan for each of headers in turn; planning runs on the caller's
// goroutine and stops once a move has failed. A worker fetches its move's
// chunk from the first of its sources that serves it and pushes it to the
// member taking it in over a connection of its own: the destination
// verifies on write, and separate connections let it verify several chunks
// at once. Moves already taken when one fails still finish.
//
// It returns how many moves had their push acknowledged, and the error of
// the earliest failed move in the plan's order — the one a sequential copy
// would have stopped at — or else the planner's own.
func (cl *Cluster) transfer(plan core.EpochMap, headers []chain.Header, movesOf func(block blockcrypto.Hash, height uint64) ([]core.Move, error)) (int, error) {
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
	err := func() error {
		for _, h := range headers {
			planned, err := movesOf(h.Hash(), h.Height)
			if err != nil {
				return err
			}
			for _, mv := range planned {
				mu.Lock()
				stop := failed != nil
				mu.Unlock()
				if stop {
					return nil
				}
				to := plan.Addr(mv.To) // a source at the destination's address has nothing to offer
				moves <- chunkMove{seq: seq, block: mv.Block, index: mv.Index, from: addrsOf(plan, mv.From, to), to: to}
				seq++ // the send never blocks for good: the workers receive until moves is closed
			}
		}
		return nil
	}()
	close(moves)
	wg.Wait()
	if failed != nil {
		return done, failed
	}
	return done, err
}

// moveChunk carries out one move, dialing its destination into dests as
// needed.
func (cl *Cluster) moveChunk(mv chunkMove, dests map[string]*Client) error {
	var chunk *ChunkResp
	for _, addr := range mv.from {
		if cl.Call(addr, 0, func(c *Client) (err error) {
			chunk, err = c.GetChunk(mv.block, mv.index)
			return err
		}) == nil {
			break
		}
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
	dst := dests[mv.to]
	if dst == nil {
		var err error
		if dst, err = cl.dial(mv.to); err != nil {
			return err
		}
		dests[mv.to] = dst
	}
	if err := cl.putChunk(dst, req); err != nil {
		return fmt.Errorf("push chunk %d to %s: %w", mv.index, mv.to, err)
	}
	return nil
}

// syncHeaders copies the header chain (memberHeaders) into the server at
// target. Before that it hands the server m, unless m is the constructor
// roster that nothing published: a server that holds no map takes any
// writer's part count on trust (handlePutChunk), a stale writer's too.
func (cl *Cluster) syncHeaders(target string, m core.EpochMap) ([]chain.Header, error) {
	targetClient, err := cl.dial(target)
	if err != nil {
		return nil, fmt.Errorf("netx: bootstrap: dial member %s: %w", target, err)
	}
	defer targetClient.Close()
	if m.Current().Seq > 0 {
		if err := targetClient.SetClusterMap(m); err != nil {
			return nil, fmt.Errorf("netx: bootstrap: hand %s the cluster map: %w", target, err)
		}
	}
	headers, err := cl.memberHeaders(target)
	if err != nil {
		return nil, fmt.Errorf("netx: bootstrap: %w", err)
	}
	for i, h := range headers {
		if err := targetClient.PutHeader(h); err != nil {
			return nil, fmt.Errorf("netx: bootstrap: push header %d: %w", i, err)
		}
	}
	return headers, nil
}

// memberHeaders reads the header chain from the first reachable member of
// the current epoch other than skip, validating genesis anchoring and
// hash-chain linkage.
func (cl *Cluster) memberHeaders(skip string) ([]chain.Header, error) {
	var headers []chain.Header
	err := ErrNoServers // what is left to report when skip is the only member
	for _, addr := range cl.Map().Current().Addrs {
		if addr == skip {
			continue
		}
		if err = cl.Call(addr, 0, func(c *Client) (err error) {
			headers, err = c.GetHeaders(0)
			return err
		}); err == nil {
			break
		}
		err = fmt.Errorf("get headers from %s: %w", addr, err)
	}
	if err != nil {
		return nil, fmt.Errorf("no member served headers: %w", err)
	}
	if err := chain.VerifyHeaderChain(headers); err != nil {
		return nil, err
	}
	return headers, nil
}
