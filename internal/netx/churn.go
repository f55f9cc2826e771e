package netx

import (
	"fmt"
	"slices"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/core"
	"icistrategy/internal/simnet"
)

// GetClusterMap fetches the server's epoch-versioned cluster map; an empty
// map means none was ever published to that server.
func (c *Client) GetClusterMap() (core.EpochMap, error) {
	resp, err := c.roundTrip(&Request{GetClusterMap: &ClusterMapReq{}})
	if err != nil {
		return nil, err
	}
	if err := respError(resp); err != nil {
		return nil, err
	}
	if resp.ClusterMap == nil {
		return nil, ErrBadRequest
	}
	return resp.ClusterMap.Epochs, nil
}

// SetClusterMap publishes a cluster map to the server. The server keeps the
// newest map it has seen, so delivering a stale map is harmless.
func (c *Client) SetClusterMap(m core.EpochMap) error {
	resp, err := c.roundTrip(&Request{SetClusterMap: &SetClusterMapReq{Epochs: m}})
	if err != nil {
		return err
	}
	return respError(resp)
}

// CurrentMap polls every member the map this cluster holds lists in any
// epoch for its published cluster map, keeps the newest valid one, and
// returns it. Before any churn is published that is the constructor roster
// as epoch 0, the map every deployment implicitly runs under. Polling every
// member (not just the first) tolerates members that are down or missed an
// earlier publish; a member that answers with an invalid map is skipped
// like one that does not answer.
func (cl *Cluster) CurrentMap() core.EpochMap {
	best := cl.Map()
	var polled []string
	for _, e := range best {
		for _, addr := range e.Addrs {
			if slices.Contains(polled, addr) {
				continue
			}
			polled = append(polled, addr)
			var m core.EpochMap
			if cl.Call(addr, 0, func(c *Client) (err error) {
				m, err = c.GetClusterMap()
				return err
			}) != nil {
				continue
			}
			if m.Newer(best) && checkMap(m) == nil {
				best = m
			}
		}
	}
	return cl.adopt(best)
}

// Map returns the newest cluster map this cluster has seen, without polling.
func (cl *Cluster) Map() core.EpochMap {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.cmap
}

// adopt keeps m if it is newer than the map held, and returns the map held.
func (cl *Cluster) adopt(m core.EpochMap) core.EpochMap {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if m.Newer(cl.cmap) {
		cl.cmap = m
	}
	return cl.cmap
}

// maxHeight reports the highest header height any reachable member of the
// current epoch holds. Each member is asked only for headers at or above the
// best height seen so far, so one member sends the chain and the rest send
// their tails.
func (cl *Cluster) maxHeight() (uint64, bool) {
	var top uint64
	found := false
	for _, addr := range cl.Map().Current().Addrs {
		var headers []chain.Header
		if cl.Call(addr, 0, func(c *Client) (err error) {
			headers, err = c.GetHeaders(top)
			return err
		}) != nil {
			continue
		}
		for _, h := range headers {
			if !found || h.Height > top {
				top, found = h.Height, true
			}
		}
	}
	return top, found
}

// PublishEpoch appends a membership epoch to the cluster map and pushes the
// updated map to every reachable member of both the old and new current
// epochs.
// The epoch governs blocks written above the highest header currently held,
// so in-flight history keeps resolving against its write-time membership; a
// height below the current epoch's — no member answered for its headers —
// is refused (EpochMap.Push) rather than published over existing history.
// Returns the new epoch number.
func (cl *Cluster) PublishEpoch(ids []simnet.NodeID, addrs []string) (int, error) {
	m := slices.Clone(cl.CurrentMap()) // Push appends; the map polled is shared
	var from uint64
	if h, ok := cl.maxHeight(); ok {
		from = h + 1
	}
	next, err := m.Push(from, ids, addrs)
	if err != nil {
		return 0, fmt.Errorf("netx: publish epoch: %w", err)
	}
	published := 0
	for _, addr := range addrsOf(m, slices.Concat(m[next.Seq-1].Members, next.Members), "") {
		if cl.Call(addr, 0, func(c *Client) error { return c.SetClusterMap(m) }) == nil {
			published++
		}
	}
	if published == 0 {
		return 0, fmt.Errorf("netx: cluster map epoch %d reached no member", next.Seq)
	}
	cl.adopt(m)
	return next.Seq, nil
}

// RetireMember gracefully removes the member serving at addr from the
// current epoch of the cluster map: every member that stays pulls the
// chunks the shrunk membership gives it (retireMoves), then the shrunk epoch
// is published. The leaver is one source among each chunk's other holders,
// so a leaver that is down is skipped while a copy survives elsewhere.
// Returns the number of chunks moved.
func (cl *Cluster) RetireMember(addr string) (int, error) {
	m := cl.CurrentMap()
	cur := m.Current()
	li := slices.Index(cur.Addrs, addr)
	if li < 0 {
		return 0, fmt.Errorf("netx: %s is not a cluster member", addr)
	}
	ids := slices.Delete(slices.Clone(cur.Members), li, li+1)
	addrs := slices.Delete(slices.Clone(cur.Addrs), li, li+1)
	plan, err := planMap(m, ids, addrs) // refuses an epoch of no members: the last one stays
	if err != nil {
		return 0, fmt.Errorf("netx: retire %s: %w", addr, err)
	}
	headers, err := cl.memberHeaders(addr)
	if err != nil {
		return 0, fmt.Errorf("netx: retire %s: %w", addr, err)
	}
	moved, err := cl.transfer(plan, headers, func(block blockcrypto.Hash, height uint64) ([]core.Move, error) {
		return retireMoves(plan, block, height, cl.replication)
	})
	if err != nil {
		return moved, fmt.Errorf("netx: retire %s: %w", addr, err)
	}
	if _, err := cl.PublishEpoch(ids, addrs); err != nil {
		return moved, err
	}
	return moved, nil
}

// retireMoves plans a retire for a block written at the given height on
// plan, whose current epoch leaves the leaver out and whose placement epoch
// is the one replaced: each staying member takes in the chunks MovesTo gives
// it that it did not own there. By rendezvous that is exactly the leaver's
// share, each chunk to the one member that gains it.
func retireMoves(plan core.EpochMap, block blockcrypto.Hash, height uint64, r int) ([]core.Move, error) {
	old := plan.PlacementAt(height)
	var out []core.Move
	for _, s := range plan.Current().Members {
		moves, err := plan.MovesTo(block, height, s, r)
		if err != nil {
			return nil, err
		}
		for _, mv := range moves {
			owners, err := old.Owners(block.Uint64(), mv.Index, r)
			if err != nil {
				return nil, err
			}
			if !slices.Contains(owners, s) {
				out = append(out, mv)
			}
		}
	}
	return out, nil
}

// RejoinMember re-provisions the member returning at addr after a graceful
// departure, as the identity the newest epoch listing addr gave it, with
// every chunk it owns once the current epoch takes it back
// (EpochMap.MovesTo), and publishes that membership as a new epoch. Returns
// the chunks transferred.
func (cl *Cluster) RejoinMember(addr string) (int, error) {
	m := cl.CurrentMap()
	id, ok := identity(m, addr)
	if !ok {
		return 0, fmt.Errorf("netx: %s is not a cluster member", addr)
	}
	cur := m.Current()
	ids, addrs := append(slices.Clone(cur.Members), id), append(slices.Clone(cur.Addrs), addr)
	transferred, err := cl.provision(m, addr, id, ids, addrs)
	if err != nil {
		return transferred, err
	}
	if _, err := cl.PublishEpoch(ids, addrs); err != nil {
		return transferred, err
	}
	return transferred, nil
}

// identity returns the placement identity the newest epoch of m that lists
// addr gives the member serving there.
func identity(m core.EpochMap, addr string) (simnet.NodeID, bool) {
	for i := len(m) - 1; i >= 0; i-- {
		if j := slices.Index(m[i].Addrs, addr); j >= 0 {
			return m[i].Members[j], true
		}
	}
	return 0, false
}
