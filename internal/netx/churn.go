package netx

import (
	"fmt"
	"slices"

	"icistrategy/internal/core"
)

// GetClusterMap fetches the server's epoch-versioned cluster map; an empty
// slice means no map was ever published to that server.
func (c *Client) GetClusterMap() ([]EpochInfo, error) {
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
func (c *Client) SetClusterMap(epochs []EpochInfo) error {
	resp, err := c.roundTrip(&Request{SetClusterMap: &SetClusterMapReq{Epochs: epochs}})
	if err != nil {
		return err
	}
	return respError(resp)
}

// baseEpoch synthesizes the genesis epoch from the cluster's constructor
// membership — the map every deployment implicitly runs under before any
// churn is published.
func (cl *Cluster) baseEpoch() EpochInfo {
	members := make([]MemberInfo, len(cl.addrs))
	for i, addr := range cl.addrs {
		members[i] = MemberInfo{ID: uint64(cl.ids[i]), Addr: addr}
	}
	return EpochInfo{Epoch: 0, FromHeight: 0, Members: members}
}

// currentMap gathers the newest published cluster map reachable in the
// cluster, falling back to the synthesized genesis epoch when nobody holds
// one. Polling every member (not just the first) tolerates members that
// missed an earlier publish.
func (cl *Cluster) currentMap() []EpochInfo {
	best := []EpochInfo{cl.baseEpoch()}
	for _, addr := range cl.addrs {
		c, err := cl.client(addr)
		if err != nil {
			continue
		}
		epochs, err := c.GetClusterMap()
		if err != nil {
			cl.dropClient(addr, c)
			continue
		}
		if len(epochs) > len(best) { // epoch numbers are positional
			best = epochs
		}
	}
	return best
}

// maxHeight reports the highest header height any reachable member holds.
// Each member is asked only for headers at or above the best height seen so
// far, so one member sends the chain and the rest send their tails.
func (cl *Cluster) maxHeight() (uint64, bool) {
	var top uint64
	found := false
	for _, addr := range cl.addrs {
		c, err := cl.client(addr)
		if err != nil {
			continue
		}
		headers, err := c.GetHeaders(top)
		if err != nil {
			cl.dropClient(addr, c)
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
// updated map to every reachable member of both the old and new rosters.
// The epoch governs blocks written above the highest header currently held,
// so in-flight history keeps resolving against its write-time membership.
// Returns the new epoch number.
func (cl *Cluster) PublishEpoch(members []MemberInfo) (int, error) {
	if len(members) == 0 {
		return 0, fmt.Errorf("netx: publish epoch with no members")
	}
	epochs := cl.currentMap()
	var from uint64
	if h, ok := cl.maxHeight(); ok {
		from = h + 1
	}
	next := EpochInfo{
		Epoch:      len(epochs),
		FromHeight: from,
		Members:    append([]MemberInfo(nil), members...),
	}
	epochs = append(epochs, next)

	targets := make(map[string]bool, len(cl.addrs)+len(members))
	for _, addr := range cl.addrs {
		targets[addr] = true
	}
	for _, m := range members {
		targets[m.Addr] = true
	}
	published := 0
	for addr := range targets {
		c, err := cl.client(addr)
		if err != nil {
			continue
		}
		if err := c.SetClusterMap(epochs); err != nil {
			cl.dropClient(addr, c)
			continue
		}
		published++
	}
	if published == 0 {
		return 0, fmt.Errorf("netx: cluster map epoch %d reached no member", next.Epoch)
	}
	return next.Epoch, nil
}

// RetireMember gracefully removes the member serving at addr from a cluster
// whose full current membership this Cluster was built over. Every chunk
// the leaver holds whose ownership shifts under the shrunk membership is
// pushed to the gaining owners (the receiving server verifies on write),
// and the shrunk epoch is then published cluster-wide so readers and
// gateways learn the new roster. Chunks that keep an owner under the old
// placement stay put: rendezvous hashing only promotes on removal, so the
// transfer set is exactly the leaver's displaced replicas. Returns the
// number of chunks moved.
func (cl *Cluster) RetireMember(addr string) (int, error) {
	li := slices.Index(cl.addrs, addr)
	if li < 0 {
		return 0, fmt.Errorf("netx: %s is not a cluster member", addr)
	}
	if len(cl.addrs) == 1 {
		return 0, fmt.Errorf("netx: cannot retire the last member")
	}
	shrunkIDs := slices.Delete(slices.Clone(cl.ids), li, li+1)
	remaining := slices.Delete(cl.baseEpoch().Members, li, li+1)
	r := min(cl.replication, len(shrunkIDs))

	leaver, err := cl.client(addr)
	if err != nil {
		return 0, fmt.Errorf("netx: retire %s: %w", addr, err)
	}
	headers, err := leaver.GetHeaders(0)
	if err != nil {
		cl.dropClient(addr, leaver)
		return 0, fmt.Errorf("netx: retire %s: headers: %w", addr, err)
	}
	moved, err := cl.transfer(func(emit func(chunkMove) bool) error {
		for _, hdr := range headers {
			block := hdr.Hash()
			resp, err := leaver.GetBlockChunks(block)
			if err != nil {
				cl.dropClient(addr, leaver)
				return fmt.Errorf("chunks of %x: %w", block[:4], err)
			}
			seed := block.Uint64()
			for i := range resp.Chunks {
				chk := &resp.Chunks[i]
				oldOwners, err := core.Owners(seed, cl.ids, chk.Index, cl.replication)
				if err != nil {
					return err
				}
				newOwners, err := core.Owners(seed, shrunkIDs, chk.Index, r)
				if err != nil {
					return err
				}
				var gainers []string
				for _, o := range newOwners {
					if !slices.Contains(oldOwners, o) {
						gainers = append(gainers, cl.addrs[int(o)])
					}
				}
				if len(gainers) > 0 && !emit(chunkMove{block: block, index: chk.Index, chunk: chk, to: gainers}) {
					return nil
				}
			}
		}
		return nil
	})
	if err != nil {
		return moved, fmt.Errorf("netx: retire %s: %w", addr, err)
	}
	if _, err := cl.PublishEpoch(remaining); err != nil {
		return moved, err
	}
	return moved, nil
}

// epochForMap resolves the epoch governing a write height in a cluster map:
// the last entry whose FromHeight does not exceed it (back-to-back epochs
// at one height resolve to the later — same arithmetic as core).
func epochForMap(epochs []EpochInfo, height uint64) EpochInfo {
	for i := len(epochs) - 1; i > 0; i-- {
		if epochs[i].FromHeight <= height {
			return epochs[i]
		}
	}
	return epochs[0]
}

// RejoinMember re-provisions a member returning after a graceful departure
// and publishes the restored membership as a new epoch. cl must span the
// full post-rejoin membership including addr. Unlike ResyncMember, every
// block is resolved against the epoch it was written under — blocks
// distributed while the member was away have fewer parts, and their chunks
// may have migrated to new owners — so the rejoiner receives exactly the
// chunks it owns under the restored membership, fetched from either their
// write-epoch or post-migration holders. Returns the chunks transferred.
func (cl *Cluster) RejoinMember(addr string) (int, error) {
	li := slices.Index(cl.addrs, addr)
	if li < 0 {
		return 0, fmt.Errorf("netx: %s is not a cluster member", addr)
	}
	// Ownership is decided under the restored roster cl.ids; the chunks come
	// from each block's write-epoch members.
	transferred, err := cl.provisionMember(addr, cl.ids[li], cl.ids, cl.currentMap())
	if err != nil {
		return transferred, err
	}
	if _, err := cl.PublishEpoch(cl.baseEpoch().Members); err != nil {
		return transferred, err
	}
	return transferred, nil
}
