package gateway

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/netx"
	"icistrategy/internal/simnet"
)

// Gateway errors.
var (
	ErrUnknownBlock = errors.New("gateway: unknown block")
	ErrIncomplete   = netx.ErrIncompleteBlock // netx.Gather's: every TCP read fails with the one value
)

// Upstream is the storage-cluster view the gateway reads through. The
// production implementation is ClusterUpstream (below) over the netx TCP
// protocol; tests substitute fakes to count and fault upstream traffic.
//
// A peer number is a member's placement identity (core.Epoch.Members): a
// membership change adds or drops identities but never renumbers one, so
// cached placement stays coherent across churn.
type Upstream interface {
	// Parts returns how many chunks the block was split into at write time
	// (the netx distribution convention: one chunk per member of the
	// membership epoch the block was written under).
	Parts(block blockcrypto.Hash) (int, error)
	// Owners returns the peers that may hold chunk idx of the block: its
	// write-epoch owners in rendezvous preference order, then any owners
	// the chunk migrated to under the newest epoch.
	Owners(block blockcrypto.Hash, idx int) ([]int, error)
	// Peers returns the current (newest-epoch) members, for operations that
	// address the live cluster rather than one block's placement.
	Peers() []int
	// Refresh re-fetches the cluster map from the live members and reports
	// whether a newer membership was adopted — the recovery path when a
	// read misses because the local map went stale.
	Refresh() bool
	// Header resolves a block hash to its header.
	Header(block blockcrypto.Hash) (chain.Header, error)
	// FetchBatch fetches chunks from one peer in a single round trip; the
	// response answers position-for-position with Found flags.
	FetchBatch(peer int, refs []netx.ChunkRef) (*netx.ChunkBatchResp, error)
	// TxProof asks one peer for a transaction plus its stored Merkle proof.
	TxProof(peer int, block, txID blockcrypto.Hash) (*netx.TxProofResp, error)
}

// ClusterUpstream reads from a netx storage cluster through a netx.Cluster
// — its connection cache and its cluster-map poll — with the placement the
// writers used (core.EpochMap) and a local header index kept fresh by
// incremental header syncs.
//
// Membership is epoch-versioned: the upstream reads the netx.Cluster's map,
// which starts from the constructor roster as epoch 0 and takes any newer
// cluster map published to the servers (see netx.SetClusterMap). Blocks
// resolve their placement against the epoch they were written under, so
// reads of pre-churn history keep working after members join or retire.
// A peer is a member identity of that map, and the map says where it
// serves.
type ClusterUpstream struct {
	replication int
	cl          *netx.Cluster

	hmu        sync.Mutex
	headers    map[blockcrypto.Hash]chain.Header
	nextHeight uint64
}

// NewClusterUpstream wires an upstream over the cluster's server addresses;
// replication must match the value blocks were distributed with. The
// upstream reads by the map netx.NewCluster starts from: the published
// cluster map when a member serves one, else the given addresses as epoch 0,
// identity i at addrs[i]. Later epochs arrive via Refresh.
func NewClusterUpstream(addrs []string, replication int) (*ClusterUpstream, error) {
	cl, err := netx.NewCluster(addrs, replication)
	if err != nil {
		return nil, fmt.Errorf("gateway: %w", err)
	}
	return &ClusterUpstream{
		replication: replication,
		cl:          cl,
		headers:     make(map[blockcrypto.Hash]chain.Header),
	}, nil
}

// SetTimeout sets the per-round-trip deadline for upstream calls.
func (u *ClusterUpstream) SetTimeout(d time.Duration) { u.cl.SetTimeout(d) }

// Close drops every cached connection.
func (u *ClusterUpstream) Close() { u.cl.Close() }

// Parts implements Upstream: the chunk count of the membership epoch the
// block was written under.
func (u *ClusterUpstream) Parts(block blockcrypto.Hash) (int, error) {
	hdr, err := u.Header(block)
	if err != nil {
		return 0, err
	}
	return len(u.cl.Map().At(hdr.Height).Members), nil
}

// Owners implements Upstream: the chunk's holders under the cluster's map
// (core.EpochMap.Holders), as peer numbers.
func (u *ClusterUpstream) Owners(block blockcrypto.Hash, idx int) ([]int, error) {
	hdr, err := u.Header(block)
	if err != nil {
		return nil, err
	}
	holders, err := u.cl.Map().Holders(block.Uint64(), idx, u.replication, hdr.Height)
	if err != nil {
		return nil, err
	}
	return peers(holders), nil
}

// Peers implements Upstream: the newest epoch's members.
func (u *ClusterUpstream) Peers() []int { return peers(u.cl.Map().Current().Members) }

// peers returns member identities as peer numbers.
func peers(ids []simnet.NodeID) []int {
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = int(id)
	}
	return out
}

// Refresh implements Upstream: have the cluster poll every member it knows
// of for a newer valid map and keep it. Returns true when membership
// advanced — the caller's cue to retry a read that missed under the stale
// map.
func (u *ClusterUpstream) Refresh() bool {
	before := u.cl.Map()
	return u.cl.CurrentMap().Newer(before)
}

// call runs f on the cluster's cached connection to peer (netx.Cluster.Call),
// where the newest epoch listing the peer has it serve.
func (u *ClusterUpstream) call(peer int, f func(*netx.Client) error) error {
	addr := u.cl.Map().Addr(simnet.NodeID(peer))
	if addr == "" {
		return fmt.Errorf("gateway: peer %d is in no epoch of the cluster map", peer)
	}
	return u.cl.Call(addr, 0, f)
}

// FetchBatch implements Upstream.
func (u *ClusterUpstream) FetchBatch(peer int, refs []netx.ChunkRef) (resp *netx.ChunkBatchResp, err error) {
	err = u.call(peer, func(c *netx.Client) (err error) {
		resp, err = c.GetChunkBatch(refs)
		return err
	})
	return resp, err
}

// TxProof implements Upstream.
func (u *ClusterUpstream) TxProof(peer int, block, txID blockcrypto.Hash) (resp *netx.TxProofResp, err error) {
	err = u.call(peer, func(c *netx.Client) (err error) {
		resp, err = c.GetTxProof(block, txID)
		return err
	})
	return resp, err
}

// Header implements Upstream: a local index miss triggers an incremental
// header sync (every header at or above the highest height seen) from the
// live members in turn, until one knows the block: one that answers without
// it — restarted empty, or behind the others — does not end the search.
func (u *ClusterUpstream) Header(block blockcrypto.Hash) (chain.Header, error) {
	u.hmu.Lock()
	h, ok := u.headers[block]
	from := u.nextHeight
	u.hmu.Unlock()
	if ok {
		return h, nil // every call of a read but its first: no peer list is built
	}
	var down error // why the last member asked did not answer; nil when it did
	for _, peer := range u.Peers() {
		if ok {
			break
		}
		var hdrs []chain.Header
		if err := u.call(peer, func(c *netx.Client) (err error) {
			hdrs, err = c.GetHeaders(from)
			return err
		}); err != nil {
			down = err
			continue
		}
		u.hmu.Lock()
		for _, h := range hdrs {
			u.headers[h.Hash()] = h
			u.nextHeight = max(u.nextHeight, h.Height+1)
		}
		h, ok = u.headers[block]
		from, down = u.nextHeight, nil
		u.hmu.Unlock()
	}
	switch {
	case ok:
		return h, nil
	case down != nil:
		return chain.Header{}, fmt.Errorf("gateway: header sync: %w", down)
	}
	return chain.Header{}, fmt.Errorf("%w: %s", ErrUnknownBlock, block.Short())
}
