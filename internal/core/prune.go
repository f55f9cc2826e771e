package core

import (
	"fmt"
	"slices"

	"icistrategy/internal/storage"
)

// PruneUnowned garbage-collects every chunk this node stores but no longer
// owns under the current membership and archival records. Membership
// changes hand chunks to new owners without deleting the old copies (the
// repair path wants those extra sources); pruning is the explicit second
// phase that reclaims the space once the cluster is healthy again. It
// returns the number of bytes freed.
func (n *Node) PruneUnowned() int64 {
	return n.store.GC(func(c storage.Chunk) bool {
		id := c.ID
		hdr, err := n.store.Header(id.Block)
		if err != nil {
			return false // orphaned chunk without a header: collect
		}
		if _, archived := n.cluster.archivedInfo(id.Block); archived {
			// Repair and bootstrap skip archived blocks, so nothing moves
			// a coded share: its holder is its owner, whoever
			// the current roster ranks first. A replicated chunk left over
			// from before archival is stale.
			return c.CodedK > 0
		}
		if id.Index >= len(n.cluster.At(hdr.Height).Members) {
			return false // impossible index under this epoch: collect
		}
		// Ownership is evaluated under the block's placement epoch, not
		// the current membership: until a migration completes and
		// advances placement, the pre-churn owners ARE where the data
		// lives, and collecting their copies would destroy the only
		// replicas. After the migration advances placement to the current
		// epoch, the stale copies stop being owned and get collected.
		owners, oerr := n.cluster.PlacementAt(hdr.Height).Owners(id.Block.Uint64(), id.Index, n.replication)
		if oerr != nil {
			return true
		}
		return slices.Contains(owners, n.id)
	})
}

// PruneCluster prunes every live member of cluster c and returns the total
// bytes reclaimed. Run it after joins/removals have been repaired; the
// intra-cluster integrity invariant is untouched because only redundant
// copies are collected.
func (s *System) PruneCluster(c int) (int64, error) {
	if c < 0 || c >= len(s.clusters) {
		return 0, fmt.Errorf("%w: %d", ErrUnknownCluster, c)
	}
	var freed int64
	for _, m := range s.clusters[c].Current().Members {
		if s.net.IsDown(m) {
			continue
		}
		freed += s.nodes[m].PruneUnowned()
	}
	return freed, nil
}
