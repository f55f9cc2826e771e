// Package epochstore is the epochres golden fixture: it reproduces the
// PR-8 stale-placement bug — ranking owners over a bare member slice for a
// block whose chunks were placed under an earlier membership epoch — next
// to the shapes that name their epoch and must stay silent.
package epochstore

type NodeID string

// Owners mirrors core.Owners: the free rendezvous function.
func Owners(blockSeed uint64, members []NodeID, chunkIdx, r int) []NodeID {
	return members
}

// RankedMembers mirrors core.RankedMembers.
func RankedMembers(blockSeed uint64, members []NodeID, chunkIdx int) []NodeID {
	return members
}

// IsOwner mirrors core.IsOwner; the free functions may call each other.
func IsOwner(blockSeed uint64, members []NodeID, chunkIdx, r int, node NodeID) bool {
	owners := Owners(blockSeed, members, chunkIdx, r)
	return len(owners) > 0 && owners[0] == node
}

// Epoch mirrors core.Epoch: the roster frozen at the epoch's start height.
type Epoch struct {
	FromHeight uint64
	Members    []NodeID
}

// Owners is the epoch type's own placement read: allowed to call the free
// function.
func (e *Epoch) Owners(seed uint64, idx, r int) []NodeID {
	return Owners(seed, e.Members, idx, r)
}

// EpochMap mirrors core.EpochMap.
type EpochMap []Epoch

func (m EpochMap) At(height uint64) *Epoch {
	for i := len(m) - 1; i > 0; i-- {
		if m[i].FromHeight <= height {
			return &m[i]
		}
	}
	return &m[0]
}

func (m EpochMap) Current() *Epoch { return &m[len(m)-1] }

// Holders is a map method: allowed.
func (m EpochMap) Holders(seed uint64, idx, r int, height uint64) []NodeID {
	return append(Owners(seed, m.At(height).Members, idx, r), RankedMembers(seed, m.Current().Members, idx)...)
}

// Accountant mirrors core.Accountant: a static network, no epochs.
type Accountant struct{ ids []NodeID }

func (a *Accountant) Account(seed uint64) []NodeID { return Owners(seed, a.ids, 0, 2) }

// cluster mirrors a type that holds a map plus a roster of its own.
type cluster struct {
	EpochMap
	ids []NodeID
}

// Retrieve is the historical bug verbatim: the live roster ranked for a
// block that may predate it, so after churn it asks nodes that never held
// the chunks.
func (c *cluster) Retrieve(seed uint64, height uint64, idx int) []NodeID {
	return Owners(seed, c.Current().Members, idx, 2) // want `bare member slice`
}

// RetrieveIDs uses a roster field of its own; same bug.
func (c *cluster) RetrieveIDs(seed uint64, idx int) []NodeID {
	return RankedMembers(seed, c.ids, idx) // want `bare member slice`
}

// RetrieveResolved resolves the right members and still goes around the
// type: the slice no longer says which epoch it came from.
func (c *cluster) RetrieveResolved(seed uint64, height uint64, idx int) bool {
	return IsOwner(seed, c.At(height).Members, idx, 2, "n1") // want `bare member slice`
}

// helper hides the roster behind a parameter; still a bare slice.
func helper(seed uint64, members []NodeID) []NodeID {
	return Owners(seed, members, 0, 2) // want `bare member slice`
}

// RetrieveFixed is the fix shape: the epoch the block was written under is
// named, and the epoch type does the ranking.
func (c *cluster) RetrieveFixed(seed uint64, height uint64, idx int) []NodeID {
	return c.At(height).Owners(seed, idx, 2)
}

// Place is a write path: it places under the current epoch and says so.
func (c *cluster) Place(seed uint64, idx int) []NodeID {
	return c.Current().Owners(seed, idx, 2)
}

// Both resolves through the map.
func (c *cluster) Both(seed uint64, height uint64, idx int) []NodeID {
	return c.Holders(seed, idx, 2, height)
}

// RetrieveAllowed documents an intentional bare ranking.
func (c *cluster) RetrieveAllowed(seed uint64, idx int) []NodeID {
	//icilint:allow epochres(probe deliberately ranks a roster no epoch ever held)
	return Owners(seed, c.ids, idx, 2)
}
