package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/simnet"
)

// ErrBadMap rejects a cluster map that breaks the rules of EpochMap.Validate.
var ErrBadMap = errors.New("core: invalid cluster map")

// Epoch is one immutable entry of a cluster's epoch-versioned membership
// map: the member set that governs blocks written at or above FromHeight.
// A block written under an epoch has one chunk per member of it, and its
// chunks are placed by rendezvous hashing over those members' identities —
// not over addresses or positions, so a member that moves or rejoins keeps
// its chunks.
type Epoch struct {
	Seq        int             // position in the map; 0 is the genesis epoch
	FromHeight uint64          // first height governed by this epoch
	Members    []simnet.NodeID // placement identities, ascending
	Addrs      []string        // where each member serves, parallel to Members; nil in the simulator

	// ahead is how many epochs past Seq the chunks of blocks written under
	// this epoch have migrated (see EpochMap.AdvancePlacement). It never
	// crosses the wire: a map received from a peer places every block under
	// its write epoch.
	ahead int
}

// Owners returns the members that store chunk idx of the block with the
// given seed under this epoch, in rendezvous preference order. r is clamped
// to the member count: a cluster smaller than the replication factor keeps
// every chunk on every member.
func (e *Epoch) Owners(seed uint64, idx, r int) ([]simnet.NodeID, error) {
	return Owners(seed, e.Members, idx, min(r, len(e.Members)))
}

// Ranked returns every member in rendezvous preference order for chunk idx:
// the owners first, then the fallback order a leader walks when owners fail.
func (e *Epoch) Ranked(seed uint64, idx int) ([]simnet.NodeID, error) {
	return RankedMembers(seed, e.Members, idx)
}

// EpochMap is a cluster's membership history, oldest epoch first, and the
// only way the tree resolves which members a block's chunks live on. It is
// append-only: Push adds an epoch, nothing edits one. The simulator's
// clusters, netx servers and cluster clients, and the gateway upstream all
// hold one; the TCP side ships it whole (netx cluster-map opcodes), so any
// reader can resolve any historic block against the membership it was
// written under.
//
// A non-empty map is assumed valid (Validate): maps built by Push are, and
// maps from outside the process are validated where they enter.
type EpochMap []Epoch

// at returns the position of the epoch governing blocks at the given height:
// the last one with FromHeight <= height. Back-to-back epochs at one height
// shadow each other, last one wins — the shadowed epoch never governed a
// block. Epoch 0 starts at height 0, so the walk always resolves.
func (m EpochMap) at(height uint64) int {
	for i := len(m) - 1; i > 0; i-- {
		if m[i].FromHeight <= height {
			return i
		}
	}
	return 0
}

// At returns the epoch a block at the given height was written under: its
// members elected the leader and voted, and their count is the block's chunk
// count, fixed at write time. The pointer is good until the next Push.
func (m EpochMap) At(height uint64) *Epoch { return &m[m.at(height)] }

// Current returns the newest epoch.
func (m EpochMap) Current() *Epoch { return &m[len(m)-1] }

// PlacementAt returns the epoch whose rendezvous placement currently locates
// the chunks of a block written at the given height: the write epoch until a
// completed migration advanced it. Reads therefore resolve chunk sources
// against members that stored the chunks, never against a membership the
// data has not caught up with yet.
func (m EpochMap) PlacementAt(height uint64) *Epoch {
	i := m.at(height)
	return &m[i+m[i].ahead]
}

// Push appends an epoch governing blocks from fromHeight on and makes it
// current. members (and addrs, parallel to it, or nil) are snapshotted and
// sorted by identity. Blocks written under the new epoch place under it from
// the start; older epochs keep their placement until a migration completes
// and calls AdvancePlacement. A push that would break Validate — a
// fromHeight below the current epoch's, a repeated member — is refused and
// leaves the map as it was.
func (m *EpochMap) Push(fromHeight uint64, members []simnet.NodeID, addrs []string) (*Epoch, error) {
	e := Epoch{Seq: len(*m), FromHeight: fromHeight, Members: slices.Clone(members), Addrs: slices.Clone(addrs)}
	grown := append(*m, e)
	if err := grown.check(e.Seq); err != nil {
		return nil, err
	}
	sort.Sort(byIdentity(e)) // in place: e shares its slices with the appended copy
	*m = grown
	return m.Current(), nil
}

// byIdentity sorts an epoch's members, and their addresses with them.
type byIdentity Epoch

func (s byIdentity) Len() int           { return len(s.Members) }
func (s byIdentity) Less(i, j int) bool { return s.Members[i] < s.Members[j] }
func (s byIdentity) Swap(i, j int) {
	s.Members[i], s.Members[j] = s.Members[j], s.Members[i]
	if s.Addrs != nil {
		s.Addrs[i], s.Addrs[j] = s.Addrs[j], s.Addrs[i]
	}
}

// AdvancePlacement records that a completed migration (repair after a
// removal or a graceful leave, bootstrap after a join or rejoin) moved every
// block's chunks to the placement of epoch toSeq: all older epochs now
// resolve chunk locations against it. It is monotone — a late
// older migration never moves placement back — and epochs newer than toSeq,
// pushed while the migration ran, are left to their own migrations.
func (m EpochMap) AdvancePlacement(toSeq int) {
	if toSeq < 0 || toSeq >= len(m) {
		return
	}
	for i := range m[:toSeq] {
		m[i].ahead = max(m[i].ahead, toSeq-i)
	}
}

// Newer reports whether m supersedes other. Histories are append-only and
// epoch numbers positional, so the longer map is the newer one; an equally
// long map is a duplicate publish and changes nothing.
func (m EpochMap) Newer(other EpochMap) bool { return len(m) > len(other) }

// Validate checks what every method above assumes: at least one epoch;
// epoch i carries Seq i; epoch 0 starts at height 0 and FromHeight never
// decreases; every epoch has members, no identity twice (rendezvous would
// return one node for two replicas); and addresses, when present, are
// parallel to the members, non-empty and distinct within the epoch.
func (m EpochMap) Validate() error {
	if len(m) == 0 {
		return fmt.Errorf("%w: no epochs", ErrBadMap)
	}
	for i := range m {
		if err := m.check(i); err != nil {
			return err
		}
	}
	return nil
}

// check applies Validate's rules to epoch i, given that epoch i-1 passed.
func (m EpochMap) check(i int) error {
	e := &m[i]
	switch {
	case e.Seq != i:
		return fmt.Errorf("%w: epoch %d at position %d", ErrBadMap, e.Seq, i)
	case i == 0 && e.FromHeight != 0:
		return fmt.Errorf("%w: epoch 0 starts at height %d", ErrBadMap, e.FromHeight)
	case i > 0 && e.FromHeight < m[i-1].FromHeight:
		return fmt.Errorf("%w: epoch %d starts at height %d, below epoch %d at %d", ErrBadMap, i, e.FromHeight, i-1, m[i-1].FromHeight)
	case len(e.Members) == 0:
		return fmt.Errorf("%w: epoch %d has no members", ErrBadMap, i)
	case e.Addrs != nil && len(e.Addrs) != len(e.Members):
		return fmt.Errorf("%w: epoch %d has %d addresses for %d members", ErrBadMap, i, len(e.Addrs), len(e.Members))
	}
	for j, id := range e.Members {
		if slices.Contains(e.Members[:j], id) {
			return fmt.Errorf("%w: epoch %d lists member %d twice", ErrBadMap, i, id)
		}
	}
	for j, a := range e.Addrs {
		if a == "" || slices.Contains(e.Addrs[:j], a) {
			return fmt.Errorf("%w: epoch %d has empty or repeated address %q", ErrBadMap, i, a)
		}
	}
	return nil
}

// Holders returns who may hold chunk idx of a block written at the given
// height, in the order to ask them: its owners under the block's placement
// epoch — they stored the chunk when it was distributed or last migrated —
// then, without repeats, its owners under the current epoch, where a
// completed migration may already have copied it.
func (m EpochMap) Holders(seed uint64, idx, r int, height uint64) ([]simnet.NodeID, error) {
	place, cur := m.PlacementAt(height), m.Current()
	out, err := place.Owners(seed, idx, r)
	if err != nil || place == cur {
		return out, err
	}
	migrated, err := cur.Owners(seed, idx, r)
	if err != nil {
		return nil, err
	}
	for _, id := range migrated {
		if !slices.Contains(out, id) {
			out = append(out, id)
		}
	}
	return out, nil
}

// Move is one chunk copy a membership change calls for: chunk Index of
// Block, written at Height, goes to member To from the first member of From
// that serves it.
type Move struct {
	Block  blockcrypto.Hash
	Height uint64
	Index  int
	From   []simnet.NodeID
	To     simnet.NodeID
}

// MovesTo is the one rule for what a membership change moves, in the
// simulator and over TCP alike: every member that gains chunks pulls them,
// planned on a map the change's epoch was pushed onto, one block at a time.
// It returns the chunks of a block written at the given height that member
// self must take in (join, rejoin, resync, repair, and each staying member
// on a retire): every chunk it owns under Current(), of the block's chunk
// count under At(height), each from its holders (Holders), then from the
// other members of its placement epoch, which may keep a stale extra copy —
// never from self. A caller that knows what self already holds skips those.
func (m EpochMap) MovesTo(block blockcrypto.Hash, height uint64, self simnet.NodeID, r int) ([]Move, error) {
	seed, cur, place := block.Uint64(), m.Current(), m.PlacementAt(height)
	var moves []Move
	for idx := range m.At(height).Members {
		owners, err := cur.Owners(seed, idx, r)
		if err != nil {
			return nil, err
		}
		if !slices.Contains(owners, self) {
			continue
		}
		holders, err := m.Holders(seed, idx, r, height)
		if err != nil {
			return nil, err
		}
		moves = append(moves, Move{Block: block, Height: height, Index: idx, From: others(self, holders, place.Members), To: self})
	}
	return moves, nil
}

// Addr returns where member id serves: its address in the newest epoch that
// lists it (a departed member is still asked for pre-migration chunks), or
// "" when no epoch does.
func (m EpochMap) Addr(id simnet.NodeID) string {
	for i := len(m) - 1; i >= 0; i-- {
		if j := slices.Index(m[i].Members, id); j >= 0 && j < len(m[i].Addrs) {
			return m[i].Addrs[j]
		}
	}
	return ""
}

// fetchMembers returns the union of the current members and the placement
// members for a block at the given height, minus self — the peer set a
// broadcast read for that block asks. Pre-migration blocks live on
// placement-epoch members (some possibly departed and unreachable, which the
// fetch timeout logic tolerates); post-migration copies live on current
// members. The union is deterministic: current members in order, then
// placement-only members in order.
func (m EpochMap) fetchMembers(height uint64, self simnet.NodeID) []simnet.NodeID {
	return others(self, m.Current().Members, m.PlacementAt(height).Members)
}

// others returns the members of lists in order, each once, without self.
func others(self simnet.NodeID, lists ...[]simnet.NodeID) []simnet.NodeID {
	var out []simnet.NodeID
	for _, id := range slices.Concat(lists...) {
		if id != self && !slices.Contains(out, id) {
			out = append(out, id)
		}
	}
	return out
}
