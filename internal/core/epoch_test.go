package core

import (
	"encoding/binary"
	"errors"
	"reflect"
	"slices"
	"testing"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/simnet"
)

func epochIDs(ns ...uint64) []simnet.NodeID {
	out := make([]simnet.NodeID, len(ns))
	for i, n := range ns {
		out[i] = simnet.NodeID(n)
	}
	return out
}

// pushed builds a map by Push, one (fromHeight, members) pair per epoch.
func pushed(t *testing.T, epochs ...Epoch) EpochMap {
	t.Helper()
	var m EpochMap
	for _, e := range epochs {
		if _, err := m.Push(e.FromHeight, e.Members, e.Addrs); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func at(from uint64, ids ...uint64) Epoch { return Epoch{FromHeight: from, Members: epochIDs(ids...)} }

// TestEpochMapResolution is the one boundary suite for the one resolver:
// every map shape the simulator, netx and the gateway used to test against
// their own copies of the arithmetic, then the placement cursor on top.
func TestEpochMapResolution(t *testing.T) {
	type probe struct {
		height    uint64
		seq       int // At(height).Seq
		parts     int // len(At(height).Members)
		placedSeq int // PlacementAt(height).Seq
	}
	cases := []struct {
		name    string
		epochs  []Epoch
		advance []int // AdvancePlacement calls, in order
		current int   // Current().Seq
		probes  []probe
	}{
		{
			name:    "single epoch governs every height",
			epochs:  []Epoch{at(0, 0, 1, 2)},
			current: 0,
			probes:  []probe{{0, 0, 3, 0}, {1 << 40, 0, 3, 0}},
		},
		{
			// A block exactly at FromHeight is governed by the new epoch;
			// the block one below stays with the old one.
			name:    "boundary belongs to the new epoch",
			epochs:  []Epoch{at(0, 0, 1, 2, 3), at(5, 0, 1, 2)},
			current: 1,
			probes:  []probe{{0, 0, 4, 0}, {4, 0, 4, 0}, {5, 1, 3, 1}, {6, 1, 3, 1}, {1 << 40, 1, 3, 1}},
		},
		{
			// Two membership changes before any block lands between them:
			// the shadowed epoch never governed a block.
			name:    "back-to-back epochs at one height: last wins",
			epochs:  []Epoch{at(0, 0, 1, 2, 3), at(7, 0, 1, 2), at(7, 0, 1, 2, 4, 5)},
			current: 2,
			probes:  []probe{{0, 0, 4, 0}, {6, 0, 4, 0}, {7, 2, 5, 2}, {8, 2, 5, 2}, {19, 2, 5, 2}},
		},
		{
			// The first publish after an empty chain: epoch 1 from height 0
			// shadows the genesis epoch everywhere.
			name:    "second epoch from height 0",
			epochs:  []Epoch{at(0, 0, 1), at(0, 0)},
			current: 1,
			probes:  []probe{{0, 1, 1, 1}, {9, 1, 1, 1}},
		},
		{
			name:    "fresh epochs place under themselves",
			epochs:  []Epoch{at(0, 0, 1, 2, 3), at(3, 0, 1, 2), at(6, 0, 1, 2, 4)},
			current: 2,
			probes:  []probe{{0, 0, 4, 0}, {3, 1, 3, 1}, {6, 2, 4, 2}},
		},
		{
			// Migrating to epoch 1 moves epoch 0's placement but not epoch
			// 2's; the write epoch (leader, votes, chunk count) never moves.
			name:    "advance moves older epochs only",
			epochs:  []Epoch{at(0, 0, 1, 2, 3), at(3, 0, 1, 2), at(6, 0, 1, 2, 4)},
			advance: []int{1},
			current: 2,
			probes:  []probe{{0, 0, 4, 1}, {3, 1, 3, 1}, {6, 2, 4, 2}},
		},
		{
			// An older migration completing late cannot roll placement
			// back, and out-of-range targets are ignored.
			name:    "advance is monotone and bounds-checked",
			epochs:  []Epoch{at(0, 0, 1, 2, 3), at(3, 0, 1, 2), at(6, 0, 1, 2, 4)},
			advance: []int{1, 2, 1, 99, -1},
			current: 2,
			probes:  []probe{{0, 0, 4, 2}, {3, 1, 3, 2}, {6, 2, 4, 2}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := pushed(t, tc.epochs...)
			if err := m.Validate(); err != nil {
				t.Fatalf("pushed map invalid: %v", err)
			}
			for _, to := range tc.advance {
				m.AdvancePlacement(to)
			}
			if got := m.Current().Seq; got != tc.current {
				t.Fatalf("Current().Seq = %d, want %d", got, tc.current)
			}
			for _, p := range tc.probes {
				e := m.At(p.height)
				if e.Seq != p.seq || len(e.Members) != p.parts {
					t.Errorf("At(%d) = seq %d with %d members, want seq %d with %d", p.height, e.Seq, len(e.Members), p.seq, p.parts)
				}
				if got := m.PlacementAt(p.height).Seq; got != p.placedSeq {
					t.Errorf("PlacementAt(%d).Seq = %d, want %d", p.height, got, p.placedSeq)
				}
			}
		})
	}
}

func TestEpochMapPush(t *testing.T) {
	// Members and their addresses are snapshotted and sorted together.
	ids, addrs := epochIDs(2, 0, 1), []string{"c", "a", "b"}
	var m EpochMap
	e, err := m.Push(0, ids, addrs)
	if err != nil {
		t.Fatal(err)
	}
	ids[0], addrs[0] = 9, "z"
	if !slices.Equal(e.Members, epochIDs(0, 1, 2)) || !slices.Equal(e.Addrs, []string{"a", "b", "c"}) {
		t.Fatalf("pushed epoch = %v at %v, want ids 0 1 2 at a b c", e.Members, e.Addrs)
	}
	if _, err := m.Push(9, epochIDs(0, 1), []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	// A refused push leaves the map as it was.
	refused := []struct {
		name string
		from uint64
		ids  []simnet.NodeID
		addr []string
	}{
		{"from height below the current epoch's", 8, epochIDs(0), []string{"a"}},
		{"no members", 9, nil, nil},
		{"repeated member", 9, epochIDs(1, 1), []string{"a", "b"}},
		{"repeated address", 9, epochIDs(0, 1), []string{"a", "a"}},
		{"addresses not parallel", 9, epochIDs(0, 1), []string{"a"}},
	}
	for _, tc := range refused {
		if _, err := m.Push(tc.from, tc.ids, tc.addr); !errors.Is(err, ErrBadMap) {
			t.Errorf("%s: err = %v, want ErrBadMap", tc.name, err)
		}
		if len(m) != 2 || m.Current().FromHeight != 9 {
			t.Fatalf("%s: refused push changed the map: %+v", tc.name, m)
		}
	}
	var fresh EpochMap
	if _, err := fresh.Push(3, epochIDs(0), nil); !errors.Is(err, ErrBadMap) {
		t.Fatalf("epoch 0 from height 3: err = %v, want ErrBadMap", err)
	}
}

func TestEpochMapNewer(t *testing.T) {
	one := pushed(t, at(0, 1, 2, 3))
	two := pushed(t, at(0, 1, 2, 3), at(9, 1, 2))
	cases := []struct {
		name string
		a, b EpochMap
		want bool
	}{
		{"any map beats none", one, nil, true},
		{"none beats nothing", nil, one, false},
		{"longer history wins", two, one, true},
		{"stale publish loses", one, two, false},
		{"duplicate publish changes nothing", two, slices.Clone(two), false},
	}
	for _, tc := range cases {
		if got := tc.a.Newer(tc.b); got != tc.want {
			t.Errorf("%s: Newer = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestEpochMapValidate(t *testing.T) {
	ep := func(seq int, from uint64, addrs []string, ids ...uint64) Epoch {
		return Epoch{Seq: seq, FromHeight: from, Members: epochIDs(ids...), Addrs: addrs}
	}
	ok := []struct {
		name string
		m    EpochMap
	}{
		{"simulator map without addresses", EpochMap{ep(0, 0, nil, 1, 2), ep(1, 4, nil, 1)}},
		{"wire map, members in publish order", EpochMap{ep(0, 0, []string{"a", "b"}, 7, 3), ep(1, 0, []string{"b"}, 3)}},
		{"a member may change address between epochs", EpochMap{ep(0, 0, []string{"a"}, 1), ep(1, 2, []string{"b"}, 1)}},
	}
	for _, tc := range ok {
		if err := tc.m.Validate(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
	bad := []struct {
		name string
		m    EpochMap
	}{
		{"empty", nil},
		{"nonpositional", EpochMap{ep(1, 0, nil, 1)}},
		{"gap", EpochMap{ep(0, 0, nil, 1), ep(2, 4, nil, 1)}},
		{"memberless epoch", EpochMap{{Seq: 0}}},
		{"memberless later epoch", EpochMap{ep(0, 0, nil, 1), {Seq: 1, FromHeight: 3}}},
		{"epoch 0 above height 0", EpochMap{ep(0, 5, nil, 1)}},
		{"from height decreases", EpochMap{ep(0, 0, nil, 1), ep(1, 9, nil, 1), ep(2, 8, nil, 1)}},
		{"member listed twice", EpochMap{ep(0, 0, nil, 1, 2, 1)}},
		{"address listed twice", EpochMap{ep(0, 0, []string{"x", "x"}, 1, 2)}},
		{"empty address", EpochMap{ep(0, 0, []string{"x", ""}, 1, 2)}},
		{"addresses not parallel to members", EpochMap{ep(0, 0, []string{"x"}, 1, 2)}},
	}
	for _, tc := range bad {
		if err := tc.m.Validate(); !errors.Is(err, ErrBadMap) {
			t.Errorf("%s: err = %v, want ErrBadMap", tc.name, err)
		}
	}
}

// TestEpochOwnersAndHolders checks the two placement reads against the free
// rendezvous function they wrap.
func TestEpochOwnersAndHolders(t *testing.T) {
	const seed, r = 0xfeed, 2
	old, shrunk := epochIDs(0, 1, 2, 3), epochIDs(0, 1, 2)
	m := pushed(t, at(0, 0, 1, 2, 3), at(4, 0, 1, 2)) // node 3 departed, not yet migrated

	for idx := 0; idx < 4; idx++ {
		want, err := Owners(seed, old, idx, r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.At(0).Owners(seed, idx, r)
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("At(0).Owners(%d) = %v, %v; want %v", idx, got, err, want)
		}
		// r is clamped to the member count, where the free function refuses.
		all, err := m.At(0).Owners(seed, idx, 9)
		ranked, _ := m.At(0).Ranked(seed, idx)
		if err != nil || !slices.Equal(all, ranked) {
			t.Fatalf("Owners clamped = %v, %v; want the full ranking %v", all, err, ranked)
		}

		// A pre-churn block: placement owners first, then the owners it
		// migrates to, no member twice.
		migrated, _ := Owners(seed, shrunk, idx, r)
		wantHolders := slices.Clone(want)
		for _, id := range migrated {
			if !slices.Contains(wantHolders, id) {
				wantHolders = append(wantHolders, id)
			}
		}
		got, err = m.Holders(seed, idx, r, 0)
		if err != nil || !slices.Equal(got, wantHolders) {
			t.Fatalf("Holders(%d, height 0) = %v, %v; want %v", idx, got, err, wantHolders)
		}
		// A block written under the current epoch has one owner set.
		got, err = m.Holders(seed, idx, r, 4)
		if err != nil || !slices.Equal(got, migrated) {
			t.Fatalf("Holders(%d, height 4) = %v, %v; want %v", idx, got, err, migrated)
		}
	}
	// After the migration, old blocks resolve to the current owners alone.
	m.AdvancePlacement(1)
	for idx := 0; idx < 4; idx++ {
		want, _ := Owners(seed, shrunk, idx, r)
		if got, err := m.Holders(seed, idx, r, 0); err != nil || !slices.Equal(got, want) {
			t.Fatalf("Holders(%d) after migration = %v, %v; want %v", idx, got, err, want)
		}
	}
	if _, err := m.Holders(seed, 0, 0, 0); err == nil {
		t.Fatal("Holders accepted replication 0")
	}
}

// seededBlock returns a block hash whose placement seed (Hash.Uint64) is seed.
func seededBlock(seed uint64) blockcrypto.Hash {
	var h blockcrypto.Hash
	binary.BigEndian.PutUint64(h[:], seed)
	return h
}

// TestMembershipMoves is the one table for the rule both drivers plan every
// membership change by. Every row plans the same block, seed 0x3c6e…f82a,
// whose r = 2 owners are, chunk by chunk:
//
//	members 0 1 2 3:     [0 2] [1 3] [3 2] [0 2]
//	members 0 1 2:       [0 2] [1 0] [2 1] [0 2]
//	members 0 1:         [0 1] [1 0] [1 0] [0 1]
//	members 0 1 5:       [0 5] [5 1] [5 1] [0 1]
//	members 0 1 2 3 4:   [4 0] [1 3] [3 2] [4 0] [2 1]
//	members 0 1 3 4:     [4 0] [1 3] [3 4] [4 0]
//
// A chunk's sources are its owners under the placement epoch, then its
// current owners, then the rest of the placement members, never the member
// taking it in. A retire row plans the pulls of every member of the
// current epoch — the retire's plan: each takes the chunks MovesTo gives it
// that it did not own under the placement epoch.
func TestMembershipMoves(t *testing.T) {
	rejoined := []Epoch{at(0, 0, 1, 2, 3), at(4, 0, 1, 2), at(6, 0, 1, 2, 3)}
	departed := []Epoch{at(0, 0, 1, 2, 3), at(4, 0, 1), at(6, 0, 1, 5)}
	grown := []Epoch{at(0, 0, 1, 2, 3), at(4, 0, 1, 2, 3, 4), at(6, 0, 1, 3, 4)}
	cases := []struct {
		name    string
		epochs  []Epoch
		advance int // AdvancePlacement target; 0 moves nothing
		r       int
		height  uint64
		member  simnet.NodeID // MovesTo(member); unused by a retire row
		retire  bool
		want    []Move
	}{
		{
			// Epoch 1 never governed a block: the block has five chunks, and
			// member 4 owns two of them.
			name:   "a block under an epoch shadowed at its own height",
			epochs: []Epoch{at(0, 0, 1, 2, 3), at(5, 0, 1, 2), at(5, 0, 1, 2, 3, 4)},
			r:      2, height: 5, member: 4,
			want: []Move{{Index: 0, From: epochIDs(0, 1, 2, 3)}, {Index: 3, From: epochIDs(0, 1, 2, 3)}},
		},
		{
			// Members 2 and 3 left and nothing migrated: they are still the
			// first to ask for chunk 2, then the co-owner, then the rest.
			name:   "a chunk whose write-epoch owners have all departed",
			epochs: departed,
			r:      2, height: 0, member: 5,
			want: []Move{{Index: 0, From: epochIDs(0, 2, 1, 3)}, {Index: 1, From: epochIDs(1, 3, 0, 2)}, {Index: 2, From: epochIDs(3, 2, 1, 0)}},
		},
		{
			name:    "the same chunk once their departure migrated",
			epochs:  departed,
			advance: 1,
			r:       2, height: 0, member: 5,
			want: []Move{{Index: 0, From: epochIDs(0, 1)}, {Index: 1, From: epochIDs(1, 0)}, {Index: 2, From: epochIDs(1, 0)}},
		},
		{
			// r = 3 over two members: both own every chunk.
			name:   "r clamped by a small epoch",
			epochs: []Epoch{at(0, 0, 1)},
			r:      3, height: 0, member: 1,
			want: []Move{{Index: 0, From: epochIDs(0)}, {Index: 1, From: epochIDs(0)}},
		},
		{
			// Every member of three already holds every chunk.
			name:   "r clamped: leaving a cluster no larger than r moves nothing",
			epochs: []Epoch{at(0, 0, 1, 2), at(2, 0, 1)},
			r:      3, height: 0, retire: true,
		},
		{
			// Member 3 owned chunks 1 and 2 when the block was written; it is
			// never its own source.
			name:   "a rejoiner, placement not advanced",
			epochs: rejoined,
			r:      2, height: 0, member: 3,
			want: []Move{{Index: 1, From: epochIDs(1, 0, 2)}, {Index: 2, From: epochIDs(2, 0, 1)}},
		},
		{
			name:    "a rejoiner, placement advanced past its departure",
			epochs:  rejoined,
			advance: 1,
			r:       2, height: 0, member: 3,
			want: []Move{{Index: 1, From: epochIDs(1, 0, 2)}, {Index: 2, From: epochIDs(2, 1, 0)}},
		},
		{
			// Written while member 3 was away: three chunks, sourced from
			// the three members that wrote it.
			name:   "a member absent from the block's write epoch",
			epochs: rejoined,
			r:      2, height: 4, member: 3,
			want: []Move{{Index: 1, From: epochIDs(1, 0, 2)}, {Index: 2, From: epochIDs(2, 1, 0)}},
		},
		{
			// Member 3 leaves: chunks 1 and 2 were its own, and the member
			// that gains each pulls it, from member 3 among the other holders.
			name:   "a leaver hands out what it owned",
			epochs: []Epoch{at(0, 0, 1, 2, 3), at(4, 0, 1, 2)},
			r:      2, height: 0, retire: true,
			want: []Move{{Index: 1, From: epochIDs(1, 3, 2), To: 0}, {Index: 2, From: epochIDs(3, 2, 0), To: 1}},
		},
		{
			// Member 2 leaves. Member 4's join migrated chunks 0 and 3 away
			// from it, which keeps stale copies of them: only chunk 2 was
			// still its own, and only chunk 2 moves.
			name:    "a leaver that holds a stale copy it does not own",
			epochs:  grown,
			advance: 1,
			r:       2, height: 0, retire: true,
			want: []Move{{Index: 2, From: epochIDs(3, 2, 0, 1), To: 4}},
		},
		{
			name:   "the same leaver had the join not migrated",
			epochs: grown,
			r:      2, height: 0, retire: true,
			want: []Move{{Index: 0, From: epochIDs(0, 2, 1, 3), To: 4}, {Index: 2, From: epochIDs(3, 2, 0, 1), To: 4}, {Index: 3, From: epochIDs(0, 2, 1, 3), To: 4}},
		},
	}
	block := seededBlock(0x3c6ef372fe94f82a)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := pushed(t, tc.epochs...)
			m.AdvancePlacement(tc.advance)
			got, err := m.MovesTo(block, tc.height, tc.member, tc.r)
			if tc.retire {
				got, err = retirePulls(m, block, tc.height, tc.r)
			}
			if err != nil {
				t.Fatal(err)
			}
			for i := range tc.want {
				w := &tc.want[i]
				w.Block, w.Height = block, tc.height
				if !tc.retire {
					w.To = tc.member
				}
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("planned %+v\nwant    %+v", got, tc.want)
			}
		})
	}
	if _, err := pushed(t, at(0, 0, 1)).MovesTo(block, 0, 0, 0); err == nil {
		t.Fatal("MovesTo accepted replication 0")
	}
}

// retirePulls is a retire's plan on m, whose current epoch is the one the
// leaver is not in: every member of it takes in the chunks MovesTo gives it
// that it did not own under the block's placement epoch.
func retirePulls(m EpochMap, block blockcrypto.Hash, height uint64, r int) ([]Move, error) {
	var out []Move
	for _, s := range m.Current().Members {
		moves, err := m.MovesTo(block, height, s, r)
		if err != nil {
			return nil, err
		}
		for _, mv := range moves {
			old, err := m.PlacementAt(height).Owners(block.Uint64(), mv.Index, r)
			if err != nil {
				return nil, err
			}
			if !slices.Contains(old, s) {
				out = append(out, mv)
			}
		}
	}
	return out, nil
}

func TestEpochMapAddr(t *testing.T) {
	m := pushed(t,
		Epoch{FromHeight: 0, Members: epochIDs(0, 1, 2), Addrs: []string{"a", "b", "c"}},
		Epoch{FromHeight: 5, Members: epochIDs(0, 1), Addrs: []string{"a", "b2"}},
	)
	for id, want := range map[simnet.NodeID]string{0: "a", 1: "b2", 2: "c", 7: ""} {
		if got := m.Addr(id); got != want {
			t.Errorf("Addr(%d) = %q, want %q", id, got, want)
		}
	}
	if got := pushed(t, at(0, 0, 1)).Addr(0); got != "" {
		t.Errorf("simulator map Addr = %q, want none", got)
	}
}

func TestFetchMembersUnion(t *testing.T) {
	m := pushed(t, at(0, 0, 1, 2, 3), at(4, 0, 1, 2)) // node 3 departed, not yet migrated

	// A pre-churn block's fetch set is the union of current and placement
	// members (minus self): the departed node may still be the only holder.
	if got, want := m.fetchMembers(0, 0), epochIDs(1, 2, 3); !slices.Equal(got, want) {
		t.Fatalf("fetchMembers = %v, want %v", got, want)
	}
	// After migration the union collapses to the current members.
	m.AdvancePlacement(1)
	if got, want := m.fetchMembers(0, 0), epochIDs(1, 2); !slices.Equal(got, want) {
		t.Fatalf("fetchMembers post-migration = %v, want %v", got, want)
	}
}

func TestEpochLookupSurvivesPrune(t *testing.T) {
	// Prune never touches the epoch history: after a removal, repair and a
	// prune pass, historic blocks still resolve write-epoch arithmetic and
	// remain retrievable.
	sys, gen := buildSystem(t, Config{Nodes: 16, Clusters: 2, Replication: 2, Seed: 90})
	blocks := produceAndSettle(t, sys, gen, 3, 16)
	members, _ := sys.ClusterMembers(0)
	writeParts := len(members)
	if err := sys.RemoveNode(members[1]); err != nil {
		t.Fatal(err)
	}
	lost := -1
	if err := sys.RepairCluster(0, func(l int) { lost = l }); err != nil {
		t.Fatal(err)
	}
	sys.Network().RunUntilIdle()
	if lost != 0 {
		t.Fatal("repair lost chunks")
	}
	if _, err := sys.PruneCluster(0); err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if got := len(sys.clusters[0].At(b.Header.Height).Members); got != writeParts {
			t.Fatalf("height %d: parts %d after prune, want %d", b.Header.Height, got, writeParts)
		}
		if err := sys.ClusterHoldsBlock(0, b.Hash()); err != nil {
			t.Fatal(err)
		}
	}
	// Placement for historic heights points at the repaired epoch.
	if got := sys.clusters[0].PlacementAt(0).Seq; got != 1 {
		t.Fatalf("placement seq = %d after repair+prune, want 1", got)
	}
}
