package netx

import (
	"encoding/binary"
	"reflect"
	"slices"
	"sync"
	"testing"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/core"
	"icistrategy/internal/simnet"
)

// seededHash is the n-th block hash of a seeded test.
func seededHash(seed, n uint64) blockcrypto.Hash {
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], seed)
	binary.BigEndian.PutUint64(buf[8:], n)
	return blockcrypto.Sum256(buf[:])
}

// placed returns who holds each of a block's parts chunks when members
// 0..members-1 store it with replication r: the cluster's own placement.
func placed(t *testing.T, h blockcrypto.Hash, members, parts, r int) [][]int {
	t.Helper()
	ids := make([]simnet.NodeID, members)
	for i := range ids {
		ids[i] = simnet.NodeID(i)
	}
	holders := make([][]int, parts)
	for idx := range holders {
		owners, err := core.Owners(h.Uint64(), ids, idx, r)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range owners {
			holders[idx] = append(holders[idx], int(o))
		}
	}
	return holders
}

func upTo(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// checkPlan holds a plan to the planner's contract: every wanted chunk is
// asked of exactly one member, one that holds it; a member appears once;
// and a member is handed more than half the block's chunks only when every
// chunk it is handed has no other holder.
func checkPlan(t *testing.T, parts int, want []int, holders [][]int, plan []peerBatch) {
	t.Helper()
	limit := (parts + 1) / 2
	var asked, peers []int
	for _, pb := range plan {
		if slices.Contains(peers, pb.peer) {
			t.Fatalf("member %d is in the plan twice: %v", pb.peer, plan)
		}
		peers = append(peers, pb.peer)
		if len(pb.idxs) == 0 || !slices.IsSorted(pb.idxs) {
			t.Fatalf("member %d is asked for %v, want a non-empty ascending list", pb.peer, pb.idxs)
		}
		sole := true
		for _, idx := range pb.idxs {
			if !slices.Contains(holders[idx], pb.peer) {
				t.Fatalf("chunk %d is asked of member %d, its holders are %v", idx, pb.peer, holders[idx])
			}
			sole = sole && len(holders[idx]) == 1
		}
		if len(pb.idxs) > limit && !sole {
			t.Fatalf("member %d is handed %d of %d chunks %v while another member holds some of them (holders %v)",
				pb.peer, len(pb.idxs), parts, pb.idxs, holders)
		}
		asked = append(asked, pb.idxs...)
	}
	slices.Sort(asked)
	sorted := slices.Clone(want)
	slices.Sort(sorted)
	if !slices.Equal(asked, sorted) {
		t.Fatalf("plan asks for chunks %v, wanted %v", asked, sorted)
	}
}

func TestPlanGather(t *testing.T) {
	h := seededHash(1, 0)
	for _, tc := range []struct {
		name    string
		parts   int
		want    []int
		holders [][]int
		members int   // plan size; 0: only the contract is checked
		sizes   []int // batch sizes in plan order, when given
	}{
		{name: "one member holds all and nobody else does: the limit is waived",
			parts: 4, want: upTo(4), holders: [][]int{{2}, {2}, {2}, {2}}, members: 1, sizes: []int{4}},
		{name: "r=1: one batch per holder, whatever its size",
			parts: 8, want: upTo(8), holders: [][]int{{0}, {0}, {0}, {0}, {0}, {0}, {1}, {1}}, members: 2, sizes: []int{6, 2}},
		{name: "two members hold everything: half each",
			parts: 8, want: upTo(8), holders: [][]int{{0, 1}, {1, 0}, {0, 1}, {1, 0}, {0, 1}, {1, 0}, {0, 1}, {1, 0}}, members: 2, sizes: []int{4, 4}},
		{name: "odd part count rounds the limit up",
			parts: 3, want: upTo(3), holders: [][]int{{0, 1}, {0, 1}, {0, 1}}, members: 2, sizes: []int{2, 1}},
		{name: "over the limit the chunks nobody else holds are kept",
			parts: 4, want: upTo(4), holders: [][]int{{5}, {5, 6}, {5, 6}, {5}}, members: 2, sizes: []int{2, 2}},
		{name: "more sole chunks than the limit: those and no other",
			parts: 4, want: upTo(4), holders: [][]int{{5}, {5}, {5}, {5, 6}}, members: 2, sizes: []int{3, 1}},
		{name: "a struck holder leaves the other one",
			parts: 4, want: []int{1, 2}, holders: [][]int{nil, {3}, {3}, nil}, members: 1, sizes: []int{2}},
		{name: "chunks the cache held are not asked for",
			parts: 8, want: []int{2, 5}, holders: [][]int{nil, nil, {4, 1}, nil, nil, {1, 7}, nil, nil}, members: 1, sizes: []int{2}},
		{name: "a block written under an older epoch: 8 chunks over 5 members",
			parts: 8, want: upTo(8), holders: placed(t, h, 5, 8, 2)},
		{name: "a block written under an older epoch: 3 chunks, 8 members",
			parts: 3, want: upTo(3), holders: placed(t, h, 8, 3, 2)},
		{name: "r=3", parts: 8, want: upTo(8), holders: placed(t, h, 8, 8, 3)},
		{name: "64 members", parts: 64, want: upTo(64), holders: placed(t, h, 64, 64, 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan, ok := planGather(h, tc.parts, tc.want, tc.holders)
			if !ok {
				t.Fatal("no plan although every wanted chunk has a holder")
			}
			checkPlan(t, tc.parts, tc.want, tc.holders, plan)
			if tc.members > 0 && len(plan) != tc.members {
				t.Fatalf("plan asks %d members, want %d: %v", len(plan), tc.members, plan)
			}
			for i, n := range tc.sizes {
				if len(plan[i].idxs) != n {
					t.Fatalf("batch %d has %d chunks, want sizes %v: %v", i, len(plan[i].idxs), tc.sizes, plan)
				}
			}
			again, _ := planGather(h, tc.parts, tc.want, tc.holders)
			if !reflect.DeepEqual(plan, again) {
				t.Fatalf("same input, two plans:\n%v\n%v", plan, again)
			}
		})
	}
	if plan, ok := planGather(h, 3, upTo(3), [][]int{{0}, {}, {1}}); ok {
		t.Fatalf("a chunk nobody holds was planned: %v", plan)
	}
}

// TestPlanTieBreakFollowsTheBlock: two members that hold the same chunks
// are each chosen first for some blocks.
func TestPlanTieBreakFollowsTheBlock(t *testing.T) {
	holders := [][]int{{0, 1}, {0, 1}, {0, 1}, {0, 1}}
	first := make(map[int]int)
	for n := uint64(0); n < 64; n++ {
		plan, _ := planGather(seededHash(2, n), 4, upTo(4), holders)
		first[plan[0].peer]++
	}
	if first[0] < 16 || first[1] < 16 {
		t.Fatalf("over 64 blocks the tie went to member 0 %d times and to member 1 %d times", first[0], first[1])
	}
}

// TestPlanCoversWithFewMembers is the planner's reason to exist, on the
// benchmark's shape: 8 members, r = 2, 8 chunks. Asking each chunk's first
// owner reaches about 5.3 members a block; the plan must stay at or under
// 3.7, and must not load any member with more than 1.35 times its share.
func TestPlanCoversWithFewMembers(t *testing.T) {
	const members, parts, blocks = 8, 8, 256
	for _, tc := range []struct {
		r       int
		maxMean float64
	}{{2, 3.7}, {3, 3.2}} {
		var planned, firstOwners int
		load := make([]int, members)
		for n := uint64(0); n < blocks; n++ {
			h := seededHash(3, n)
			holders := placed(t, h, members, parts, tc.r)
			plan, ok := planGather(h, parts, upTo(parts), holders)
			if !ok {
				t.Fatal("no plan")
			}
			checkPlan(t, parts, upTo(parts), holders, plan)
			planned += len(plan)
			for _, pb := range plan {
				load[pb.peer] += len(pb.idxs)
			}
			var firsts []int
			for _, hs := range holders {
				if !slices.Contains(firsts, hs[0]) {
					firsts = append(firsts, hs[0])
				}
			}
			firstOwners += len(firsts)
		}
		mean := float64(planned) / blocks
		t.Logf("r=%d: %.2f members a block planned, %.2f by first owner; chunks per member %v", tc.r, mean, float64(firstOwners)/blocks, load)
		if mean > tc.maxMean {
			t.Errorf("r=%d: the mean plan asks %.2f members, want at most %.1f", tc.r, mean, tc.maxMean)
		}
		share := float64(blocks*parts) / members
		if most := slices.Max(load); float64(most) > 1.35*share {
			t.Errorf("r=%d: one member is asked for %d chunks, 1.35 times the mean is %.0f", tc.r, most, 1.35*share)
		}
	}
}

// fakeMembers serves Gather from memory: every member holds the sound copy
// of every chunk of one block and answers a ref with or without the proofs,
// as asked. damage, when set, rewrites what a member serves; every round
// trip is recorded.
type fakeMembers struct {
	hdr    chain.Header
	chunks []ChunkResp
	damage func(trip, member int, ref ChunkRef, c ChunkResp) ChunkResp

	mu    sync.Mutex
	trips []fakeTrip
}

type fakeTrip struct {
	member int
	refs   []ChunkRef
}

func newFakeMembers(t *testing.T, seed uint64, parts, txs int) *fakeMembers {
	t.Helper()
	b := seededBlocks(t, seed, 1, txs)[0]
	groups, err := core.SplitBlock(b, parts)
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeMembers{hdr: b.Header}
	for i := range groups {
		g := &groups[i]
		f.chunks = append(f.chunks, ChunkResp{Index: g.Index, Parts: g.Parts, TxStart: g.TxStart, Data: g.Encode(), Proofs: g.Proofs})
	}
	return f
}

func (f *fakeMembers) fetch(member int, refs []ChunkRef) *ChunkBatchResp {
	f.mu.Lock()
	trip := len(f.trips)
	f.trips = append(f.trips, fakeTrip{member, slices.Clone(refs)})
	f.mu.Unlock()
	out := &ChunkBatchResp{Found: make([]bool, len(refs)), Chunks: make([]ChunkResp, len(refs))}
	for i, ref := range refs {
		c := f.chunks[ref.Index]
		if f.damage != nil {
			c = f.damage(trip, member, ref, c)
		}
		if !ref.Proofs {
			c.Proofs = nil
		}
		out.Found[i], out.Chunks[i] = true, c
	}
	return out
}

// gather reads the block with every chunk held by the two members after its
// index, the gateway tests' placement.
func (f *fakeMembers) gather() (*chain.Block, error) {
	parts := len(f.chunks)
	holders := make([][]int, parts)
	for idx := range holders {
		holders[idx] = []int{idx, (idx + 1) % parts}
	}
	b, _, err := Gather(f.hdr, make([]*ChunkResp, parts), holders, f.fetch)
	return b, err
}

// flipLast is what corrupt-wire does to a copy: the last data byte, inside
// the last signature, so the payload decodes and only the root catches it.
func flipLast(c ChunkResp) ChunkResp {
	c.Data = slices.Clone(c.Data)
	c.Data[len(c.Data)-1] ^= 0xFF
	return c
}

// TestGatherAsksForProofsOnlyAfterARefusal is the read's price list. A sound
// read is its plan, every ref bare. A member that damages what it serves
// costs the plan, one proven re-read per member of that plan — nobody can
// say which bare copy broke the root — and one more plan, with proofs, over
// the chunks that member served. A copy damaged once, on the wire, proves on
// the re-read: the read ends there, in success.
func TestGatherAsksForProofsOnlyAfterARefusal(t *testing.T) {
	const parts = 4
	sound := newFakeMembers(t, 41, parts, 16)
	if b, err := sound.gather(); err != nil || b.Header != sound.hdr {
		t.Fatalf("sound read: %v", err)
	}
	plan := len(sound.trips)
	for _, trip := range sound.trips {
		for _, ref := range trip.refs {
			if ref.Proofs {
				t.Fatalf("a sound read asked member %d for proofs: %+v", trip.member, trip.refs)
			}
		}
	}
	liar := sound.trips[0].member

	for _, tc := range []struct {
		name   string
		damage func(trip, member int, ref ChunkRef, c ChunkResp) ChunkResp
		again  bool // whether the liar's chunks are planned again after the re-read
	}{
		{"a member that corrupts every copy", func(_, member int, _ ChunkRef, c ChunkResp) ChunkResp {
			if member == liar {
				return flipLast(c)
			}
			return c
		}, true},
		{"a member that cuts every copy short", func(_, member int, _ ChunkRef, c ChunkResp) ChunkResp {
			if member == liar {
				c.Data = c.Data[:len(c.Data)-5]
			}
			return c
		}, true},
		{"a copy damaged on the wire once", func(trip, _ int, _ ChunkRef, c ChunkResp) ChunkResp {
			if trip == 0 {
				return flipLast(c)
			}
			return c
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFakeMembers(t, 41, parts, 16)
			f.damage = tc.damage
			b, err := f.gather()
			if err != nil {
				t.Fatalf("every chunk has a sound copy within reach: %v", err)
			}
			if b.Hash() != f.hdr.Hash() || b.VerifyShape() != nil {
				t.Fatal("wrong block")
			}
			if len(f.trips) < 2*plan {
				t.Fatalf("the read cost %d round trips, want the plan's %d and as many re-reads", len(f.trips), plan)
			}
			served := make(map[int][]int) // member -> the chunks it served bare
			var again []int               // the chunks asked for after the re-read
			for i, trip := range f.trips {
				var idxs []int
				for _, ref := range trip.refs {
					if ref.Proofs != (i >= plan) {
						t.Fatalf("round trip %d of %d asks member %d with proofs=%v", i, len(f.trips), trip.member, ref.Proofs)
					}
					idxs = append(idxs, ref.Index)
				}
				switch {
				case i < plan:
					served[trip.member] = idxs
				case i < 2*plan:
					if !slices.Equal(served[trip.member], idxs) {
						t.Fatalf("the re-read asks member %d for %v, it served %v", trip.member, idxs, served[trip.member])
					}
				case trip.member == liar:
					t.Fatalf("the liar was asked again, for %v", idxs)
				default:
					again = append(again, idxs...)
				}
			}
			slices.Sort(again)
			if want := served[liar]; tc.again && !slices.Equal(again, want) || !tc.again && again != nil {
				t.Fatalf("after the re-read chunks %v were asked for; the liar served %v, again=%v", again, want, tc.again)
			}
		})
	}
}
