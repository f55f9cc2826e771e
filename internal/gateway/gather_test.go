package gateway

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/core"
	"icistrategy/internal/netx"
	"icistrategy/internal/simnet"
)

// seededHeader is the header of the n-th block of a seeded test, and its
// hash.
func seededHeader(seed, n uint64) (chain.Header, blockcrypto.Hash) {
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], seed)
	binary.BigEndian.PutUint64(buf[8:], n)
	hdr := chain.Header{Height: n, MerkleRoot: blockcrypto.Sum256(buf[:])}
	return hdr, hdr.Hash()
}

// peerBatch is one round trip netx.Gather asked for.
type peerBatch struct {
	peer int
	idxs []int
}

// firstPlan is the planner as the gateway meets it: the batches netx.Gather
// asks for before any answer is in, for the wanted chunks of hdr's block
// with the given holders, largest batch first and then by lowest chunk. The
// planner itself is tested where it lives (netx's TestPlanGather); this holds
// the exported entry point to the same contract. Nothing is answered, so
// every later round asks only for chunks seen before and is left out. ok is
// false when Gather asked for nothing.
func firstPlan(hdr chain.Header, parts int, want []int, holders [][]int) (plan []peerBatch, ok bool) {
	have := make([]*netx.ChunkResp, parts)
	for idx := range have {
		if !slices.Contains(want, idx) {
			have[idx] = &netx.ChunkResp{}
		}
	}
	left := make([][]int, parts) // Gather strikes whom it asked
	for idx := range holders {
		left[idx] = slices.Clone(holders[idx])
	}
	var mu sync.Mutex
	seen := make(map[int]bool)
	_, _, err := netx.Gather(hdr, have, left, func(peer int, refs []netx.ChunkRef) *netx.ChunkBatchResp {
		mu.Lock()
		defer mu.Unlock()
		if !seen[refs[0].Index] {
			idxs := make([]int, len(refs))
			for i, ref := range refs {
				idxs[i], seen[ref.Index] = ref.Index, true
			}
			plan = append(plan, peerBatch{peer: peer, idxs: idxs})
		}
		return nil
	})
	slices.SortFunc(plan, func(a, b peerBatch) int {
		return cmp.Or(len(b.idxs)-len(a.idxs), a.idxs[0]-b.idxs[0])
	})
	return plan, len(plan) > 0 && errors.Is(err, ErrIncomplete)
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
	hdr, h := seededHeader(1, 0)
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
			plan, ok := firstPlan(hdr, tc.parts, tc.want, tc.holders)
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
			again, _ := firstPlan(hdr, tc.parts, tc.want, tc.holders)
			if !reflect.DeepEqual(plan, again) {
				t.Fatalf("same input, two plans:\n%v\n%v", plan, again)
			}
		})
	}
	if plan, ok := firstPlan(hdr, 3, upTo(3), [][]int{{0}, {}, {1}}); ok {
		t.Fatalf("a chunk nobody holds was planned: %v", plan)
	}
}

// TestPlanTieBreakFollowsTheBlock: two members that hold the same chunks
// are each chosen first for some blocks.
func TestPlanTieBreakFollowsTheBlock(t *testing.T) {
	holders := [][]int{{0, 1}, {0, 1}, {0, 1}, {0, 1}}
	first := make(map[int]int)
	for n := uint64(0); n < 64; n++ {
		hdr, _ := seededHeader(2, n)
		plan, _ := firstPlan(hdr, 4, upTo(4), holders)
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
			hdr, h := seededHeader(3, n)
			holders := placed(t, h, members, parts, tc.r)
			plan, ok := firstPlan(hdr, parts, upTo(parts), holders)
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

// planFor is the plan the gateway's read follows for the wanted chunks of a
// block of the fake upstream once the struck members are out of the holder
// lists.
func planFor(t *testing.T, u *fakeUpstream, h blockcrypto.Hash, want []int, struck ...int) []peerBatch {
	t.Helper()
	holders := make([][]int, u.parts)
	for _, idx := range want {
		owners, _ := u.Owners(h, idx)
		holders[idx] = slices.DeleteFunc(owners, func(p int) bool { return slices.Contains(struck, p) })
	}
	plan, ok := firstPlan(u.headers[h], u.parts, want, holders)
	if !ok {
		t.Fatalf("no plan for chunks %v without members %v", want, struck)
	}
	return plan
}

// TestGatherReplansAFailedMembersChunksTogether: a member of the plan that
// is down, or answers that it holds nothing, costs the read one more plan
// over its chunks — one extra batch per member of that plan, fewer than one
// per chunk — and nothing else is asked twice.
func TestGatherReplansAFailedMembersChunksTogether(t *testing.T) {
	for _, fault := range []string{"dead", "withholding"} {
		t.Run(fault, func(t *testing.T) {
			u, blocks := newFakeUpstream(t, 8, 1, 32)
			u.replication = 3
			h := blocks[0].Hash()
			plan := planFor(t, u, h, upTo(8))
			failing, lost := plan[0].peer, plan[0].idxs
			if len(lost) < 3 {
				t.Fatalf("the first member of the plan serves %v: want three chunks to lose", lost)
			}
			if fault == "dead" {
				u.dead = map[int]bool{failing: true}
			} else {
				for _, idx := range lost {
					u.loseChunk(failing, netx.ChunkRef{Block: h, Index: idx})
				}
			}
			second := planFor(t, u, h, lost, failing)
			if len(second) >= len(lost) {
				t.Fatalf("the second plan asks %d members for %d chunks: the test shows nothing", len(second), len(lost))
			}

			g := newTestGateway(t, u, nil, 0)
			got, err := readBlock(g, h)
			if err != nil {
				t.Fatal(err)
			}
			if got.Hash() != h || got.VerifyShape() != nil {
				t.Fatal("wrong block after the fallback")
			}
			if calls, want := u.batchCalls.Load(), int64(len(plan)+len(second)); calls != want {
				t.Fatalf("the read cost %d batches, want %d for the plan and %d for its failed member's chunks", calls, len(plan), len(second))
			}
			if refs, want := u.batchRefs.Load(), int64(8+len(lost)); refs != want {
				t.Fatalf("the read asked for %d refs, want %d", refs, want)
			}
		})
	}
}

// cutShort returns c with its payload ending inside its last transaction.
func cutShort(c netx.ChunkResp) netx.ChunkResp {
	c.Data = c.Data[:len(c.Data)-5]
	return c
}

// TestCopyThatDoesNotDecodeIsAskedElsewhere: a copy cut short in the middle
// of a transaction is one more unsound copy. The first pass reads bare, so
// the refused reassembly cannot say which copy it was: with a second holder
// the read succeeds at the price of the plan, one re-read with proofs per
// member of that plan, and one batch more for the chunk whose copy still
// does not decode; with none it fails with the decode error and caches
// nothing.
func TestCopyThatDoesNotDecodeIsAskedElsewhere(t *testing.T) {
	u, blocks := newFakeUpstream(t, 4, 1, 16)
	u.replication = 2
	h := blocks[0].Hash()
	plan := planFor(t, u, h, upTo(4))
	peer, ref := plan[0].peer, netx.ChunkRef{Block: h, Index: plan[0].idxs[0]}
	u.setChunk(peer, ref, cutShort(u.chunks[peer][ref]))
	g, err := New(Config{Upstream: u, ChunkCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	got, err := readBlock(g, h)
	if err != nil {
		t.Fatalf("a chunk cut short at one of its two holders failed the read: %v", err)
	}
	if got.Hash() != h || got.VerifyShape() != nil {
		t.Fatal("wrong block")
	}
	if calls := u.batchCalls.Load(); calls != int64(2*len(plan)+1) {
		t.Fatalf("the read cost %d batches, want the plan's %d, as many re-reads and one more", calls, len(plan))
	}
	if proven := u.provenRefs.Load(); proven != 4+1 {
		t.Fatalf("%d refs were answered with proofs, want the 4 read again and the 1 asked elsewhere", proven)
	}

	u, blocks = newFakeUpstream(t, 4, 1, 16)
	u.replication = 1
	h = blocks[0].Hash()
	ref = netx.ChunkRef{Block: h, Index: 2}
	u.setChunk(2, ref, cutShort(u.chunks[2][ref]))
	if g, err = New(Config{Upstream: u, ChunkCacheBytes: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.GetBlock(h); !errors.Is(err, chain.ErrTxTruncated) {
		t.Fatalf("a chunk cut short at its only holder: got %v, want %v", err, chain.ErrTxTruncated)
	}
	if n := g.chunks.Len(); n != 0 {
		t.Fatalf("%d chunks cached from a block that did not verify", n)
	}
}

// dropLast returns c without its last transaction and that transaction's
// proof: every transaction left still proves into the root.
func dropLast(t *testing.T, c netx.ChunkResp) netx.ChunkResp {
	t.Helper()
	g, err := core.DecodeGroup(c.Index, c.Parts, c.TxStart, c.Data, c.Proofs)
	if err != nil {
		t.Fatal(err)
	}
	g.Txs, g.Proofs = g.Txs[:len(g.Txs)-1], g.Proofs[:len(g.Proofs)-1]
	c.Data, c.Proofs = g.Encode(), g.Proofs
	return c
}

// TestGatewaySurvivesOneShorteningMember: one member drops the last
// transaction of every chunk it serves, with the proofs to match. Each copy
// proves as far as it goes; it is unsound because the split puts more
// transactions there. Every chunk has a whole copy on its other owner, so
// every read must succeed, at the price of the plan, one re-read with proofs
// per member of that plan, and one more plan over the chunks the shortening
// member served.
func TestGatewaySurvivesOneShorteningMember(t *testing.T) {
	const peers = 4
	u, blocks := newFakeUpstream(t, peers, 3, 16)
	u.replication = 2
	shortening := planFor(t, u, blocks[0].Hash(), upTo(peers))[0].peer
	for ref, c := range u.chunks[shortening] {
		u.setChunk(shortening, ref, dropLast(t, c))
	}
	g := newTestGateway(t, u, nil, 0)
	served := 0
	for _, b := range blocks {
		var bad []int
		plan := planFor(t, u, b.Hash(), upTo(peers))
		for _, pb := range plan {
			if pb.peer == shortening {
				bad = pb.idxs
			}
		}
		want := len(plan)
		if len(bad) > 0 {
			want += len(plan) + len(planFor(t, u, b.Hash(), bad, shortening))
		}
		served += len(bad)
		before := u.batchCalls.Load()
		got, err := readBlock(g, b.Hash())
		if err != nil {
			t.Fatalf("block %d: one shortening member failed a read every chunk of which has a whole replica: %v", b.Header.Height, err)
		}
		if got.Hash() != b.Hash() || got.VerifyShape() != nil {
			t.Fatalf("block %d reassembled wrong", b.Header.Height)
		}
		if calls := u.batchCalls.Load() - before; calls != int64(want) {
			t.Fatalf("block %d cost %d upstream batches, want %d", b.Header.Height, calls, want)
		}
	}
	if served == 0 {
		t.Fatal("the shortening member was in no plan: nothing was tested")
	}
}

// cutAt returns chunk idx of b as a faulty member serves it: its index and
// part count, but the transactions [start, end) with their proofs.
func cutAt(t *testing.T, b *chain.Block, idx, parts, start, end int) netx.ChunkResp {
	t.Helper()
	tree, err := chain.TxMerkleTree(b.Txs)
	if err != nil {
		t.Fatal(err)
	}
	c := netx.ChunkResp{Index: idx, Parts: parts, TxStart: start, Data: (&chain.Block{Txs: b.Txs[start:end]}).EncodeBody()}
	for i := start; i < end; i++ {
		p, err := tree.Prove(i)
		if err != nil {
			t.Fatal(err)
		}
		c.Proofs = append(c.Proofs, p)
	}
	return c
}

// forget drops key from the cache, as an eviction would.
func (c *lruCache) forget(key cacheKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.size -= el.Value.(*cacheEntry).size
		c.order.Remove(el)
		delete(c.entries, key)
	}
}

// TestMisCutCopiesDoNotPoisonTheChunkCache: two faulty members, within the
// fault bound of 8 members with r = 2, move the boundary between chunks 0
// and 1 by one transaction (13 + 11 where the split cuts 12 + 12), each copy
// with its proofs. Joined, the pair still hashes to the root, so a reader
// that checked only index and part count served the block and cached both
// copies; once the cache held one without the other, every read of the
// block failed, honest members or not, because a cached copy is never judged
// again. The position rule refuses each copy for its cut before anything is
// hashed: the read goes down the proven re-read, succeeds from the honest
// holders, and caches only their copies, so a read after chunk 1 left the
// cache succeeds too.
func TestMisCutCopiesDoNotPoisonTheChunkCache(t *testing.T) {
	const peers, txs = 8, 96
	u, blocks := newFakeUpstream(t, peers, 4, txs)
	u.replication = 2
	// The block whose re-read of chunk 1 alone goes to the other holder than
	// the full read: the one a poisoned cache pairs with an honest copy.
	var b *chain.Block
	var first []peerBatch
	for _, c := range blocks {
		first = planFor(t, u, c.Hash(), upTo(peers))
		if holderOf(first, 1) != holderOf(planFor(t, u, c.Hash(), []int{1}), 1) {
			b = c
			break
		}
	}
	if b == nil {
		t.Fatal("every block re-reads chunk 1 from the same holder: the test shows nothing")
	}
	h := b.Hash()
	honest := []netx.ChunkResp{u.chunks[0][netx.ChunkRef{Block: h, Index: 0}], u.chunks[0][netx.ChunkRef{Block: h, Index: 1}]}
	u.setChunk(holderOf(first, 0), netx.ChunkRef{Block: h, Index: 0}, cutAt(t, b, 0, peers, 0, 13))
	u.setChunk(holderOf(first, 1), netx.ChunkRef{Block: h, Index: 1}, cutAt(t, b, 1, peers, 13, 24))

	g, err := New(Config{Upstream: u, BlockCacheBytes: 0, ChunkCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for read := 0; read < 4; read++ {
		if read > 0 {
			g.chunks.forget(chunkKey(h, 1))
		}
		got, err := readBlock(g, h)
		if err != nil {
			t.Fatalf("read %d: %v", read, err)
		}
		if got.Hash() != h || got.VerifyShape() != nil {
			t.Fatalf("read %d: wrong block", read)
		}
		for idx, want := range honest {
			v, ok := g.chunks.Get(chunkKey(h, idx))
			if !ok {
				t.Fatalf("read %d: chunk %d of a verified block is not cached", read, idx)
			}
			if c := v.(*netx.ChunkResp); c.TxStart != want.TxStart || !bytes.Equal(c.Data, want.Data) {
				t.Fatalf("read %d: the chunk cache holds a copy of chunk %d that is not the split's (txs from %d, %d bytes; want from %d, %d bytes)",
					read, idx, c.TxStart, len(c.Data), want.TxStart, len(want.Data))
			}
		}
	}
}

// holderOf is the member a plan asks for chunk idx, or -1.
func holderOf(plan []peerBatch, idx int) int {
	for _, pb := range plan {
		if slices.Contains(pb.idxs, idx) {
			return pb.peer
		}
	}
	return -1
}

// TestColdReadAllocations holds BenchmarkGatewayColdRead's allocs/op, with
// both caches off as the benchmark has them and with both on (every lookup a
// miss, every chunk and block admitted, the LRU's entries on top). The mean
// over 64 seeded blocks is held to half an allocation — a read's count goes
// with the size of its plan — so that a key built per lookup (the caches and
// the flight group are keyed by a comparable struct, not a string) or a
// second copy of a payload shows here, in tier-1.
func TestColdReadAllocations(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range []struct {
		name       string
		cacheBytes int64
		want       float64
	}{{"caches off", 0, 91}, {"caches on", 1 << 30, 109.4}} {
		u, blocks := newFakeUpstream(t, 8, 65, 96)
		u.replication = 2
		g := newTestGateway(t, u, nil, tc.cacheBytes)
		read := func(b *chain.Block) {
			if _, err := g.GetBlock(b.Hash()); err != nil {
				t.Fatal(err)
			}
		}
		read(blocks[0]) // warm-up: the goroutines a gather parks
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, b := range blocks[1:] { // every block is read once: no read is a hit
			read(b)
		}
		runtime.ReadMemStats(&after)
		mean := float64(after.Mallocs-before.Mallocs) / float64(len(blocks)-1)
		t.Logf("%s: %.2f allocations a cold read", tc.name, mean)
		if mean > tc.want+0.5 || mean < tc.want-0.5 { // the race detector adds none
			t.Errorf("%s: %.2f allocations a cold read, want %.1f", tc.name, mean, tc.want)
		}
	}
}

// BenchmarkGatewayColdRead is one uncached block read on the benchmark's
// shape (8 members, r = 2, 96 transactions) with the network taken out:
// what it allocates is the gateway's own garbage per cold read.
func BenchmarkGatewayColdRead(b *testing.B) {
	u, blocks := newFakeUpstream(b, 8, 16, 96)
	u.replication = 2
	g := newTestGateway(b, u, nil, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.GetBlock(blocks[i%len(blocks)].Hash()); err != nil {
			b.Fatal(err)
		}
	}
}
