package netx

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"icistrategy/internal/chain"
	"icistrategy/internal/core"
	"icistrategy/internal/simnet"
)

func mapServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return s, c
}

// epoch builds one wire epoch; member id serves at "m<id>".
func epoch(seq int, from uint64, ids ...uint64) core.Epoch {
	e := core.Epoch{Seq: seq, FromHeight: from}
	for _, id := range ids {
		e.Members = append(e.Members, simnet.NodeID(id))
		e.Addrs = append(e.Addrs, fmt.Sprintf("m%d", id))
	}
	return e
}

// TestClusterMapNewestWins is the server's side of the adoption rule; the
// rule itself (EpochMap.Newer) and the rejection table (EpochMap.Validate)
// are tested once, in core.
func TestClusterMapNewestWins(t *testing.T) {
	_, c := mapServer(t)

	// Fresh server: empty map.
	m, err := c.GetClusterMap()
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 0 {
		t.Fatalf("fresh server holds %d epochs", len(m))
	}

	two := core.EpochMap{epoch(0, 0, 1, 2, 3), epoch(1, 9, 1, 2)}
	if err := c.SetClusterMap(two); err != nil {
		t.Fatal(err)
	}
	// A stale (shorter) publish is acknowledged but ignored.
	if err := c.SetClusterMap(two[:1]); err != nil {
		t.Fatal(err)
	}
	m, err = c.GetClusterMap()
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 || m[1].Seq != 1 || m[1].FromHeight != 9 || len(m[1].Members) != 2 {
		t.Fatalf("map = %+v, want the two-epoch publish intact", m)
	}
	// A newer publish replaces it.
	three := append(append(core.EpochMap(nil), two...), epoch(2, 12, 1, 2, 4))
	if err := c.SetClusterMap(three); err != nil {
		t.Fatal(err)
	}
	m, _ = c.GetClusterMap()
	if len(m) != 3 || m[2].Seq != 2 {
		t.Fatalf("map = %+v, want three epochs", m)
	}

	// An invalid publish is refused whole and leaves the stored map alone:
	// the server runs EpochMap.Validate on what a client sends.
	for name, bad := range map[string]core.EpochMap{
		"empty":           nil,
		"nonpositional":   {epoch(1, 0, 1)},
		"repeated member": append(append(core.EpochMap(nil), three...), epoch(3, 12, 5, 5)),
		"heights go back": append(append(core.EpochMap(nil), three...), epoch(3, 11, 1)),
	} {
		err := c.SetClusterMap(bad)
		if err == nil || !strings.Contains(err.Error(), "malformed") {
			t.Fatalf("%s: err = %v, want malformed-request rejection", name, err)
		}
	}
	if m, _ := c.GetClusterMap(); len(m) != 3 {
		t.Fatalf("rejected publish mutated server state: %+v", m)
	}
}

// TestClusterMapFramesGolden pins the cluster-map frames to the bytes the
// tree produced before the wire carried a core.EpochMap (captured at the
// parent commit from the EpochInfo/MemberInfo encoder): wire version 1, same
// opcodes, same field order.
func TestClusterMapFramesGolden(t *testing.T) {
	addr := func(i int) string { return fmt.Sprintf("127.0.0.1:400%d", i) }
	m := core.EpochMap{
		{Seq: 0, FromHeight: 0, Members: []simnet.NodeID{0, 1, 2}, Addrs: []string{addr(0), addr(1), addr(2)}},
		{Seq: 1, FromHeight: 17, Members: []simnet.NodeID{0, 2}, Addrs: []string{addr(0), addr(2)}},
		{Seq: 2, FromHeight: 300, Members: []simnet.NodeID{0, 1, 2}, Addrs: []string{addr(0), addr(1), addr(2)}},
	}
	const body = "03000003000e3132372e302e302e313a34303030010e3132372e302e302e313a34303031020e3132372e302e302e313a34303032" +
		"021102000e3132372e302e302e313a34303030020e3132372e302e302e313a34303032" +
		"04ac0203000e3132372e302e302e313a34303030010e3132372e302e302e313a34303031020e3132372e302e302e313a34303032"
	cases := []struct {
		name string
		id   uint32
		msg  WireEncoder
		into func() wireMessage
		want string
	}{
		{"set_cluster_map_req", 7, &Request{SetClusterMap: &SetClusterMapReq{Epochs: m}}, freshRequest, "00000091010900000007" + body},
		{"cluster_map_resp", 8, &Response{ClusterMap: &ClusterMapResp{Epochs: m}}, freshResponse, "00000091014700000008" + body},
		{"empty_cluster_map_resp", 9, &Response{ClusterMap: &ClusterMapResp{}}, freshResponse, "0000000701470000000900"},
	}
	for _, tc := range cases {
		var b bytes.Buffer
		if _, err := WriteFrame(&b, tc.id, tc.msg); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(b.Bytes()); got != tc.want {
			t.Errorf("%s frame:\n got %s\nwant %s", tc.name, got, tc.want)
		}
		// And the parent's bytes decode to a map that encodes back to them.
		raw, _ := hex.DecodeString(tc.want)
		back := tc.into()
		if _, _, err := ReadFrame(bytes.NewReader(raw), back); err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		b.Reset()
		if _, err := WriteFrame(&b, tc.id, back); err != nil || !bytes.Equal(b.Bytes(), raw) {
			t.Errorf("%s: decode then encode changed the frame (%v)", tc.name, err)
		}
	}
}

func TestPublishEpochSynthesizesGenesis(t *testing.T) {
	s1, _ := mapServer(t)
	s2, _ := mapServer(t)
	cl, err := NewCluster([]string{s1.Addr(), s2.Addr()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// No map published anywhere: the first PublishEpoch synthesizes epoch 0
	// from the constructor roster and appends the new membership as epoch 1.
	n, err := cl.PublishEpoch([]simnet.NodeID{0}, []string{s1.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("epoch = %d, want 1", n)
	}
	c, err := Dial(s2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m, err := c.GetClusterMap()
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 {
		t.Fatalf("map has %d epochs, want 2", len(m))
	}
	if len(m[0].Members) != 2 || m[0].Addrs[0] != s1.Addr() {
		t.Fatalf("genesis epoch = %+v, want the constructor roster", m[0])
	}
	if len(m[1].Members) != 1 || m[1].FromHeight != 0 {
		t.Fatalf("epoch 1 = %+v, want one member from height 0 (no headers yet)", m[1])
	}
	if _, err := cl.PublishEpoch(nil, nil); err == nil {
		t.Fatal("published an epoch with no members")
	}

	// RetireMember refuses addresses outside the roster and the last member.
	if _, err := cl.RetireMember("127.0.0.1:1"); err == nil {
		t.Fatal("retired a non-member")
	}
	solo, err := NewCluster([]string{s1.Addr()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Close()
	if _, err := solo.RetireMember(s1.Addr()); err == nil {
		t.Fatal("retired the last member")
	}
}

// TestPublishEpochRefusesToRewriteHistory: with a published history and no
// member able to report its chain height, the next epoch would start at
// height 0 — below the current epoch's — and re-address every block written
// since. At the parent commit it was published; now the push is refused.
func TestPublishEpochRefusesToRewriteHistory(t *testing.T) {
	s1, c1 := mapServer(t)
	s2, _ := mapServer(t)
	addrs := []string{s1.Addr(), s2.Addr()}
	history := core.EpochMap{
		{Seq: 0, FromHeight: 0, Members: []simnet.NodeID{0, 1}, Addrs: addrs},
		{Seq: 1, FromHeight: 9, Members: []simnet.NodeID{0}, Addrs: addrs[:1]},
	}
	if err := c1.SetClusterMap(history); err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(addrs, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// The servers hold no headers, so no height is learned.
	if n, err := cl.PublishEpoch([]simnet.NodeID{0, 1}, addrs); err == nil {
		t.Fatalf("published epoch %d from height 0 over a history that reaches height 9", n)
	}
	if m, _ := c1.GetClusterMap(); len(m) != 2 {
		t.Fatalf("refused publish changed the stored map: %+v", m)
	}
	// With the chain height known the same publish goes through.
	if err := c1.PutHeader(chain.Header{Height: 9}); err != nil {
		t.Fatal(err)
	}
	n, err := cl.PublishEpoch([]simnet.NodeID{0, 1}, addrs)
	if err != nil || n != 2 {
		t.Fatalf("publish with a known height: epoch %d, %v; want 2", n, err)
	}
	if m, _ := c1.GetClusterMap(); len(m) != 3 || m[2].FromHeight != 10 {
		t.Fatalf("map = %+v, want epoch 2 from height 10", m)
	}
}

// churned runs the shape of scenarios/churn.cont over loopback servers: four
// members, r = 2, four blocks; member 3 retires; four blocks under the
// three that stay; member 3 rejoins. After each membership change the map
// the Cluster holds must be the one its members serve: planning advances
// placement on a copy only.
func churned(t *testing.T) (servers []*Server, addrs []string, full *Cluster, blocks []*chain.Block) {
	t.Helper()
	const n, r = 4, 2
	servers, addrs = startServers(t, n)
	full, err := NewCluster(addrs, r)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(full.Close)
	blocks = seededBlocks(t, 26, 8, 16)
	distribute := func(cl *Cluster, bs []*chain.Block) {
		for _, b := range bs {
			if err := cl.DistributeBlock(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	requireServedMap := func(when string) {
		c, err := Dial(addrs[0])
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		served, err := c.GetClusterMap()
		if err != nil {
			t.Fatal(err)
		}
		if held := full.Map(); !reflect.DeepEqual(held, served) {
			t.Fatalf("after %s the Cluster holds %+v, its members serve %+v", when, held, served)
		}
	}
	distribute(full, blocks[:4])
	if moved, err := full.RetireMember(addrs[n-1]); err != nil || moved == 0 {
		t.Fatalf("retire moved %d chunks: %v", moved, err)
	}
	requireServedMap("retire")
	shrunk, err := NewCluster(addrs[:n-1], r)
	if err != nil {
		t.Fatal(err)
	}
	defer shrunk.Close()
	distribute(shrunk, blocks[4:])
	if moved, err := full.RejoinMember(addrs[n-1]); err != nil || moved == 0 {
		t.Fatalf("rejoin moved %d chunks: %v", moved, err)
	}
	requireServedMap("rejoin")
	return servers, addrs, full, blocks
}

// requireOwned checks that the server at addr holds every chunk member id
// owns under m — each block's chunk count its write epoch's, its owners the
// current epoch's — and returns how many that is.
func requireOwned(t *testing.T, addr string, id simnet.NodeID, m core.EpochMap, blocks []*chain.Block, r int) int {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	owned := 0
	for _, b := range blocks {
		resp, err := c.GetBlockChunks(b.Hash())
		if err != nil {
			t.Fatal(err)
		}
		for idx := range m.At(b.Header.Height).Members {
			owners, err := m.Current().Owners(b.Hash().Uint64(), idx, r)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Contains(owners, id) {
				continue
			}
			owned++
			if !slices.ContainsFunc(resp.Chunks, func(c ChunkResp) bool { return c.Index == idx }) {
				t.Errorf("member %d lacks chunk %d of block %d", id, idx, b.Header.Height)
			}
		}
	}
	return owned
}

// TestResyncAfterChurn: member 1 loses its store after the churn and resyncs
// into a fresh server on its address. Every block is planned against the map
// the cluster published — a resync planned over the constructor roster asks
// for a fourth chunk of blocks written in three, and fails.
func TestResyncAfterChurn(t *testing.T) {
	servers, addrs, _, blocks := churned(t)
	reborn := restart(t, servers[1])
	view, err := NewCluster(addrs, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer view.Close()
	moved, err := view.ResyncMember(reborn.Addr())
	if err != nil {
		t.Fatalf("resync after churn: %v", err)
	}
	if owned := requireOwned(t, reborn.Addr(), 1, view.CurrentMap(), blocks, 2); moved != owned {
		t.Fatalf("resync moved %d chunks, member 1 owns %d", moved, owned)
	}
}

// TestBootstrapAfterChurn: a fifth member joins the churned cluster and the
// grown epoch is published; the newcomer holds every chunk it owns under it.
func TestBootstrapAfterChurn(t *testing.T) {
	_, addrs, full, blocks := churned(t)
	joiner := newJoiner(t)
	moved, err := full.BootstrapNewMember(joiner.Addr())
	if err != nil {
		t.Fatalf("bootstrap after churn: %v", err)
	}
	if _, err := full.PublishEpoch(memberIDs(5), append(slices.Clone(addrs), joiner.Addr())); err != nil {
		t.Fatal(err)
	}
	if owned := requireOwned(t, joiner.Addr(), 4, full.CurrentMap(), blocks, 2); moved != owned {
		t.Fatalf("bootstrap moved %d chunks, member 4 owns %d", moved, owned)
	}
}

// TestCurrentMapSkipsInvalidPeerMap: a member answering the poll with a map
// that fails Validate (here: one identity twice in an epoch, which would
// halve replication silently) is skipped like an unreachable member. At the
// parent commit the longest map won unchecked.
func TestCurrentMapSkipsInvalidPeerMap(t *testing.T) {
	good, cGood := mapServer(t)
	invalid := &Response{ClusterMap: &ClusterMapResp{Epochs: core.EpochMap{
		epoch(0, 0, 0, 1), epoch(1, 3, 0, 1), {Seq: 2, FromHeight: 5, Members: []simnet.NodeID{1, 1}, Addrs: []string{"a", "b"}},
	}}}
	rogue := scriptedServer(t, func(_ int, id uint32) (time.Duration, []byte) { return 0, replyFrame(t, id, invalid) })
	addrs := []string{good.Addr(), rogue}
	valid := core.EpochMap{
		{Seq: 0, FromHeight: 0, Members: []simnet.NodeID{0, 1}, Addrs: addrs},
		{Seq: 1, FromHeight: 4, Members: []simnet.NodeID{0}, Addrs: addrs[:1]},
	}
	if err := cGood.SetClusterMap(valid); err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(addrs, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	m := cl.CurrentMap()
	if len(m) != 2 || m.Current().FromHeight != 4 {
		t.Fatalf("CurrentMap = %+v, want the valid two-epoch map", m)
	}
}

// retiredMiddle retires a member from the middle of the roster over loopback
// servers: four members, r = 2, three blocks; member 1 retires; five blocks
// are written through a Cluster built over the three that stay, which take
// identities 0, 2 and 3 from the published map. Every member of the current
// epoch holds every chunk it owns under that map.
func retiredMiddle(t *testing.T) (servers []*Server, addrs []string, blocks []*chain.Block) {
	t.Helper()
	const n, r = 4, 2
	servers, addrs = startServers(t, n)
	full, err := NewCluster(addrs, r)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	blocks = seededBlocks(t, 26, 8, 16)
	for _, b := range blocks[:3] {
		if err := full.DistributeBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	if moved, err := full.RetireMember(addrs[1]); err != nil || moved == 0 {
		t.Fatalf("retire moved %d chunks: %v", moved, err)
	}
	staying, err := NewCluster([]string{addrs[0], addrs[2], addrs[3]}, r)
	if err != nil {
		t.Fatal(err)
	}
	defer staying.Close()
	for _, b := range blocks[3:] {
		if err := staying.DistributeBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	m := staying.Map()
	if got := m.Current().Members; !slices.Equal(got, []simnet.NodeID{0, 2, 3}) {
		t.Fatalf("the staying members write as %v, want the published 0, 2, 3", got)
	}
	for _, id := range m.Current().Members {
		requireOwned(t, addrs[id], id, m, blocks, r)
	}
	return servers, addrs, blocks
}

// TestRetiredMiddleMemberLeavesEveryBlockReadable: with any one of the three
// staying members down, a Cluster that holds the published map reads every
// block. A writer that numbered the staying members by their position wrote
// the post-retire blocks under identities 0, 1 and 2, so a reader by the map
// looked for copies where there were none.
func TestRetiredMiddleMemberLeavesEveryBlockReadable(t *testing.T) {
	for _, down := range []int{0, 2, 3} {
		t.Run(fmt.Sprint("member ", down, " down"), func(t *testing.T) {
			servers, addrs, blocks := retiredMiddle(t)
			if err := servers[down].Close(); err != nil {
				t.Fatal(err)
			}
			reader, err := NewCluster([]string{addrs[0], addrs[2], addrs[3]}, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer reader.Close()
			if m := reader.CurrentMap(); len(m) != 2 {
				t.Fatalf("the reader holds %d epochs, want the published 2", len(m))
			}
			for _, b := range blocks {
				if got, err := reader.RetrieveBlock(b.Header); err != nil || got.Hash() != b.Hash() {
					t.Errorf("block %d: %v", b.Header.Height, err)
				}
			}
		})
	}
}

// TestBootstrapAfterAMiddleRetireTakesAFreshIdentity: a joiner bootstrapped
// through the three members that stay after member 1 retired joins as
// identity 4, one above the highest any epoch lists, and takes in exactly
// the chunks identity 4 owns once the current epoch is grown by it.
// Identity 3, the count of current members, is member 3's: a joiner given
// it would claim member 3's chunks.
func TestBootstrapAfterAMiddleRetireTakesAFreshIdentity(t *testing.T) {
	_, addrs, blocks := retiredMiddle(t)
	staying, err := NewCluster([]string{addrs[0], addrs[2], addrs[3]}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer staying.Close()
	joiner := newJoiner(t)
	moved, err := staying.BootstrapNewMember(joiner.Addr())
	if err != nil {
		t.Fatal(err)
	}
	grown := slices.Clone(staying.Map())
	cur := grown.Current()
	if _, err := grown.Push(math.MaxUint64, append(slices.Clone(cur.Members), 4), append(slices.Clone(cur.Addrs), joiner.Addr())); err != nil {
		t.Fatal(err)
	}
	owned := requireOwned(t, joiner.Addr(), 4, grown, blocks, 2)
	if held := joiner.Stats().ChunkCount; moved != owned || held != int64(owned) {
		t.Fatalf("bootstrap moved %d chunks and the joiner holds %d; identity 4 owns %d", moved, held, owned)
	}
}

// TestRetirePlanIsThePlacementDelta removes each member of seven in turn:
// for every chunk of every block, the retire's plan sends it to exactly the
// member that owns it under the shrunk epoch and did not own it before —
// rendezvous gives each chunk the leaver owned one such member, and any
// other chunk none — so only the leaver's share moves, and no staying
// member is sent a chunk it holds. The oracle is core.Owners alone.
func TestRetirePlanIsThePlacementDelta(t *testing.T) {
	const n, r, blocks = 7, 3, 64
	full := memberIDs(n)
	var genesis core.EpochMap
	if _, err := genesis.Push(0, full, nil); err != nil {
		t.Fatal(err)
	}
	for _, leaver := range full {
		shrunk := slices.DeleteFunc(slices.Clone(full), func(id simnet.NodeID) bool { return id == leaver })
		plan, err := planMap(genesis, shrunk, nil)
		if err != nil {
			t.Fatal(err)
		}
		for b := uint64(0); b < blocks; b++ {
			hdr := chain.Header{Height: b}
			block := hdr.Hash()
			want := make(map[int]simnet.NodeID) // chunk -> the member that gains it
			for idx := 0; idx < n; idx++ {
				old, _ := core.Owners(block.Uint64(), full, idx, r)
				now, _ := core.Owners(block.Uint64(), shrunk, idx, r)
				var gain []simnet.NodeID
				for _, o := range now {
					if !slices.Contains(old, o) {
						gain = append(gain, o)
					}
				}
				if slices.Contains(old, leaver) != (len(gain) == 1) {
					t.Fatalf("leaver %d block %d chunk %d: owned=%v but %d members gain it", leaver, b, idx, slices.Contains(old, leaver), len(gain))
				}
				if gain != nil {
					want[idx] = gain[0]
				}
			}
			moves, err := retireMoves(plan, block, 0, r)
			if err != nil {
				t.Fatal(err)
			}
			got := make(map[int]simnet.NodeID)
			for _, mv := range moves {
				if _, twice := got[mv.Index]; twice {
					t.Fatalf("leaver %d block %d: chunk %d planned twice", leaver, b, mv.Index)
				}
				got[mv.Index] = mv.To
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("leaver %d block %d: the retire moves %v, want %v", leaver, b, got, want)
			}
		}
	}
}

// TestRetireADeadMember retires a member whose server is down. With r = 2
// every chunk it owned has another holder, so the members that stay pull
// it from there: the retire moves exactly the dead member's share, is
// published, and every member of the shrunk epoch holds every chunk it
// owns. With r = 1 the dead member's chunks are gone: the retire fails,
// naming a chunk, and nothing is published. When the leaver pushed its
// share out, both retires failed dialing it.
func TestRetireADeadMember(t *testing.T) {
	for _, r := range []int{2, 1} {
		t.Run(fmt.Sprint("r=", r), func(t *testing.T) {
			const n = 4
			servers, addrs := startServers(t, n)
			cl, err := NewCluster(addrs, r)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			blocks := seededBlocks(t, 26, 3, 16)
			share := 0
			for _, b := range blocks {
				if err := cl.DistributeBlock(b); err != nil {
					t.Fatal(err)
				}
				share += len(ownedChunks(t, b.Hash(), memberIDs(n), n, r)[1])
			}
			if err := servers[1].Close(); err != nil {
				t.Fatal(err)
			}
			moved, err := cl.RetireMember(addrs[1])
			if r == 1 {
				if err == nil || !strings.Contains(err.Error(), "unavailable from any owner") {
					t.Fatalf("retire with the only copies down: moved %d, err %v; want a chunk named unavailable", moved, err)
				}
				for _, i := range []int{0, 2, 3} {
					servers[i].mu.Lock()
					held := servers[i].cmap
					servers[i].mu.Unlock()
					if held != nil {
						t.Fatalf("member %d holds a map after the failed retire: %+v", i, held)
					}
				}
				return
			}
			if err != nil || moved != share {
				t.Fatalf("retire moved %d chunks, err %v; the dead member owned %d", moved, err, share)
			}
			m := cl.Map()
			if got := m.Current().Members; !slices.Equal(got, []simnet.NodeID{0, 2, 3}) {
				t.Fatalf("published members %v, want 0, 2, 3", got)
			}
			for _, id := range m.Current().Members {
				requireOwned(t, addrs[id], id, m, blocks, r)
			}
		})
	}
}

// TestStaleMapWriterWritesUnderThePublishedMap: five members publish a
// sixth's join, and a cluster over all six retires it again. A writer that
// still holds the join's map cuts the next blocks six ways; the members,
// which hold the retire's map, refuse those chunks, and the writer polls,
// adopts the published map and writes the blocks again five ways, which a
// reader by that map reads back. Before members checked a chunk's part
// count against their map, they stored the six-way split, DistributeBlock
// returned nil, and neither block read back.
func TestStaleMapWriterWritesUnderThePublishedMap(t *testing.T) {
	_, addrs, five, six, blocks := staleWriter(t)
	writeAndReadBack(t, addrs, five, six, blocks)
}

// TestResyncedMemberIsHandedTheMap: as above, but member 0 restarts empty
// after the retire and is resynced before the stale writer writes to it;
// the writer's cached connection went with the old server, and its first
// put is asked again on a new one (Cluster.Call). A resync
// hands the member the map its plan came from, so it refuses the six-way
// split like every other member, and the blocks rewritten five ways are
// stored by every owner. A member resynced without the map took the six-way
// chunks on trust and then refused the rewrite as conflicting data.
func TestResyncedMemberIsHandedTheMap(t *testing.T) {
	servers, addrs, five, six, blocks := staleWriter(t)
	restart(t, servers[0])
	if _, err := six.ResyncMember(addrs[0]); err != nil {
		t.Fatal(err)
	}
	writeAndReadBack(t, addrs, five, six, blocks)
}

// staleWriter starts six servers and leaves two clusters over them: five,
// over the first five, has written 3 of the 5 blocks returned, bootstrapped
// the sixth server and published its join; six, over all six, has retired
// the sixth again. five still holds the join's map.
func staleWriter(t *testing.T) ([]*Server, []string, *Cluster, *Cluster, []*chain.Block) {
	const n, r = 5, 2
	servers, addrs := startServers(t, n+1)
	five, err := NewCluster(addrs[:n], r)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { five.Close() })
	blocks := seededBlocks(t, 7, 5, 16)
	for _, b := range blocks[:3] {
		if err := five.DistributeBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := five.BootstrapNewMember(addrs[n]); err != nil {
		t.Fatal(err)
	}
	if _, err := five.PublishEpoch(memberIDs(n+1), addrs); err != nil {
		t.Fatal(err)
	}
	six, err := NewCluster(addrs, r)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { six.Close() })
	if _, err := six.RetireMember(addrs[n]); err != nil {
		t.Fatal(err)
	}
	if stale := five.Map(); len(stale.Current().Members) != n+1 {
		t.Fatalf("the writer's map lists %d members, want the stale %d", len(stale.Current().Members), n+1)
	}
	return servers, addrs, five, six, blocks
}

// writeAndReadBack has the stale writer five write blocks 3 and 4, then
// checks that it adopted the map six serves, that six reads every block
// back, and that every member holds every chunk it owns.
func writeAndReadBack(t *testing.T, addrs []string, five, six *Cluster, blocks []*chain.Block) {
	t.Helper()
	const r = 2
	for _, b := range blocks[3:] {
		if err := five.DistributeBlock(b); err != nil {
			t.Fatalf("block %d: %v", b.Header.Height, err)
		}
	}
	m := six.Map()
	if !reflect.DeepEqual(five.Map(), m) {
		t.Fatalf("the writer holds %+v, the members serve %+v", five.Map(), m)
	}
	for _, b := range blocks {
		if got, err := six.RetrieveBlock(b.Header); err != nil || got.Hash() != b.Hash() {
			t.Errorf("block %d: %v", b.Header.Height, err)
		}
	}
	for _, id := range m.Current().Members {
		requireOwned(t, addrs[id], id, m, blocks, r)
	}
}

// TestMemberThatMissedAPublishIsHandedTheMap: member 0 holds an older map
// than the others, as after missing a publish, and by it a block written
// under the newest epoch has three parts, not four. It refuses the
// writer's chunks until the writer hands it the writer's map, which it
// keeps as the newer; the block is then stored whole.
func TestMemberThatMissedAPublishIsHandedTheMap(t *testing.T) {
	const n, r = 4, 2
	servers, addrs := startServers(t, n)
	var older core.EpochMap
	for _, e := range []struct {
		ids   []simnet.NodeID
		addrs []string
	}{{memberIDs(n), addrs}, {memberIDs(n - 1), addrs[:n-1]}} {
		if _, err := older.Push(0, e.ids, e.addrs); err != nil {
			t.Fatal(err)
		}
	}
	newer := slices.Clone(older)
	if _, err := newer.Push(0, memberIDs(n), addrs); err != nil {
		t.Fatal(err)
	}
	for i, addr := range addrs {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		held := newer
		if i == 0 {
			held = older
		}
		if err := c.SetClusterMap(held); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	cl, err := NewCluster(addrs, r)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	b := testBlocks(t, 1, 24)[0]
	if err := cl.DistributeBlock(b); err != nil {
		t.Fatal(err)
	}
	servers[0].mu.Lock()
	held := servers[0].cmap
	servers[0].mu.Unlock()
	if len(held) != len(newer) {
		t.Fatalf("member 0 holds a map of %d epochs, want the writer's %d", len(held), len(newer))
	}
	requireShare(t, servers[0], 0, []*chain.Block{b}, n, r)
}
