package core

import (
	"bytes"
	"reflect"
	"testing"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/simnet"
	"icistrategy/internal/storage"
)

// clusterShares resolves, from the write epoch alone, what the leader of
// cluster c must send for block b: its own id, the members that own a chunk
// in roster order, and each one's share in increasing chunk order.
func clusterShares(t *testing.T, sys *System, c int, b *chain.Block) (leader simnet.NodeID, owners []simnet.NodeID, share map[simnet.NodeID][]int) {
	t.Helper()
	ci := sys.clusters[c]
	epoch := ci.At(b.Header.Height)
	leader, err := ci.leaderAt(b.Header.Height)
	if err != nil {
		t.Fatal(err)
	}
	share = map[simnet.NodeID][]int{}
	for idx := range epoch.Members {
		os, err := epoch.Owners(b.Hash().Uint64(), idx, sys.cfg.Replication)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range os {
			share[o] = append(share[o], idx)
		}
	}
	for _, m := range epoch.Members {
		if len(share[m]) > 0 {
			owners = append(owners, m)
		}
	}
	return leader, owners, share
}

// largestRemoteShare picks the member other than the leader that owns the
// most chunks (the first such in roster order).
func largestRemoteShare(leader simnet.NodeID, owners []simnet.NodeID, share map[simnet.NodeID][]int) simnet.NodeID {
	best := leader // share[leader] counts as empty below
	for _, o := range owners {
		if o != leader && (best == leader || len(share[o]) > len(share[best])) {
			best = o
		}
	}
	return best
}

// TestShareOneVotePerOwner pins the protocol's counts on a
// clean block: one chunk message per remote owner holding its whole share
// under one header, one vote per owner, a certificate of at most one vote per
// owner whose real size is what the commit message is charged, and every
// recovery counter at zero.
func TestShareOneVotePerOwner(t *testing.T) {
	sys, gen := buildSystem(t, Config{Nodes: 32, Clusters: 2, Replication: 2, Seed: 191})
	b := produceAndSettle(t, sys, gen, 1, 64)[0]
	if !sys.AllCommitted(b.Hash()) {
		t.Fatal("clean block not committed everywhere")
	}
	var wantVotes, wantChunkMsgs, wantChunkBytes, wantCommitBytes int64
	for c := 0; c < sys.NumClusters(); c++ {
		leader, owners, share := clusterShares(t, sys, c, b)
		members := sys.clusters[c].At(b.Header.Height).Members
		groups, err := SplitBlock(b, len(members))
		if err != nil {
			t.Fatal(err)
		}
		wantVotes += int64(len(owners))
		for _, o := range owners {
			if o == leader {
				continue
			}
			wantChunkMsgs++
			wantChunkBytes += chain.HeaderSize
			for _, idx := range share[o] {
				g := groups[idx] // position fields, sub-body, proofs
				wantChunkBytes += 16 + int64(len(g.Encode()))
				for _, p := range g.Proofs {
					wantChunkBytes += int64(p.EncodedSize())
				}
			}
		}
		cm, ok := sys.nodes[leader].commits[b.Hash()]
		if !ok {
			t.Fatalf("cluster %d: leader kept no certificate", c)
		}
		if len(cm.Votes) > len(owners) {
			t.Fatalf("cluster %d: certificate of %d votes for %d owners", c, len(cm.Votes), len(owners))
		}
		size := chain.HeaderSize + 8
		for _, v := range cm.Votes {
			if !reflect.DeepEqual(v.Chunks, share[v.Voter]) {
				t.Fatalf("cluster %d: member %d voted over %v, its share is %v", c, v.Voter, v.Chunks, share[v.Voter])
			}
			size += v.EncodedSize()
		}
		wantCommitBytes += int64(size * (len(members) - 1))
	}
	net := sys.Network()
	if got := sys.Registry().Snapshot()["consensus.votes"]; got != float64(wantVotes) {
		t.Errorf("consensus.votes = %v, want one per owner = %d", got, wantVotes)
	}
	if got := net.KindTraffic(KindChunk); got.Messages != wantChunkMsgs || got.Bytes != wantChunkBytes {
		t.Errorf("chunk traffic %+v, want %d messages (one per remote owner) of %d bytes (header once per share)", got, wantChunkMsgs, wantChunkBytes)
	}
	if got := net.KindTraffic(KindVote).Messages; got != wantChunkMsgs {
		t.Errorf("%d vote messages, want one per remote owner = %d", got, wantChunkMsgs)
	}
	if got := net.KindTraffic(KindCommit).Bytes; got != wantCommitBytes {
		t.Errorf("commit traffic %d bytes, want %d (the certificate's votes at their own sizes)", got, wantCommitBytes)
	}
	if work := recoveryWork(t, sys.Registry()); len(work) != 0 {
		t.Errorf("failure-free block recorded recovery work: %v", work)
	}
}

// TestShareLostIsResentWhole drops the leader's share to one owner: the
// block waits (both owners of a chunk must approve), the coverage check
// re-sends what that owner is owed as one message, and the block commits.
func TestShareLostIsResentWhole(t *testing.T) {
	sys, gen := buildSystem(t, Config{Nodes: 32, Clusters: 2, Replication: 2, Seed: 192})
	net := sys.Network()
	net.EnableFaults(192, simnet.FaultConfig{})
	txs := gen.NextTxs(64)
	// The victim depends on the block's hash, which only exists once the
	// block does: build the block, cut the link, then propose.
	b, err := chain.NewBlock(0, blockcrypto.ZeroHash, txs, 0, 0) // what ProduceBlock builds first
	if err != nil {
		t.Fatal(err)
	}
	leader, owners, share := clusterShares(t, sys, 0, b)
	victim := largestRemoteShare(leader, owners, share)
	if err := net.SetLinkFaults(leader, victim, simnet.FaultConfig{DropRate: 1}); err != nil {
		t.Fatal(err)
	}
	produced, err := sys.ProduceBlock(txs)
	if err != nil {
		t.Fatal(err)
	}
	if produced.Hash() != b.Hash() {
		t.Fatal("test built a different block than the system produced")
	}
	net.Run(net.Now() + coverInterval/2)
	if ok, _ := sys.ClusterCommitted(0, b.Hash()); ok {
		t.Fatal("cluster committed without the victim's approvals")
	}
	if err := net.SetLinkFaults(leader, victim, simnet.FaultConfig{}); err != nil {
		t.Fatal(err)
	}
	net.RunUntilIdle()
	if !sys.AllCommitted(b.Hash()) {
		t.Fatal("block did not commit after the re-send")
	}
	if err := sys.ClusterHoldsBlock(0, b.Hash()); err != nil {
		t.Fatal(err)
	}
	if got := sys.Registry().Counter("ici.distribute.chunk_resends").Value(); got != int64(len(share[victim])) {
		t.Errorf("leader re-sent %d chunks, want the victim's share of %d", got, len(share[victim]))
	}
	// The re-send, and whatever reassignment the same coverage check gave
	// the victim, arrived as one message; the other is the commit.
	if tr, _ := net.Traffic(victim); tr.MsgsRecv != 2 {
		t.Errorf("victim received %d messages, want 2: one share, one commit", tr.MsgsRecv)
	}
	for _, idx := range share[victim] {
		if !sys.nodes[victim].store.HasChunk(storage.ChunkID{Block: b.Hash(), Index: idx}) {
			t.Errorf("victim does not hold chunk %d of its share", idx)
		}
	}
}

// TestShareRejectedChunkIsReassigned tampers one transaction of one
// owner's share in flight: the owner signs one approving vote over the rest
// and one rejecting vote, the leader reassigns the rejected chunk at once
// (no coverage timer), and the block commits with the chunk on the stand-in.
func TestShareRejectedChunkIsReassigned(t *testing.T) {
	sys, gen := buildSystem(t, Config{Nodes: 32, Clusters: 2, Replication: 2, Seed: 193})
	net := sys.Network()
	net.EnableFaults(193, simnet.FaultConfig{})
	txs := gen.NextTxs(64)
	b, err := chain.NewBlock(0, blockcrypto.ZeroHash, txs, 0, 0) // what ProduceBlock builds first
	if err != nil {
		t.Fatal(err)
	}
	leader, owners, share := clusterShares(t, sys, 0, b)
	victim := largestRemoteShare(leader, owners, share)
	if len(share[victim]) < 2 {
		t.Fatalf("victim's share %v has one chunk: pick another seed", share[victim])
	}
	if err := net.SetLinkFaults(leader, victim, simnet.FaultConfig{CorruptRate: 1, Corrupt: ChaosCorrupter()}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ProduceBlock(txs); err != nil {
		t.Fatal(err)
	}
	net.Run(net.Now() + coverInterval/2)
	if ok, _ := sys.ClusterCommitted(0, b.Hash()); !ok {
		t.Fatal("cluster waited for the coverage timer: the rejected chunk was not reassigned at once")
	}
	net.RunUntilIdle()
	if !sys.AllCommitted(b.Hash()) {
		t.Fatal("block not committed everywhere")
	}
	if err := sys.ClusterHoldsBlock(0, b.Hash()); err != nil {
		t.Fatal(err)
	}
	snap := sys.Registry().Snapshot()
	if snap["ici.verify.rejections"] != 1 {
		t.Fatalf("%v chunk rejections, want 1", snap["ici.verify.rejections"])
	}
	var wantVotes int
	for c := 0; c < sys.NumClusters(); c++ {
		_, os, _ := clusterShares(t, sys, c, b)
		wantVotes += len(os)
	}
	// Beyond one vote per owner: the victim's rejecting vote and the
	// stand-in's vote on the reassigned chunk.
	if got := snap["consensus.votes"]; got != float64(wantVotes+2) {
		t.Errorf("consensus.votes = %v, want %d", got, wantVotes+2)
	}
	held := 0
	for _, idx := range share[victim] {
		if sys.nodes[victim].store.HasChunk(storage.ChunkID{Block: b.Hash(), Index: idx}) {
			held++
		}
	}
	if held != len(share[victim])-1 {
		t.Errorf("victim holds %d of its %d chunks, want all but the one it rejected", held, len(share[victim]))
	}
	if got := sys.Registry().Counter("ici.distribute.chunk_resends").Value(); got != 0 {
		t.Errorf("%d chunk re-sends: reassignment went through the coverage timer", got)
	}
}

// TestShareVerdictIsTheInlineCheck holds the check a leader starts when it
// sends a share to the check the owner would run on delivery: for a clean
// share and for shares whose stored bytes are damaged each way a leader or a
// link can damage them, the verdict reports, chunk by chunk, what AdoptChunk
// inline returns — the chunk to store or the error text. A share rewritten
// in flight — by ChaosCorrupter, or a rewrite that keeps the chunks under
// another header — carries the sender's verdict along, and it must be
// checked inline instead. Trusting the carried verdict is not a
// hypothetical: with it, TestShareRejectedChunkIsReassigned fails
// ("0 chunk rejections, want 1"), the owner approving the chunk its link
// tampered with.
func TestShareVerdictIsTheInlineCheck(t *testing.T) {
	txs := fixtureTxs(t)
	// A share of three of a 16-member cluster's chunks; damage goes to the
	// middle one, at its fourth transaction.
	const parts, damaged, at = 16, 1, 3
	owned := []int{2, 7, 11}
	share := func(txs []*chain.Transaction) shareMsg {
		b, err := chain.NewBlock(0, blockcrypto.ZeroHash, txs, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		groups, err := SplitBlock(b, parts)
		if err != nil {
			t.Fatal(err)
		}
		m := shareMsg{Header: b.Header}
		for _, idx := range owned {
			m.Chunks = append(m.Chunks, groups[idx].Chunk(b.Hash(), groups[idx].Encode()))
		}
		return m
	}
	clean := share(txs)
	// One transaction signed wrongly before the block was built: its proof is
	// sound, only its signature fails.
	forgedTxs := append([]*chain.Transaction(nil), txs...)
	forgedAt := clean.Chunks[damaged].TxStart + at
	forged := *forgedTxs[forgedAt]
	forged.Signature = append([]byte(nil), forged.Signature...)
	forged.Signature[0] ^= 1
	forgedTxs[forgedAt] = &forged
	// reencode rewrites a chunk's stored bytes from its decoded group.
	reencode := func(c *storage.Chunk, edit func(g *Group)) {
		g, err := DecodeGroup(c.ID.Index, c.Parts, c.TxStart, c.Data, c.Proofs)
		if err != nil {
			t.Fatal(err)
		}
		edit(&g)
		c.Data, c.Proofs = g.Encode(), g.Proofs
	}

	cases := []struct {
		name   string
		m      shareMsg
		damage func(c *storage.Chunk)
	}{
		{"clean", clean, nil},
		{"tampered by the leader", clean, func(c *storage.Chunk) { // what onPropose does under TamperChunks
			reencode(c, func(g *Group) { chunkDamage["tampered transaction"](g, 0) })
		}},
		{"wrong leaf index", clean, func(c *storage.Chunk) {
			reencode(c, func(g *Group) { chunkDamage["wrong leaf index"](g, at) })
		}},
		{"forged signature", share(forgedTxs), nil},
		{"more transactions than proofs", clean, func(c *storage.Chunk) { c.Proofs = c.Proofs[:len(c.Proofs)-1] }},
		{"cut one transaction short", clean, func(c *storage.Chunk) {
			reencode(c, func(g *Group) { g.Txs, g.Proofs = g.Txs[:len(g.Txs)-1], g.Proofs[:len(g.Proofs)-1] })
		}},
		{"one flipped byte", clean, func(c *storage.Chunk) {
			c.Data = bytes.Clone(c.Data)
			c.Data[len(c.Data)/2] ^= 0xff
		}},
	}
	type result struct {
		chunk storage.Chunk
		err   string
	}
	outcome := func(chk storage.Chunk, err error) result { return result{chk, errText(err)} }
	inline := func(m shareMsg, i int) result {
		c := m.Chunks[i]
		return outcome(AdoptChunk(m.Header, c.ID.Index, c.Parts, c.TxStart, c.Data, c.Proofs))
	}
	corrupt := ChaosCorrupter()
	for ci, tc := range cases {
		m := tc.m
		m.Chunks = append([]storage.Chunk(nil), m.Chunks...)
		if tc.damage != nil {
			tc.damage(&m.Chunks[damaged])
		}
		m.verdict = startVerdict(m)
		<-m.verdict.done
		for i := range m.Chunks {
			want := inline(m, i)
			if got := outcome(m.verdict.adopted[i], m.verdict.errs[i]); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: verdict on chunk %d says %q, inline %q", tc.name, i, got.err, want.err)
			}
			if got := outcome(m.verify(i)); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: delivered chunk %d checked as %q, inline %q", tc.name, i, got.err, want.err)
			}
			// The reference must tell the cases apart.
			if bad := tc.name != "clean" && i == damaged; bad != (want.err != "<nil>") {
				t.Fatalf("%s: inline check of chunk %d says %q", tc.name, i, want.err)
			}
		}

		out, ok := corrupt(simnet.Message{Kind: KindChunk, Payload: m}, blockcrypto.NewRNG(uint64(ci)))
		if !ok {
			t.Fatalf("%s: ChaosCorrupter declined a share", tc.name)
		}
		rewritten := out.(shareMsg)
		if rewritten.verdict != m.verdict {
			t.Fatalf("%s: the rewrite did not carry the sender's verdict: nothing is tested", tc.name)
		}
		stale := 0
		for i := range rewritten.Chunks {
			want := inline(rewritten, i)
			if got := outcome(rewritten.verify(i)); !reflect.DeepEqual(got, want) {
				t.Errorf("%s, rewritten in flight: chunk %d checked as %q, inline %q", tc.name, i, got.err, want.err)
			}
			if want.err != errText(m.verdict.errs[i]) {
				stale++
			}
		}
		if tc.name == "clean" && stale != 1 {
			t.Errorf("clean share rewritten in flight: %d chunks where the sender's verdict differs from the delivered bytes, want 1", stale)
		}

		reheaded := m
		reheaded.Header.MerkleRoot[0] ^= 1
		for i := range reheaded.Chunks {
			if got, want := outcome(reheaded.verify(i)), inline(reheaded, i); !reflect.DeepEqual(got, want) || want.err == "<nil>" {
				t.Errorf("%s under another root: chunk %d checked as %q, inline %q", tc.name, i, got.err, want.err)
			}
		}
	}
}

// TestShareDuplicatesAreIdempotent delivers every message twice: the second
// copy of a share finds every chunk held and only votes again, no vote is
// counted twice, and every node stores what it stores in a clean run.
func TestShareDuplicatesAreIdempotent(t *testing.T) {
	cfg := Config{Nodes: 32, Clusters: 2, Replication: 2, Seed: 194}
	run := func(dup bool) (*System, *chain.Block) {
		sys, gen := buildSystem(t, cfg)
		if dup {
			sys.Network().EnableFaults(194, simnet.FaultConfig{DupRate: 1})
		}
		return sys, produceAndSettle(t, sys, gen, 1, 64)[0]
	}
	sys, b := run(true)
	clean, _ := run(false)
	if !sys.AllCommitted(b.Hash()) {
		t.Fatal("block not committed everywhere under duplicate delivery")
	}
	var wantDupChunks, wantVotes int64
	for c := 0; c < sys.NumClusters(); c++ {
		leader, owners, share := clusterShares(t, sys, c, b)
		wantVotes += int64(len(owners))
		for _, o := range owners {
			if o != leader {
				wantDupChunks += int64(len(share[o]))
			}
		}
	}
	if got := sys.Registry().Counter("ici.distribute.duplicate_chunks").Value(); got != wantDupChunks {
		t.Errorf("ici.distribute.duplicate_chunks = %d, want every chunk of every remote share once = %d", got, wantDupChunks)
	}
	if got := sys.Registry().Snapshot()["consensus.votes"]; got != float64(wantVotes) {
		t.Errorf("consensus.votes = %v under duplicate delivery, want one per owner = %d", got, wantVotes)
	}
	for id, n := range sys.nodes {
		if got, want := n.store.Stats(), clean.nodes[id].store.Stats(); got != want {
			t.Errorf("node %d stores %+v, a clean run %+v", id, got, want)
		}
	}
}

// TestOwnersRefuseAShareCutShort cuts every group of every share on the wire
// one transaction short, its proof with it: each transaction left still
// proves into the root and is signed, so only the owner's position rule
// tells the group from the chunk it claims to be. No member stores a short
// chunk, and every block committed everywhere is one each cluster holds.
func TestOwnersRefuseAShareCutShort(t *testing.T) {
	sys, gen := buildSystem(t, Config{Nodes: 12, Clusters: 2, Replication: 2, Seed: 7})
	cuts := 0
	sys.Network().EnableFaults(7, simnet.FaultConfig{CorruptRate: 1, Corrupt: func(msg simnet.Message, _ *blockcrypto.RNG) (any, bool) {
		m, ok := msg.Payload.(shareMsg)
		if !ok {
			return nil, false
		}
		m.Chunks = append([]storage.Chunk(nil), m.Chunks...)
		for i := range m.Chunks {
			c := &m.Chunks[i]
			txs, err := chain.DecodeBody(c.Data)
			if err != nil {
				t.Error(err)
				return nil, false
			}
			if len(txs) > 0 {
				c.Data, c.Proofs = (&Group{Txs: txs[:len(txs)-1]}).Encode(), c.Proofs[:len(c.Proofs)-1]
				cuts++
			}
		}
		return m, true
	}})
	blocks := produceAndSettle(t, sys, gen, 2, 24)
	if cuts == 0 {
		t.Fatal("no share was cut: nothing was tested")
	}
	for id, n := range sys.nodes {
		for _, h := range n.store.Headers() {
			for _, idx := range n.store.ChunksForBlock(h.Hash()) {
				chk := storedChunk(t, n.store, storage.ChunkID{Block: h.Hash(), Index: idx})
				g, err := DecodeGroup(idx, chk.Parts, chk.TxStart, chk.Data, chk.Proofs)
				if err == nil {
					err = g.ProvesChunk(h, chk.Parts, idx)
				}
				if err != nil {
					t.Errorf("node %d stores chunk %d of block %d: %v", id, idx, h.Height, err)
				}
			}
		}
	}
	for _, b := range blocks {
		if !sys.AllCommitted(b.Hash()) {
			continue
		}
		for c := 0; c < sys.NumClusters(); c++ {
			if err := sys.ClusterHoldsBlock(c, b.Hash()); err != nil {
				t.Errorf("block %d committed everywhere: %v", b.Header.Height, err)
			}
		}
	}
}
