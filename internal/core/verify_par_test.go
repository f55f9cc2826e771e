package core

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/metrics"
	"icistrategy/internal/simnet"
	"icistrategy/internal/storage"
	"icistrategy/internal/trace"
	"icistrategy/internal/workload"
)

// verifyGroupSeq is the sequential loop Group.Verify was before its
// per-transaction checks went fork-join, kept as the reference the
// differential test compares against. Without sigs it is the reference for
// Group.Proves; ownerSeq puts the position rule in front of it for the
// owner's check.
func verifyGroupSeq(root blockcrypto.Hash, g Group, sigs bool) error {
	if len(g.Txs) != len(g.Proofs) {
		return fmt.Errorf("%w: %d txs with %d proofs", ErrBadGroup, len(g.Txs), len(g.Proofs))
	}
	for i, tx := range g.Txs {
		if g.Proofs[i].LeafIndex != g.TxStart+i {
			return fmt.Errorf("%w: proof %d has leaf index %d, want %d", ErrBadGroup, i, g.Proofs[i].LeafIndex, g.TxStart+i)
		}
		if err := chain.VerifyProof(root, tx.ID(), g.Proofs[i]); err != nil {
			return fmt.Errorf("core: tx %d proof: %w", g.TxStart+i, err)
		}
		if !sigs {
			continue
		}
		if err := tx.VerifySignature(); err != nil {
			return fmt.Errorf("core: tx %d: %w", g.TxStart+i, err)
		}
	}
	return nil
}

// ownerSeq is the reference for Group.Verify: the group's own position
// (placed), then the sequential loop.
func ownerSeq(hdr chain.Header, g Group) error {
	if err := placed(hdr, g.Parts, g.Index, g.Index, g.Parts, g.TxStart, len(g.Txs)); err != nil {
		return err
	}
	return verifyGroupSeq(hdr.MerkleRoot, g, true)
}

// fixtureTxs signs the 256 transactions every chunk fixture is cut from.
func fixtureTxs(t testing.TB) []*chain.Transaction {
	t.Helper()
	gen, err := workload.NewGenerator(workload.Config{Accounts: 50, PayloadBytes: 40, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	return gen.NextTxs(256)
}

// chunkFixture builds the chunk a 16-member cluster's member receives from a
// block of the given transactions — 16 of them with their proofs, starting at
// transaction 32 — and the block's header. The block is built over a
// forged signature at each chunk position in badSigAt, so those transactions
// carry a valid proof and fail only the signature check — what a leader
// distributing a bad block sends.
func chunkFixture(t testing.TB, txs []*chain.Transaction, badSigAt ...int) (chain.Header, Group) {
	t.Helper()
	const parts, idx, start = 16, 2, 32 // SplitCounts(256, 16): group 2 starts at transaction 32
	txs = append([]*chain.Transaction(nil), txs...)
	for _, i := range badSigAt {
		forged := *txs[start+i]
		forged.Signature = append([]byte(nil), forged.Signature...)
		forged.Signature[0] ^= 1
		txs[start+i] = &forged
	}
	b, err := chain.NewBlock(0, blockcrypto.ZeroHash, txs, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	groups, err := SplitBlock(b, parts)
	if err != nil {
		t.Fatal(err)
	}
	return b.Header, groups[idx]
}

// The ways a chunk can be damaged in flight at one position, each applied to
// a copy (the fixture's slices are shared between cases).
var chunkDamage = map[string]func(g *Group, i int){
	"tampered transaction": func(g *Group, i int) {
		tx := *g.Txs[i]
		tx.Amount++
		g.Txs = append([]*chain.Transaction(nil), g.Txs...)
		g.Txs[i] = &tx
	},
	"wrong leaf index": func(g *Group, i int) {
		g.Proofs = append([]chain.Proof(nil), g.Proofs...)
		g.Proofs[i].LeafIndex++
	},
	"bad proof": func(g *Group, i int) {
		g.Proofs = append([]chain.Proof(nil), g.Proofs...)
		p := g.Proofs[i]
		p.Steps = append([]chain.ProofStep(nil), p.Steps...)
		p.Steps[0].Sibling[0] ^= 1
		g.Proofs[i] = p
	},
	// Transaction i and the next (the one before, at the end) trade places,
	// their proofs with them, the labels kept: every proof still leads from
	// its transaction to the root, through steps that spell the other
	// position.
	"swapped with its neighbour": func(g *Group, i int) {
		j := i + 1
		if j == len(g.Txs) {
			j = i - 1
		}
		g.Txs = append([]*chain.Transaction(nil), g.Txs...)
		g.Proofs = append([]chain.Proof(nil), g.Proofs...)
		g.Txs[i], g.Txs[j] = g.Txs[j], g.Txs[i]
		g.Proofs[i].Steps, g.Proofs[j].Steps = g.Proofs[j].Steps, g.Proofs[i].Steps
	},
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestVerifyChunkMatchesSequential damages a chunk at each position in each
// way, and in pairs (two failures at once must report the lower index, as
// the sequential loop does), and requires the one group check both drivers
// call to return the reference's error text at one core and at four: the
// fork-join Verify on the decoded group (the simulator's path), Verify on
// the group decoded back from its stored bytes (the TCP server's path), and
// the reader's Merkle half, Proves.
func TestVerifyChunkMatchesSequential(t *testing.T) {
	txs := fixtureTxs(t)
	hdr, good := chunkFixture(t, txs)
	kinds := make([]string, 0, len(chunkDamage))
	for k := range chunkDamage {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)

	type testCase struct {
		name string
		hdr  chain.Header
		g    Group
	}
	cases := []testCase{{"intact", hdr, good}}
	short := good
	short.Proofs = good.Proofs[:len(good.Proofs)-1]
	cases = append(cases, testCase{"proof count mismatch", hdr, short})
	cut := good
	cut.Txs, cut.Proofs = good.Txs[:len(good.Txs)-1], good.Proofs[:len(good.Proofs)-1]
	cases = append(cases, testCase{"cut one transaction short", hdr, cut})
	shifted := good
	shifted.TxStart += 16
	cases = append(cases, testCase{"shifted position", hdr, shifted})
	empty := good
	empty.Txs, empty.Proofs = nil, nil
	cases = append(cases, testCase{"empty chunk", hdr, empty})
	for _, k := range kinds {
		for i := range good.Txs {
			g := good
			chunkDamage[k](&g, i)
			cases = append(cases, testCase{fmt.Sprintf("%s at %d", k, i), hdr, g})
		}
	}
	// A transaction that fails only its signature, at each position, and
	// beside in-flight damage below and above it.
	for i := range good.Txs {
		r, g := chunkFixture(t, txs, i)
		cases = append(cases, testCase{fmt.Sprintf("bad signature at %d", i), r, g})
	}
	forgedHdr, forged := chunkFixture(t, txs, 6, 11)
	for _, k := range kinds {
		below, above := forged, forged
		chunkDamage[k](&below, 2)
		chunkDamage[k](&above, 9)
		cases = append(cases,
			testCase{"bad signatures at 6 and 11, " + k + " at 2", forgedHdr, below},
			testCase{"bad signatures at 6 and 11, " + k + " at 9", forgedHdr, above})
	}
	// Two failures of different kinds: every ordered pair of kinds, at a low
	// and a high position.
	for _, lowKind := range kinds {
		for _, highKind := range kinds {
			for _, pos := range [][2]int{{0, 15}, {3, 4}, {7, 12}} {
				g := good
				chunkDamage[highKind](&g, pos[1])
				chunkDamage[lowKind](&g, pos[0])
				cases = append(cases, testCase{fmt.Sprintf("%s at %d and %s at %d", lowKind, pos[0], highKind, pos[1]), hdr, g})
			}
		}
	}

	fromBytes := func(g Group, hdr chain.Header) error {
		_, err := AdoptChunk(hdr, g.Index, g.Parts, g.TxStart, g.Encode(), g.Proofs)
		return err
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, tc := range cases {
			want := errText(ownerSeq(tc.hdr, tc.g))
			if got := errText(tc.g.Verify(tc.hdr)); got != want {
				t.Errorf("GOMAXPROCS=%d %s: fork-join says %q, sequential says %q", procs, tc.name, got, want)
			}
			if got := errText(fromBytes(tc.g, tc.hdr)); got != want {
				t.Errorf("GOMAXPROCS=%d %s: decoded from stored bytes says %q, sequential says %q", procs, tc.name, got, want)
			}
			if got, want := errText(tc.g.Proves(tc.hdr.MerkleRoot)), errText(verifyGroupSeq(tc.hdr.MerkleRoot, tc.g, false)); got != want {
				t.Errorf("GOMAXPROCS=%d %s: Proves says %q, sequential without signatures says %q", procs, tc.name, got, want)
			}
		}
		runtime.GOMAXPROCS(prev)
	}

	// The reference itself must tell the cases apart, or the comparison
	// above proves nothing.
	if err := good.Verify(hdr); err != nil {
		t.Fatalf("intact chunk rejected: %v", err)
	}
	two := good
	chunkDamage["bad proof"](&two, 12)
	chunkDamage["tampered transaction"](&two, 7)
	if got := errText(two.Verify(hdr)); !strings.Contains(got, fmt.Sprintf("tx %d proof", good.TxStart+7)) {
		t.Fatalf("two failures reported %q, want the proof failure at index 7 (tx %d)", got, good.TxStart+7)
	}
	if err := forged.Verify(forgedHdr); !errors.Is(err, chain.ErrTxBadSignature) || !strings.Contains(err.Error(), fmt.Sprintf("tx %d:", good.TxStart+6)) {
		t.Fatalf("two forged signatures reported %v, want ErrTxBadSignature at index 6 (tx %d)", err, good.TxStart+6)
	}
	if err := forged.Proves(forgedHdr.MerkleRoot); err != nil {
		t.Fatalf("Proves looked at a signature: %v", err)
	}
	for _, g := range []Group{short, cut, shifted} {
		if err := g.Verify(hdr); !errors.Is(err, ErrBadGroup) {
			t.Fatalf("shape error %v does not wrap ErrBadGroup", err)
		}
	}
	for i := range good.Txs {
		g := good
		chunkDamage["swapped with its neighbour"](&g, i)
		if err := ownerSeq(hdr, g); !errors.Is(err, chain.ErrProofInvalid) {
			t.Errorf("transaction %d swapped with its neighbour: the owner's check says %v, want %v", i, err, chain.ErrProofInvalid)
		}
		if err := g.ProvesChunk(hdr, g.Parts, g.Index); !errors.Is(err, chain.ErrProofInvalid) {
			t.Errorf("transaction %d swapped with its neighbour: a reader's check says %v, want %v", i, err, chain.ErrProofInvalid)
		}
	}
}

// dumpNodes renders every node's public key and store contents — headers by height, every chunk's bytes by content
// address — in node-id order.
func dumpNodes(t *testing.T, sys *System) string {
	t.Helper()
	ids := make([]simnet.NodeID, 0, len(sys.nodes))
	for id := range sys.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var sb strings.Builder
	for _, id := range ids {
		n := sys.nodes[id]
		key := sys.PublicKey(id)
		if len(key) == 0 {
			t.Fatalf("node %d has no public key", id)
		}
		fmt.Fprintf(&sb, "node %d key=%x stats=%+v\n", id, key, n.store.Stats())
		for _, h := range n.store.Headers() {
			hash := h.Hash()
			fmt.Fprintf(&sb, "  header %d %x\n", h.Height, hash[:8])
			for _, idx := range n.store.ChunksForBlock(hash) {
				chk, err := n.store.Chunk(storage.ChunkID{Block: hash, Index: idx})
				if err != nil {
					t.Fatalf("node %d chunk %d of block %d: %v", id, idx, h.Height, err)
				}
				sum := blockcrypto.Sum256(chk.Data)
				fmt.Fprintf(&sb, "    chunk %d %d bytes %x\n", idx, len(chk.Data), sum[:])
			}
		}
	}
	return sb.String()
}

// TestSeededRunIdenticalAcrossGOMAXPROCS runs one seeded System through
// produce, retrieve, join, repair, archive and coded retrieval at one core
// and at four: the span forest, the registry, and every node's key and
// store must be byte-identical, because the forked checks
// touch nothing but the message they verify and the forked key derivations
// write only their own node's slot.
func TestSeededRunIdenticalAcrossGOMAXPROCS(t *testing.T) {
	run := func(procs int) (tree, reg, nodes string) {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		ring := trace.NewRing(1 << 16)
		registry := metrics.NewRegistry()
		sys := exerciseAllProtocols(t, trace.New(ring), registry, 97)
		return trace.Tree(ring.Events()), registry.JSON(), dumpNodes(t, sys)
	}
	tree1, reg1, nodes1 := run(1)
	tree4, reg4, nodes4 := run(4)
	if tree1 != tree4 {
		t.Errorf("span forests differ between GOMAXPROCS 1 and 4:\n--- 1 ---\n%s\n--- 4 ---\n%s", head(tree1, 40), head(tree4, 40))
	}
	if reg1 != reg4 {
		t.Errorf("registry dumps differ:\n%s\n---\n%s", reg1, reg4)
	}
	if nodes1 != nodes4 {
		t.Errorf("node keys or stores differ:\n--- 1 ---\n%s\n--- 4 ---\n%s", head(nodes1, 60), head(nodes4, 60))
	}
	if !strings.Contains(nodes1, "chunk ") || !strings.Contains(tree1, "verify") {
		t.Fatal("the run stored no chunk or traced no verification: nothing was compared")
	}
}

// TestDuplicateCommitDroppedBeforeVerification delivers every message
// twice: the second copy of a commit announcement finds the header stored,
// is counted, and changes nothing — each node finalizes each block once and
// a leader, which applies its own commit directly, counts none for the
// blocks it led.
func TestDuplicateCommitDroppedBeforeVerification(t *testing.T) {
	cfg := Config{Nodes: 16, Clusters: 2, Replication: 2, Seed: 23}
	sys, gen := buildSystem(t, cfg)
	sys.Network().EnableFaults(23, simnet.FaultConfig{DupRate: 1})
	const blocks = 3
	produced := produceAndSettle(t, sys, gen, blocks, 16)
	for _, b := range produced {
		if !sys.AllCommitted(b.Hash()) {
			t.Fatalf("block %d not committed everywhere under duplicate delivery", b.Header.Height)
		}
	}
	// One duplicate per commit announcement received over the wire; a
	// leader receives none for the blocks it led.
	var want int64
	for id, n := range sys.nodes {
		if got := len(n.store.Headers()); got != blocks {
			t.Errorf("node %d finalized %d blocks, want %d", id, got, blocks)
		}
		want += blocks
		for _, b := range produced {
			if l, _ := n.cluster.leaderAt(b.Header.Height); l == id {
				want--
			}
		}
	}
	if got := sys.Registry().Counter("ici.distribute.duplicate_commits").Value(); got != want {
		t.Errorf("ici.distribute.duplicate_commits = %d, want one per commit received over the wire = %d", got, want)
	}

	// Without faults the counter stays at zero like every other one.
	clean, gen2 := buildSystem(t, cfg)
	produceAndSettle(t, clean, gen2, blocks, 16)
	if work := recoveryWork(t, clean.Registry()); len(work) != 0 {
		t.Fatalf("failure-free run recorded recovery work: %v", work)
	}
}

// BenchmarkVerifyChunk verifies one member's share of a 256-transaction
// block in a 16-member cluster (16 transactions); run with -cpu 1,2.
func BenchmarkVerifyChunk(b *testing.B) {
	hdr, g := chunkFixture(b, fixtureTxs(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Verify(hdr); err != nil {
			b.Fatal(err)
		}
	}
}
