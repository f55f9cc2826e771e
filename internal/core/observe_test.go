package core

import (
	"errors"
	"strings"
	"testing"

	"icistrategy/internal/chain"
	"icistrategy/internal/metrics"
	"icistrategy/internal/simnet"
	"icistrategy/internal/storage"
	"icistrategy/internal/trace"
	"icistrategy/internal/workload"
)

// clusterChunks collects every distinct chunk of b held inside cluster c —
// the full reassembly set a (possibly stale) member response could carry —
// and checks that they are b with the decoded reference: each chunk's bytes
// decoded, the transactions concatenated and the block checked whole
// (chain.Block.VerifyShape), not through ReassembleEncoding.
func clusterChunks(t *testing.T, sys *System, c int, b *chain.Block) []storage.Chunk {
	t.Helper()
	ci := sys.clusters[c]
	parts := len(ci.At(b.Header.Height).Members)
	found := make(map[int]storage.Chunk, parts)
	for _, m := range ci.Current().Members {
		node := sys.nodes[m]
		held, _ := node.heldChunks(b.Hash())
		for _, chk := range held {
			if _, ok := found[chk.ID.Index]; !ok {
				found[chk.ID.Index] = chk
			}
		}
	}
	if len(found) != parts {
		t.Fatalf("cluster %d holds %d of %d chunks", c, len(found), parts)
	}
	out := make([]storage.Chunk, 0, len(found))
	whole := &chain.Block{Header: b.Header}
	for i := 0; i < parts; i++ {
		txs, err := chain.DecodeBody(found[i].Data)
		if err != nil {
			t.Fatalf("cluster %d chunk %d: %v", c, i, err)
		}
		whole.Txs = append(whole.Txs, txs...)
		out = append(out, found[i])
	}
	if err := whole.VerifyShape(); err != nil {
		t.Fatalf("cluster %d: the chunks it holds are not block %d: %v", c, b.Header.Height, err)
	}
	return out
}

// TestStaleRoundResponseSkipsBookkeeping is the regression test for the
// cross-round aliasing bug in full-block retrieval: an answer to a timed-out
// round 1 arriving during round 2 used to count toward round 2's
// responded/waiting bookkeeping, so an empty stale answer could drive
// waiting to zero and fire the "every member answered" definitive failure
// while a round-2 answer was still in flight. The stale answer's chunk data
// must still merge — verified data speaks for itself and may complete the
// block.
func TestStaleRoundResponseSkipsBookkeeping(t *testing.T) {
	sys, gen := buildSystem(t, Config{Nodes: 12, Clusters: 2, Replication: 2, Seed: 90})
	b := produceAndSettle(t, sys, gen, 1, 12)[0]
	members, _ := sys.ClusterMembers(0)
	n := sys.nodes[members[0]]

	var got *chain.Block
	var gotErr error
	calls := 0
	n.RetrieveBlock(sys.net, b.Hash(), func(bb *chain.Block, err error) { got, gotErr, calls = bb, err, calls+1 })
	req := n.nextReq
	st := n.fetches[req]
	if st == nil {
		t.Fatal("no fetch state")
	}
	// Round 1 timed out; round 2 is in flight with one member still
	// unanswered.
	st.attempts, st.waiting, st.responded = 2, 1, map[simnet.NodeID]bool{}

	// A slow, empty round-1 answer lands mid-round-2.
	n.onBlockChunks(members[1], blockChunksMsg{Block: b.Hash(), ReqID: req, Round: 1})
	if calls != 0 {
		t.Fatalf("stale empty response terminated the retrieval (err=%v)", gotErr)
	}
	if st.waiting != 1 {
		t.Fatalf("stale response entered round bookkeeping: waiting=%d", st.waiting)
	}
	if len(st.responded) != 0 {
		t.Fatal("stale response marked its sender as having answered the current round")
	}
	if v := sys.Registry().Counter("ici.retrieve.stale_responses").Value(); v != 1 {
		t.Fatalf("ici.retrieve.stale_responses=%d, want 1", v)
	}

	// A stale answer that carries the full chunk set still completes the
	// block.
	chunks := clusterChunks(t, sys, 0, b)
	n.onBlockChunks(members[2], blockChunksMsg{
		Block: b.Hash(), ReqID: req, Round: 1, Chunks: chunks,
	})
	if calls != 1 || gotErr != nil || got == nil {
		t.Fatalf("stale full response did not complete: calls=%d err=%v", calls, gotErr)
	}
	if got.Hash() != b.Hash() {
		t.Fatal("reassembled block hash mismatch")
	}
	if _, ok := n.fetches[req]; ok {
		t.Fatal("fetch state leaked after completion")
	}
}

// TestStaleNegativeChunkRespSkipsRingAdvance is the single-chunk-fetch half
// of the same bug family: on a second pass over the source ring the same
// source is asked again, and its stale "don't have it" from the earlier,
// timed-out attempt used to double-advance the ring past it before the live
// answer arrived.
func TestStaleNegativeChunkRespSkipsRingAdvance(t *testing.T) {
	sys, gen := buildSystem(t, Config{Nodes: 12, Clusters: 2, Replication: 2, Seed: 91})
	b := produceAndSettle(t, sys, gen, 1, 12)[0]
	members, _ := sys.ClusterMembers(0)
	n := sys.nodes[members[0]]
	parts := len(sys.clusters[0].At(b.Header.Height).Members)
	idx := -1
	for i := 0; i < parts; i++ {
		if !n.store.HasChunk(storage.ChunkID{Block: b.Hash(), Index: i}) {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Skip("node owns every chunk under this seed")
	}

	calls := 0
	var gotErr error
	srcs := []simnet.NodeID{members[1], members[2]}
	n.fetchChunk(sys.net, b.Hash(), idx, srcs, 0, "repair", func(err error) { calls++; gotErr = err })
	req := n.nextReq
	st := n.fetches[req]
	if st == nil {
		t.Fatal("no fetch state")
	}
	// Both sources time out (what the armed timers do), wrapping into a
	// second pass that re-asks sources[0] as attempt 3.
	st.timedOut = true
	n.advanceChunkSource(sys.net, req, st)
	st.timedOut = true
	n.advanceChunkSource(sys.net, req, st)
	if st.attempts != 3 || st.srcPos != 0 || st.passes != 1 {
		t.Fatalf("ring state after wrap: attempts=%d srcPos=%d passes=%d", st.attempts, st.srcPos, st.passes)
	}

	// The stale negative answering attempt 1 arrives from the very source
	// the fetch is currently waiting on.
	n.onChunkResp(sys.net, members[1], chunkRespMsg{Block: b.Hash(), ReqID: req, Attempt: 1})
	if st.srcPos != 0 {
		t.Fatalf("stale negative advanced the ring: srcPos=%d", st.srcPos)
	}
	if calls != 0 {
		t.Fatalf("stale negative terminated the fetch: err=%v", gotErr)
	}
	if v := sys.Registry().Counter("ici.retrieve.stale_responses").Value(); v != 1 {
		t.Fatalf("ici.retrieve.stale_responses=%d, want 1", v)
	}

	// Live answers still drive the ring to its definitive end.
	n.onChunkResp(sys.net, members[1], chunkRespMsg{Block: b.Hash(), ReqID: req, Attempt: st.attempts})
	if st.srcPos != 1 {
		t.Fatalf("current-attempt negative did not advance: srcPos=%d", st.srcPos)
	}
	n.onChunkResp(sys.net, members[2], chunkRespMsg{Block: b.Hash(), ReqID: req, Attempt: st.attempts})
	if calls != 1 || !errors.Is(gotErr, ErrChunkLost) {
		t.Fatalf("fetch end: calls=%d err=%v", calls, gotErr)
	}
	if len(n.fetches) != 0 {
		t.Fatal("fetch state leaked after definitive failure")
	}
}

// TestRetrieveExactlyOnceUnderFaults drives plain and coded retrievals
// through drop/duplicate/reorder fault injection and checks the documented
// contract: cb fires exactly once per call and no fetch state survives a
// terminal outcome.
func TestRetrieveExactlyOnceUnderFaults(t *testing.T) {
	sys, gen := buildSystem(t, Config{Nodes: 16, Clusters: 2, Replication: 2, Seed: 92})
	blocks := produceAndSettle(t, sys, gen, 3, 16)

	sys.Network().EnableFaults(93, simnet.FaultConfig{DropRate: 0.25, DupRate: 0.2, ReorderRate: 0.3})
	members, _ := sys.ClusterMembers(0)
	for _, b := range blocks {
		for _, id := range members[:3] {
			node := sys.nodes[id]
			calls := 0
			node.RetrieveBlock(sys.net, b.Hash(), func(*chain.Block, error) { calls++ })
			sys.Network().RunUntilIdle()
			if calls != 1 {
				t.Fatalf("node %d block %d: cb fired %d times", id, b.Header.Height, calls)
			}
			if len(node.fetches) != 0 {
				t.Fatalf("node %d block %d: %d fetch states leaked", id, b.Header.Height, len(node.fetches))
			}
		}
	}

	// Coded path: archive fault-free, then read back under faults.
	sys.Network().DisableFaults()
	var aerr error
	if err := sys.ArchiveBlock(0, blocks[0].Hash(), 1, func(err error) { aerr = err }); err != nil {
		t.Fatal(err)
	}
	sys.Network().RunUntilIdle()
	if aerr != nil {
		t.Fatal(aerr)
	}
	sys.Network().EnableFaults(94, simnet.FaultConfig{DropRate: 0.25, DupRate: 0.2, ReorderRate: 0.3})
	node := sys.nodes[members[0]]
	calls := 0
	node.RetrieveArchivedBlock(sys.net, blocks[0].Hash(), func(*chain.Block, error) { calls++ })
	sys.Network().RunUntilIdle()
	if calls != 1 {
		t.Fatalf("coded retrieve cb fired %d times", calls)
	}
	if len(node.fetches) != 0 {
		t.Fatalf("coded retrieve leaked %d fetch states", len(node.fetches))
	}
}

// exerciseAllProtocols runs every instrumented protocol path once under the
// given tracer/registry and returns the system.
func exerciseAllProtocols(t *testing.T, tr *trace.Tracer, reg *metrics.Registry, seed uint64) *System {
	t.Helper()
	sys, err := NewSystem(Config{
		Nodes: 16, Clusters: 2, Replication: 2, Seed: seed,
		Tracer: tr, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(workload.Config{Accounts: 50, PayloadBytes: 40, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	blocks := produceAndSettle(t, sys, gen, 2, 16)

	members, _ := sys.ClusterMembers(0)
	retrieved := false
	sys.nodes[members[0]].RetrieveBlock(sys.net, blocks[0].Hash(), func(_ *chain.Block, err error) {
		if err != nil {
			t.Errorf("retrieve: %v", err)
		}
		retrieved = true
	})
	sys.Network().RunUntilIdle()
	if !retrieved {
		t.Fatal("retrieve never completed")
	}

	if err := sys.JoinCluster(0, func(_ simnet.NodeID, err error) {
		if err != nil {
			t.Errorf("join: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	sys.Network().RunUntilIdle()

	if err := sys.RepairCluster(0, func(int) {}); err != nil {
		t.Fatal(err)
	}
	sys.Network().RunUntilIdle()

	if err := sys.ArchiveBlock(1, blocks[1].Hash(), 1, func(err error) {
		if err != nil {
			t.Errorf("archive: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	sys.Network().RunUntilIdle()

	members1, _ := sys.ClusterMembers(1)
	sys.nodes[members1[0]].RetrieveArchivedBlock(sys.net, blocks[1].Hash(), func(_ *chain.Block, err error) {
		if err != nil {
			t.Errorf("coded retrieve: %v", err)
		}
	})
	sys.Network().RunUntilIdle()
	return sys
}

// TestProtocolSpansAndCountersEnumerable checks the tentpole's surface: one
// run that touches every ICI protocol leaves (a) a named span per protocol
// phase in the recorder and (b) nonzero, enumerable counters in the
// registry.
func TestProtocolSpansAndCountersEnumerable(t *testing.T) {
	ring := trace.NewRing(1 << 16)
	reg := metrics.NewRegistry()
	exerciseAllProtocols(t, trace.New(ring), reg, 95)

	events := ring.Events()
	protos := make(map[string]bool)
	names := make(map[string]bool)
	for _, e := range events {
		protos[e.Proto] = true
		names[e.Name] = true
	}
	for _, p := range []string{"distribute", "verify", "retrieve", "bootstrap", "repair", "archive", "consensus", "net"} {
		if !protos[p] {
			t.Errorf("no %q events recorded", p)
		}
	}
	for _, n := range []string{"produce", "distribute", "commit", "retrieve", "bootstrap", "repair", "archive", "retrieve-archived", "decision"} {
		if !names[n] {
			t.Errorf("no span/point named %q recorded", n)
		}
	}

	snap := reg.Snapshot()
	for _, name := range []string{
		"ici.distribute.proposals", "ici.distribute.chunks_sent", "ici.distribute.commits",
		"ici.verify.chunks", "ici.verify.approvals",
		"consensus.votes", "consensus.decisions",
		"ici.retrieve.requests", "ici.retrieve.success", "ici.retrieve.bytes",
		"ici.bootstrap.joins", "ici.bootstrap.header_rounds", "ici.bootstrap.chunk_fetches",
		"ici.repair.scans",
		"ici.archive.blocks", "ici.archive.shares", "ici.archive.retrievals",
	} {
		if snap[name] <= 0 {
			t.Errorf("registry counter %q = %v, want > 0", name, snap[name])
		}
	}

	// The phase summary must attribute wire traffic to protocol phases.
	stats := trace.Summarize(events)
	if len(stats) == 0 {
		t.Fatal("empty phase summary")
	}
	var wireBytes int64
	for _, ps := range stats {
		wireBytes += ps.WireBytes
	}
	if wireBytes == 0 {
		t.Fatal("no wire bytes attributed to any phase")
	}
}

// TestTraceDeterministicAcrossRuns runs the same seeded scenario twice and
// requires byte-identical span trees and registry dumps: span IDs are
// allocated sequentially and timestamps come from the simulator's virtual
// clock, so tracing must not perturb (or be perturbed by) scheduling.
func TestTraceDeterministicAcrossRuns(t *testing.T) {
	run := func() (string, string) {
		ring := trace.NewRing(1 << 16)
		reg := metrics.NewRegistry()
		exerciseAllProtocols(t, trace.New(ring), reg, 96)
		return trace.Tree(ring.Events()), reg.JSON()
	}
	tree1, json1 := run()
	tree2, json2 := run()
	if tree1 != tree2 {
		t.Errorf("span trees differ between identical seeded runs:\n--- run1 ---\n%s\n--- run2 ---\n%s",
			head(tree1, 40), head(tree2, 40))
	}
	if json1 != json2 {
		t.Errorf("registry dumps differ:\n%s\n---\n%s", json1, json2)
	}
}

// recoveryCounters names every registry counter of recovery work —
// retries, timeouts, re-sends, probes, local read errors, and answers
// dropped as duplicate or kept out of a round as stale. A failure-free run
// leaves each at zero.
var recoveryCounters = []string{
	"ici.distribute.chunk_resends", "ici.distribute.commit_probes",
	"ici.distribute.duplicate_chunks", "ici.distribute.duplicate_votes",
	"ici.distribute.duplicate_commits",
	"ici.retrieve.retries", "ici.retrieve.stale_responses",
	"ici.retrieve.duplicate_responses", "ici.retrieve.local_chunk_errors",
	"ici.retrieve.chunk_timeouts", "ici.retrieve.chunk_retries",
	"ici.txquery.retries", "ici.txquery.stale_responses",
	"ici.bootstrap.retries",
}

// recoveryWork returns the recovery counters of reg that are not zero. A
// name the registry does not list fails the test, so a misspelt entry
// cannot read as zero.
func recoveryWork(t *testing.T, reg *metrics.Registry) map[string]float64 {
	t.Helper()
	snap := reg.Snapshot()
	work := make(map[string]float64)
	for _, name := range recoveryCounters {
		v, ok := snap[name]
		if !ok {
			t.Fatalf("registry lists no counter %q", name)
		}
		if v != 0 {
			work[name] = v
		}
	}
	return work
}

// head returns the first n lines of s (test-failure output trimming).
func head(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}
