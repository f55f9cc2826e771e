package chaostest

import (
	"fmt"
	"testing"
	"time"

	"icistrategy/internal/chain"
	"icistrategy/internal/core"
	"icistrategy/internal/simnet"
	"icistrategy/internal/workload"
)

// buildSystem assembles a system plus a transaction generator for one seed.
func buildSystem(t testing.TB, cfg core.Config) (*core.System, *workload.Generator) {
	t.Helper()
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(workload.Config{Accounts: 40, PayloadBytes: 32, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	return sys, gen
}

// finalizedReader returns the lowest-ID node that committed the block, or
// nil when no node did. Iterating IDs in order keeps runs deterministic.
func finalizedReader(sys *core.System, nodes int, block *chain.Block) *core.Node {
	for id := 0; id < nodes; id++ {
		n, err := sys.Node(simnet.NodeID(id))
		if err != nil {
			continue
		}
		if n.HasFinalized(block.Hash()) {
			return n
		}
	}
	return nil
}

// retrieveVerified runs a full-block retrieval through reader and checks
// the result against the original block. The retrieval itself re-verifies
// the Merkle root; this additionally pins hash and transaction count.
func retrieveVerified(t *testing.T, sys *core.System, reader *core.Node, want *chain.Block) {
	t.Helper()
	var got *chain.Block
	var gotErr error
	fired := false
	reader.RetrieveBlock(sys.Network(), want.Hash(), func(b *chain.Block, err error) {
		got, gotErr, fired = b, err, true
	})
	sys.Network().RunUntilIdle()
	if !fired {
		t.Fatalf("retrieve %s: callback never fired", want.Hash().Short())
	}
	if gotErr != nil {
		t.Fatalf("retrieve %s via node %d: %v", want.Hash().Short(), reader.ID(), gotErr)
	}
	if got.Hash() != want.Hash() || len(got.Txs) != len(want.Txs) {
		t.Fatalf("retrieve %s: wrong block back (%d txs, want %d)",
			want.Hash().Short(), len(got.Txs), len(want.Txs))
	}
}

// TestChaosSoak runs the distribute → verify → retrieve → repair lifecycle
// under randomized fault schedules for 20 independent seeds: message drops
// up to 10%, duplication, reordering, and at least one crash/restart per
// run. The invariant: every block that committed anywhere in the network
// must remain retrievable with Merkle-verified content, and membership
// repair must eventually restore full replication.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	for seed := uint64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runChaosLifecycle(t, seed)
		})
	}
}

func runChaosLifecycle(t *testing.T, seed uint64) {
	cfg := core.Config{Nodes: 18, Clusters: 2, Replication: 2, Seed: seed}
	sys, gen := buildSystem(t, cfg)
	net := sys.Network()

	// Drop rate varies per seed from 2% to the 10% ceiling; duplication and
	// reordering stay on for every run.
	drop := 0.02 + 0.02*float64(seed%5)
	net.EnableFaults(seed*2654435761+1, simnet.FaultConfig{
		DropRate:     drop,
		DupRate:      0.05,
		ReorderRate:  0.10,
		ReorderDelay: 200 * time.Millisecond,
	})

	members0, err := sys.ClusterMembers(0)
	if err != nil {
		t.Fatal(err)
	}
	members1, err := sys.ClusterMembers(1)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: distribute under faults, with one node crashed through the
	// first distributions and restarting mid-run, and a second crash later.
	victim := members0[int(seed)%len(members0)]
	if err := net.ScheduleCrash(victim, 5*time.Millisecond, 40*time.Second); err != nil {
		t.Fatal(err)
	}
	var blocks []*chain.Block
	produce := func(txs int) {
		t.Helper()
		b, perr := sys.ProduceBlock(gen.NextTxs(txs))
		if perr != nil {
			t.Fatal(perr)
		}
		net.RunUntilIdle()
		blocks = append(blocks, b)
	}
	produce(16)
	produce(16)
	victim2 := members1[int(seed/3)%len(members1)]
	if err := net.ScheduleCrash(victim2, 1*time.Millisecond, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	produce(16)
	produce(16)
	produce(16)

	// Phase 2: verify + retrieve. A block produced while both cluster
	// leaders happened to be crashed can legitimately miss its slot, so a
	// couple of gaps are tolerated — but every block that committed
	// anywhere must reassemble with a verified Merkle root, still under the
	// same fault regime.
	uncommitted := 0
	for _, b := range blocks {
		reader := finalizedReader(sys, cfg.Nodes, b)
		if reader == nil {
			uncommitted++
			continue
		}
		retrieveVerified(t, sys, reader, b)
	}
	if uncommitted > 2 {
		t.Fatalf("%d of %d blocks never committed anywhere", uncommitted, len(blocks))
	}

	// A light-client inclusion query through the same faulty network.
	probe := blocks[len(blocks)-1]
	reader := finalizedReader(sys, cfg.Nodes, probe)
	if reader == nil {
		reader = finalizedReader(sys, cfg.Nodes, blocks[0])
	}
	if reader == nil {
		t.Fatal("no committed block to query against")
	}
	for _, b := range blocks {
		if reader.HasFinalized(b.Hash()) {
			probe = b
			break
		}
	}
	var proof core.TxProof
	var proofErr error
	reader.QueryTxProof(net, probe.Hash(), probe.Txs[0].ID(), func(p core.TxProof, err error) {
		proof, proofErr = p, err
	})
	net.RunUntilIdle()
	if proofErr != nil {
		t.Fatalf("tx proof query: %v", proofErr)
	}
	if err := proof.Verify(); err != nil {
		t.Fatalf("tx proof verify: %v", err)
	}

	// Phase 3: a member departs permanently; repair re-establishes its
	// chunks on the surviving owners. Individual repair rounds may lose
	// fetches to the ongoing drops, so repair is re-run — each round only
	// re-fetches what is still missing — and must converge to zero lost.
	if err := sys.RemoveNode(members0[(int(seed)+1)%len(members0)]); err != nil {
		t.Fatal(err)
	}
	lost := -1
	for round := 0; round < 5; round++ {
		if err := sys.RepairCluster(0, func(l int) { lost = l }); err != nil {
			t.Fatal(err)
		}
		net.RunUntilIdle()
		if lost == 0 {
			break
		}
	}
	if lost != 0 {
		t.Fatalf("repair never converged: %d chunks still lost after 5 rounds", lost)
	}

	// Production continues after the departure. Which messages the fault
	// layer drops depends on the whole message pattern before, so one block
	// can lose the proposal to both leaders and legitimately never commit:
	// produce until one does, within a bound no drop rate here explains.
	reader = nil
	for attempt := 0; attempt < 3 && reader == nil; attempt++ {
		produce(16)
		reader = finalizedReader(sys, cfg.Nodes, blocks[len(blocks)-1])
	}
	if reader == nil {
		t.Fatalf("no block committed in 3 post-repair attempts")
	}
	retrieveVerified(t, sys, reader, blocks[len(blocks)-1])

	// The schedule must actually have exercised the fault machinery.
	fs := net.FaultStats()
	if fs.Dropped == 0 || fs.Duplicated == 0 || fs.Reordered == 0 {
		t.Fatalf("fault schedule inert: %+v", fs)
	}
	if fs.Crashes < 2 || fs.Restarts < 2 {
		t.Fatalf("expected 2 crash/restart cycles, got %+v", fs)
	}
	snap := sys.Registry().Snapshot()
	var recovery float64
	for _, name := range []string{
		"ici.retrieve.retries", "ici.txquery.retries", "ici.retrieve.chunk_timeouts",
		"ici.retrieve.chunk_retries", "ici.bootstrap.retries", "ici.distribute.duplicate_chunks",
		"ici.distribute.duplicate_votes", "ici.retrieve.duplicate_responses",
		"ici.distribute.chunk_resends", "ici.distribute.commit_probes",
	} {
		v, ok := snap[name]
		if !ok {
			t.Fatalf("registry lists no counter %q", name)
		}
		recovery += v
	}
	if recovery == 0 {
		t.Fatalf("no recovery work recorded despite faults:\n%s", sys.Registry().JSON())
	}
}

// TestChaosCorruptionIntegrity distributes blocks while a kind-aware
// corrupter tampers with chunks and votes in flight. Corruption may cost
// retries and re-sends but never integrity: tampered chunks fail their
// Merkle proofs at the verifiers, tampered votes fail their signatures at
// the leader, and every block that commits must retrieve bit-exact.
func TestChaosCorruptionIntegrity(t *testing.T) {
	cfg := core.Config{Nodes: 16, Clusters: 2, Replication: 2, Seed: 7}
	sys, gen := buildSystem(t, cfg)
	net := sys.Network()
	net.EnableFaults(40422, simnet.FaultConfig{
		DropRate:    0.03,
		CorruptRate: 0.08,
		Corrupt:     core.ChaosCorrupter(),
	})
	var blocks []*chain.Block
	for i := 0; i < 4; i++ {
		b, err := sys.ProduceBlock(gen.NextTxs(12))
		if err != nil {
			t.Fatal(err)
		}
		net.RunUntilIdle()
		blocks = append(blocks, b)
	}
	// Corruption of retrieval responses cannot be attributed to a chunk
	// (responses carry no per-tx proofs), so the read-back runs with the
	// corrupter off — what it checks is what distribution committed.
	// EnableFaults resets the counters, so capture them first.
	corrupted := net.FaultStats().Corrupted
	net.EnableFaults(40423, simnet.FaultConfig{DropRate: 0.03})
	committed := 0
	for i, b := range blocks {
		reader := finalizedReader(sys, cfg.Nodes, b)
		if reader == nil {
			continue // rejected under corruption: acceptable, never wrong
		}
		committed++
		retrieveVerified(t, sys, reader, b)
		_ = i
	}
	if committed == 0 {
		t.Fatal("no block survived 8% corruption; expected most to commit")
	}
	if corrupted == 0 {
		t.Fatal("corrupter never fired")
	}
}

// chaosTraceRun executes one fixed fault-injected lifecycle with event
// tracing on and returns everything observable about the run. Two calls
// with the same seed must return byte-identical results.
func chaosTraceRun(t *testing.T, seed uint64) (string, simnet.TrafficStats, simnet.FaultStats, string) {
	t.Helper()
	cfg := core.Config{Nodes: 12, Clusters: 2, Replication: 2, Seed: seed}
	sys, gen := buildSystem(t, cfg)
	net := sys.Network()
	net.EnableTrace()
	net.EnableFaults(seed^0xC0FFEE, simnet.FaultConfig{
		DropRate:     0.08,
		DupRate:      0.05,
		ReorderRate:  0.10,
		ReorderDelay: 150 * time.Millisecond,
		CorruptRate:  0.02,
		Corrupt:      core.ChaosCorrupter(),
	})
	members0, err := sys.ClusterMembers(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.ScheduleCrash(members0[2], 3*time.Millisecond, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	var blocks []*chain.Block
	for i := 0; i < 3; i++ {
		b, perr := sys.ProduceBlock(gen.NextTxs(10))
		if perr != nil {
			t.Fatal(perr)
		}
		net.RunUntilIdle()
		blocks = append(blocks, b)
	}
	if reader := finalizedReader(sys, cfg.Nodes, blocks[0]); reader != nil {
		reader.RetrieveBlock(net, blocks[0].Hash(), func(*chain.Block, error) {})
		net.RunUntilIdle()
	}
	return net.TraceString(), net.TotalTraffic(), net.FaultStats(), sys.Registry().JSON()
}

// TestChaosDeterminism replays the same seeded chaos lifecycle twice —
// faults, crash schedule, corruption and all — and requires byte-identical
// event traces, traffic accounting, fault statistics and registry dumps,
// recovery counters included.
// This is the regression gate for deterministic replay of failure runs.
func TestChaosDeterminism(t *testing.T) {
	for _, seed := range []uint64{3, 11} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			trace1, traffic1, faults1, metrics1 := chaosTraceRun(t, seed)
			trace2, traffic2, faults2, metrics2 := chaosTraceRun(t, seed)
			if trace1 != trace2 {
				t.Fatalf("event traces diverge: %d vs %d bytes", len(trace1), len(trace2))
			}
			if trace1 == "" {
				t.Fatal("empty event trace")
			}
			if traffic1 != traffic2 {
				t.Fatalf("traffic accounting diverges: %+v vs %+v", traffic1, traffic2)
			}
			if faults1 != faults2 {
				t.Fatalf("fault stats diverge: %+v vs %+v", faults1, faults2)
			}
			if metrics1 != metrics2 {
				t.Fatalf("registry dumps diverge:\n%s\n---\n%s", metrics1, metrics2)
			}
		})
	}
}
