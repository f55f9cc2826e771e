package core

import (
	"errors"
	"testing"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/simnet"
	"icistrategy/internal/workload"
)

func TestQueryTxProofSucceeds(t *testing.T) {
	sys, gen := buildSystem(t, Config{Nodes: 18, Clusters: 2, Replication: 1, Seed: 40})
	blocks := produceAndSettle(t, sys, gen, 3, 24)
	target := blocks[1]
	members, _ := sys.ClusterMembers(0)
	node, _ := sys.Node(members[0])

	// Query every transaction of the block: whichever member holds the
	// containing chunk must serve a verifiable proof.
	for i, tx := range target.Txs {
		var got TxProof
		var gotErr error
		done := false
		node.QueryTxProof(target.Hash(), tx.ID(), func(p TxProof, err error) {
			got, gotErr, done = p, err, true
		})
		sys.Network().RunUntilIdle()
		if !done {
			t.Fatalf("tx %d: query never completed", i)
		}
		if gotErr != nil {
			t.Fatalf("tx %d: %v", i, gotErr)
		}
		if got.Tx.ID() != tx.ID() {
			t.Fatalf("tx %d: wrong transaction returned", i)
		}
		if err := got.Verify(); err != nil {
			t.Fatalf("tx %d: returned proof does not verify: %v", i, err)
		}
		if got.Header.Hash() != target.Hash() {
			t.Fatalf("tx %d: proof against wrong header", i)
		}
	}
}

func TestQueryTxProofUnknownTx(t *testing.T) {
	sys, gen := buildSystem(t, Config{Nodes: 12, Clusters: 2, Replication: 1, Seed: 41})
	blocks := produceAndSettle(t, sys, gen, 1, 12)
	node, _ := sys.Node(0)
	var gotErr error
	done := false
	node.QueryTxProof(blocks[0].Hash(), blockcrypto.Sum256([]byte("ghost tx")),
		func(_ TxProof, err error) { gotErr, done = err, true })
	sys.Network().RunUntilIdle()
	if !done {
		t.Fatal("query never completed")
	}
	if !errors.Is(gotErr, ErrTxNotFound) {
		t.Fatalf("got %v, want ErrTxNotFound", gotErr)
	}
}

func TestQueryTxProofUnknownBlock(t *testing.T) {
	sys, gen := buildSystem(t, Config{Nodes: 12, Clusters: 2, Replication: 1, Seed: 42})
	produceAndSettle(t, sys, gen, 1, 12)
	node, _ := sys.Node(0)
	var gotErr error
	node.QueryTxProof(blockcrypto.Sum256([]byte("no such block")),
		blockcrypto.Sum256([]byte("tx")), func(_ TxProof, err error) { gotErr = err })
	sys.Network().RunUntilIdle()
	if !errors.Is(gotErr, ErrUnknownBlock) {
		t.Fatalf("got %v, want ErrUnknownBlock", gotErr)
	}
}

func TestQueryTxProofLocalFastPath(t *testing.T) {
	// If the querying node itself owns the chunk, no network traffic is
	// needed.
	sys, gen := buildSystem(t, Config{Nodes: 12, Clusters: 1, Replication: 1, Seed: 43})
	blocks := produceAndSettle(t, sys, gen, 1, 24)
	target := blocks[0]
	// Find a (node, tx) pair where the node holds the tx's chunk.
	for id := 0; id < 12; id++ {
		node, _ := sys.Node(simnetID(id))
		for _, tx := range target.Txs {
			if proof, ok := StoredTxProof(node.store, target.Hash(), tx.ID()); ok {
				sys.Network().ResetTraffic()
				var got TxProof
				var gotErr error
				node.QueryTxProof(target.Hash(), tx.ID(), func(p TxProof, err error) {
					got, gotErr = p, err
				})
				if gotErr != nil {
					t.Fatal(gotErr)
				}
				if got.Tx.ID() != proof.Tx.ID() {
					t.Fatal("local fast path returned wrong tx")
				}
				if tr := sys.Network().TotalTraffic(); tr.MsgsSent != 0 {
					t.Fatalf("local query sent %d messages", tr.MsgsSent)
				}
				return
			}
		}
	}
	t.Fatal("no node held any chunk — distribution broken")
}

func TestTxProofVerifyRejectsMismatch(t *testing.T) {
	gen, err := newGenForTest(44)
	if err != nil {
		t.Fatal(err)
	}
	txs := gen.NextTxs(8)
	b, err := chain.NewBlock(0, blockcrypto.ZeroHash, txs, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	tree, _ := chain.TxMerkleTree(txs)
	p0, _ := tree.Prove(0)
	good := TxProof{Tx: txs[0], Header: b.Header, Proof: p0}
	if err := good.Verify(); err != nil {
		t.Fatalf("good proof rejected: %v", err)
	}
	bad := good
	bad.Tx = txs[1]
	if err := bad.Verify(); err == nil {
		t.Fatal("proof verified for the wrong transaction")
	}
	empty := TxProof{}
	if err := empty.Verify(); err == nil {
		t.Fatal("empty proof verified")
	}
}

// TestTxProofVerifyEdgeCases covers the Merkle-proof verification corners:
// a single-transaction block (empty proof path), odd leaf counts forcing
// trailing-node duplication at every level, a tampered sibling hash at each
// proof step, and a proof applied at the wrong index.
func TestTxProofVerifyEdgeCases(t *testing.T) {
	gen, err := newGenForTest(45)
	if err != nil {
		t.Fatal(err)
	}
	newProven := func(t *testing.T, txCount int) (*chain.Block, *chain.MerkleTree) {
		t.Helper()
		txs := gen.NextTxs(txCount)
		b, err := chain.NewBlock(0, blockcrypto.ZeroHash, txs, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := chain.TxMerkleTree(txs)
		if err != nil {
			t.Fatal(err)
		}
		return b, tree
	}

	t.Run("single-tx block", func(t *testing.T) {
		b, tree := newProven(t, 1)
		p, err := tree.Prove(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Steps) != 0 {
			t.Fatalf("single-leaf proof has %d steps, want 0", len(p.Steps))
		}
		good := TxProof{Tx: b.Txs[0], Header: b.Header, Proof: p}
		if err := good.Verify(); err != nil {
			t.Fatalf("single-tx proof rejected: %v", err)
		}
	})

	// Odd leaf counts: 3 duplicates the trailing leaf at level 0; 5 and 7
	// force duplication at the deeper levels too. Every index must prove,
	// including the duplicated trailing leaf itself.
	for _, txCount := range []int{3, 5, 7} {
		b, tree := newProven(t, txCount)
		for i := range b.Txs {
			p, err := tree.Prove(i)
			if err != nil {
				t.Fatalf("txs=%d Prove(%d): %v", txCount, i, err)
			}
			tp := TxProof{Tx: b.Txs[i], Header: b.Header, Proof: p}
			if err := tp.Verify(); err != nil {
				t.Fatalf("txs=%d index %d rejected: %v", txCount, i, err)
			}
		}
	}

	t.Run("tampered sibling at each level", func(t *testing.T) {
		b, tree := newProven(t, 8)
		p, err := tree.Prove(3)
		if err != nil {
			t.Fatal(err)
		}
		for lvl := range p.Steps {
			bad := p
			bad.Steps = append([]chain.ProofStep(nil), p.Steps...)
			bad.Steps[lvl].Sibling[0] ^= 0xff
			tp := TxProof{Tx: b.Txs[3], Header: b.Header, Proof: bad}
			if err := tp.Verify(); err == nil {
				t.Fatalf("proof with tampered sibling at level %d verified", lvl)
			}
		}
	})

	t.Run("wrong index", func(t *testing.T) {
		b, tree := newProven(t, 8)
		p2, err := tree.Prove(2)
		if err != nil {
			t.Fatal(err)
		}
		// The path for leaf 2 must not authenticate the transaction at 5.
		tp := TxProof{Tx: b.Txs[5], Header: b.Header, Proof: p2}
		if err := tp.Verify(); err == nil {
			t.Fatal("proof for index 2 verified the transaction at index 5")
		}
	})
}

// TestStaleTxProofResponseSkipsBookkeeping is the txquery half of the
// cross-round aliasing bug fixed for full-block retrieval in an earlier
// change: a proof answer to a timed-out round 1 arriving during round 2
// used to count toward round 2's responded/waiting bookkeeping, so a slow
// stale negative could drive waiting to zero and fire the definitive
// not-found while a live (possibly positive) round-2 answer was still in
// flight. A stale answer carrying a verifiable proof must still complete
// the query — verified data speaks for itself.
func TestStaleTxProofResponseSkipsBookkeeping(t *testing.T) {
	sys, gen := buildSystem(t, Config{Nodes: 12, Clusters: 2, Replication: 2, Seed: 95})
	b := produceAndSettle(t, sys, gen, 1, 12)[0]
	members, _ := sys.ClusterMembers(0)
	n := sys.nodes[members[0]]

	// A transaction outside the reader's chunks, so the query goes out.
	i := len(b.Txs) / 2
	for ; i < len(b.Txs); i++ {
		if _, held := StoredTxProof(n.store, b.Hash(), b.Txs[i].ID()); !held {
			break
		}
	}
	if i == len(b.Txs) {
		t.Skip("reader holds every transaction past the middle under this seed")
	}
	tx := b.Txs[i]
	var got TxProof
	var gotErr error
	calls := 0
	n.QueryTxProof(b.Hash(), tx.ID(), func(p TxProof, err error) { got, gotErr, calls = p, err, calls+1 })
	req := n.nextReq
	st := n.txQueries[req]
	if st == nil {
		t.Fatal("no query state")
	}
	// Round 1 timed out; round 2 is in flight with one member still
	// unanswered.
	st.attempts, st.waiting, st.responded = 2, 1, map[simnet.NodeID]bool{}

	// A slow round-1 "don't have it" lands mid-round-2.
	n.onTxProof(members[1], txProofMsg{Block: b.Hash(), ReqID: req, Round: 1})
	if calls != 0 {
		t.Fatalf("stale negative terminated the query (err=%v)", gotErr)
	}
	if st.waiting != 1 {
		t.Fatalf("stale response entered round bookkeeping: waiting=%d", st.waiting)
	}
	if len(st.responded) != 0 {
		t.Fatal("stale response marked its sender as having answered the current round")
	}
	if v := sys.Registry().Counter("ici.txquery.stale_responses").Value(); v != 1 {
		t.Fatalf("ici.txquery.stale_responses=%d, want 1", v)
	}

	// A stale answer that carries the verifiable proof still completes.
	tree, err := chain.TxMerkleTree(b.Txs)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := tree.Prove(i)
	if err != nil {
		t.Fatal(err)
	}
	n.onTxProof(members[2], txProofMsg{
		Block: b.Hash(), ReqID: req, Round: 1, Found: true, Tx: tx, Proof: proof,
	})
	if calls != 1 || gotErr != nil {
		t.Fatalf("stale positive did not complete: calls=%d err=%v", calls, gotErr)
	}
	if got.Tx.ID() != tx.ID() {
		t.Fatal("completed with the wrong transaction")
	}
	if _, ok := n.txQueries[req]; ok {
		t.Fatal("query state leaked after completion")
	}

	// And once done, a further duplicate stale answer is inert.
	n.onTxProof(members[1], txProofMsg{Block: b.Hash(), ReqID: req, Round: 1})
	if calls != 1 {
		t.Fatalf("callback double-fired: calls=%d", calls)
	}
}

// TestTxQueryExactlyOnceUnderFaults drives inclusion queries through
// drop/duplicate/reorder fault injection and checks the documented
// contract: cb fires exactly once per call and no query state survives a
// terminal outcome.
func TestTxQueryExactlyOnceUnderFaults(t *testing.T) {
	sys, gen := buildSystem(t, Config{Nodes: 16, Clusters: 2, Replication: 2, Seed: 96})
	blocks := produceAndSettle(t, sys, gen, 2, 16)
	sys.Network().EnableFaults(97, simnet.FaultConfig{DropRate: 0.25, DupRate: 0.2, ReorderRate: 0.3})
	members, _ := sys.ClusterMembers(0)
	for _, b := range blocks {
		for _, id := range members[:3] {
			node := sys.nodes[id]
			for _, txID := range []blockcrypto.Hash{b.Txs[0].ID(), blockcrypto.Sum256([]byte("ghost"))} {
				calls := 0
				node.QueryTxProof(b.Hash(), txID, func(TxProof, error) { calls++ })
				sys.Network().RunUntilIdle()
				if calls != 1 {
					t.Fatalf("node %d: cb fired %d times", id, calls)
				}
				if len(node.txQueries) != 0 {
					t.Fatalf("node %d: %d query states leaked", id, len(node.txQueries))
				}
			}
		}
	}
}

// simnetID converts an int for readability in tests.
func simnetID(i int) (id simnet.NodeID) { return simnet.NodeID(i) }

// newGenForTest builds a small deterministic workload generator.
func newGenForTest(seed uint64) (*workload.Generator, error) {
	return workload.NewGenerator(workload.Config{Accounts: 20, PayloadBytes: 10, Seed: seed})
}
