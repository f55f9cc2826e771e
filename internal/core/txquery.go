package core

import (
	"fmt"
	"time"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/simnet"
)

// Light-client query message kinds.
const (
	// KindGetTxProof asks a member whether it holds the chunk containing a
	// transaction of a block, and for the Merkle proof if so.
	KindGetTxProof = "ici/get-txproof"
	// KindTxProof is the response.
	KindTxProof = "ici/txproof"
)

// ErrTxNotFound is reported when no cluster member serves a proof for the
// requested transaction.
var ErrTxNotFound = fmt.Errorf("core: transaction not found in block")

// TxProof is a verified transaction-inclusion result: the transaction, the
// block header that commits to it, and the Merkle proof connecting them.
// It is what an ICIStrategy cluster hands to a light client — no member had
// to hold the whole block to produce it.
type TxProof struct {
	Tx     *chain.Transaction
	Header chain.Header
	Proof  chain.Proof
}

// Verify re-checks the proof against the header root.
func (p TxProof) Verify() error {
	if p.Tx == nil {
		return ErrTxNotFound
	}
	return chain.VerifyProof(p.Header.MerkleRoot, p.Tx.ID(), p.Proof)
}

// getTxProofMsg asks for a proof of txID inside block. Round tags the
// broadcast round so late answers to a superseded round are recognizable.
type getTxProofMsg struct {
	Block blockcrypto.Hash
	TxID  blockcrypto.Hash
	ReqID uint64
	Round int
}

// txProofMsg answers a proof query. Found is false when this member's
// chunks do not contain the transaction. Round echoes the query's round.
type txProofMsg struct {
	Block blockcrypto.Hash
	ReqID uint64
	Round int
	Found bool
	Tx    *chain.Transaction
	Proof chain.Proof
}

func (m txProofMsg) wireSize() int {
	if !m.Found {
		return reqOverhead
	}
	return reqOverhead + m.Tx.EncodedSize() + m.Proof.EncodedSize()
}

// txQueryState tracks one in-flight inclusion query.
type txQueryState struct {
	block     blockcrypto.Hash
	txID      blockcrypto.Hash
	waiting   int
	responded map[simnet.NodeID]bool
	attempts  int
	timeout   time.Duration
	done      bool
	cb        func(TxProof, error)
}

// QueryTxProof asks this node's cluster for an inclusion proof of txID in
// the given block. The owners of whichever chunk contains the transaction
// answer with the transaction, its stored Merkle proof, and the header; the
// result is verified against the locally stored header before cb fires.
func (n *Node) QueryTxProof(net *simnet.Network, block, txID blockcrypto.Hash, cb func(TxProof, error)) {
	hdr, err := n.store.Header(block)
	if err != nil {
		cb(TxProof{}, fmt.Errorf("%w: %s", ErrUnknownBlock, block.Short()))
		return
	}
	// Local chunks first: the querying node may own the right chunk.
	if proof, ok := StoredTxProof(n.store, block, txID); ok {
		proof.Header = hdr
		cb(proof, nil)
		return
	}
	n.nextReq++
	req := n.nextReq
	st := &txQueryState{block: block, txID: txID, timeout: fetchTimeout, cb: cb}
	n.txQueries[req] = st
	n.broadcastTxQuery(net, req, st)
}

// broadcastTxQuery issues one round of cluster-wide proof requests and arms
// its timeout; timed-out rounds are retried with doubled timeout up to
// maxFetchAttempts. A round every member answered without producing the
// proof is a definitive not-found.
func (n *Node) broadcastTxQuery(net *simnet.Network, req uint64, st *txQueryState) {
	st.attempts++
	st.waiting = 0
	st.responded = make(map[simnet.NodeID]bool, len(n.cluster.Current().Members))
	for _, m := range n.cluster.Current().Members {
		if m == n.id {
			continue
		}
		st.waiting++
		_ = net.Send(simnet.Message{
			From: n.id, To: m, Kind: KindGetTxProof,
			Size: reqOverhead, Payload: getTxProofMsg{Block: st.block, TxID: st.txID, ReqID: req, Round: st.attempts},
		})
	}
	if st.waiting == 0 {
		delete(n.txQueries, req)
		st.cb(TxProof{}, ErrTxNotFound)
		return
	}
	attempt := st.attempts
	net.After(st.timeout, func() {
		cur, ok := n.txQueries[req]
		if !ok || cur.done || cur.attempts != attempt {
			return
		}
		if cur.attempts >= maxFetchAttempts {
			cur.done = true
			delete(n.txQueries, req)
			cur.cb(TxProof{}, ErrTxNotFound)
			return
		}
		n.metrics.TxQueryRetries.Inc()
		cur.timeout *= 2
		n.broadcastTxQuery(net, req, cur)
	})
}

// onGetTxProof serves an inclusion query from this node's stored chunks.
func (n *Node) onGetTxProof(net *simnet.Network, from simnet.NodeID, m getTxProofMsg) {
	resp := txProofMsg{Block: m.Block, ReqID: m.ReqID, Round: m.Round}
	if proof, ok := StoredTxProof(n.store, m.Block, m.TxID); ok {
		resp.Found = true
		resp.Tx = proof.Tx
		resp.Proof = proof.Proof
	}
	_ = net.Send(simnet.Message{
		From: n.id, To: from, Kind: KindTxProof,
		Size: resp.wireSize(), Payload: resp,
	})
}

// onTxProof consumes one member's answer to an inclusion query.
//
// Same stale-round discipline as onBlockChunks: an answer tagged with a
// superseded round may still complete the query when it carries a verified
// proof (data speaks for itself), but it must not mark the member as
// having answered the current round or decrement waiting — otherwise a
// slow round-1 negative arriving during round 2 can drive waiting to zero
// and fire the definitive not-found while round-2 answers (possibly
// positive) are still in flight.
func (n *Node) onTxProof(net *simnet.Network, from simnet.NodeID, m txProofMsg) {
	st, ok := n.txQueries[m.ReqID]
	if !ok || st.done || st.block != m.Block {
		return
	}
	stale := m.Round != st.attempts
	if stale {
		n.metrics.StaleResponses.Inc()
		n.pc.txqueryStale.Inc()
	} else if st.responded[from] {
		n.metrics.DuplicateResponses.Inc()
		return
	} else {
		st.responded[from] = true
		st.waiting--
	}
	req := m.ReqID
	if m.Found && m.Tx != nil && m.Tx.ID() == st.txID {
		hdr, err := n.store.Header(st.block)
		if err == nil {
			proof := TxProof{Tx: m.Tx, Header: hdr, Proof: m.Proof}
			if proof.Verify() == nil {
				st.done = true
				delete(n.txQueries, req)
				st.cb(proof, nil)
				return
			}
		}
	}
	if stale {
		return
	}
	if st.waiting == 0 {
		st.done = true
		delete(n.txQueries, req)
		st.cb(TxProof{}, ErrTxNotFound)
	}
}
