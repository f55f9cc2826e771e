package core

import (
	"fmt"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/simnet"
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

// getTxProofMsg asks a member whether it holds the chunk containing
// transaction txID of block, and for the Merkle proof if so. Round tags the
// broadcast round so late answers to a superseded round are recognizable.
type getTxProofMsg struct {
	Block blockcrypto.Hash
	TxID  blockcrypto.Hash
	ReqID uint64
	Round int
}

func (getTxProofMsg) kind() string  { return "ici/get-txproof" }
func (getTxProofMsg) wireSize() int { return reqOverhead }

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

func (txProofMsg) kind() string { return "ici/txproof" }
func (m txProofMsg) wireSize() int {
	if !m.Found {
		return reqOverhead
	}
	return reqOverhead + m.Tx.EncodedSize() + m.Proof.EncodedSize()
}

// txQueryState tracks one in-flight inclusion query.
type txQueryState struct {
	block blockcrypto.Hash
	hdr   chain.Header // the block's stored header, which the proof must match
	txID  blockcrypto.Hash
	round
	cb func(TxProof, error)
}

// QueryTxProof asks this node's cluster for an inclusion proof of txID in
// the given block. The owners of whichever chunk contains the transaction
// answer with the transaction, its stored Merkle proof, and the header; the
// result is verified against the locally stored header before cb fires. A
// round every member answered without producing the proof is a definitive
// not-found.
func (n *Node) QueryTxProof(block, txID blockcrypto.Hash, cb func(TxProof, error)) {
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
	st := &txQueryState{block: block, hdr: hdr, txID: txID, cb: cb}
	st.round = round{
		targets: func() []simnet.NodeID { return others(n.id, n.cluster.Current().Members) },
		request: func(tag int) message {
			return getTxProofMsg{Block: block, TxID: txID, ReqID: req, Round: tag}
		},
		rounds:  n.pc.txqueryRounds,
		retries: n.pc.txqueryRetries,
		stale:   n.pc.txqueryStale,
		fail:    func() { n.endQuery(req, st, TxProof{}, ErrTxNotFound) },
		timeout: fetchTimeout,
	}
	n.txQueries[req] = st
	n.broadcast(&st.round)
}

// endQuery fires a query's callback once and forgets the query.
func (n *Node) endQuery(req uint64, st *txQueryState, proof TxProof, err error) {
	st.done = true
	delete(n.txQueries, req)
	st.cb(proof, err)
}

// onGetTxProof serves an inclusion query from this node's stored chunks.
func (n *Node) onGetTxProof(from simnet.NodeID, m getTxProofMsg) {
	resp := txProofMsg{Block: m.Block, ReqID: m.ReqID, Round: m.Round}
	if proof, ok := StoredTxProof(n.store, m.Block, m.TxID); ok {
		resp.Found = true
		resp.Tx = proof.Tx
		resp.Proof = proof.Proof
	}
	_ = n.send(from, resp, 0)
}

// onTxProof consumes one member's answer to an inclusion query: a verified
// proof finishes it, from whichever round.
func (n *Node) onTxProof(from simnet.NodeID, m txProofMsg) {
	st, ok := n.txQueries[m.ReqID]
	if !ok || st.done || st.block != m.Block {
		return
	}
	n.answer(&st.round, from, m.Round, func() bool {
		if !m.Found || m.Tx == nil || m.Tx.ID() != st.txID {
			return false
		}
		proof := TxProof{Tx: m.Tx, Header: st.hdr, Proof: m.Proof}
		if proof.Verify() != nil {
			return false
		}
		n.endQuery(m.ReqID, st, proof, nil)
		return true
	})
}
