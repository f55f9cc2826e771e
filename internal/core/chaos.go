package core

import (
	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/consensus"
	"icistrategy/internal/metrics"
	"icistrategy/internal/simnet"
)

// NodeMetrics counts the fault-recovery work a node performs: retries,
// timeouts, duplicate-delivery suppression, leader re-sends, and local
// store errors. All counters start at zero and only ever increase; in a
// failure-free run every one of them stays zero.
type NodeMetrics struct {
	// RetrieveRetries counts re-broadcast rounds of block retrievals after
	// a round timed out with chunks still missing.
	RetrieveRetries metrics.Counter
	// TxQueryRetries counts re-broadcast rounds of inclusion queries.
	TxQueryRetries metrics.Counter
	// FetchTimeouts counts single-chunk fetch attempts abandoned on
	// timeout (the fetch then moves to the next rendezvous replica).
	FetchTimeouts metrics.Counter
	// FetchRetries counts extra full passes over a chunk's source list.
	FetchRetries metrics.Counter
	// BootstrapRetries counts re-sent header requests during bootstrap.
	BootstrapRetries metrics.Counter
	// DuplicateChunks counts chunk deliveries for data already held
	// (duplicate delivery or leader re-send after a lost vote).
	DuplicateChunks metrics.Counter
	// DuplicateVotes counts votes the leader dropped as already recorded.
	DuplicateVotes metrics.Counter
	// DuplicateCommits counts commit announcements for blocks already
	// finalized here, dropped before their certificate is verified.
	DuplicateCommits metrics.Counter
	// DuplicateResponses counts fetch/query responses from members that
	// already answered the current round.
	DuplicateResponses metrics.Counter
	// ChunkResends counts leader re-sends of a chunk to an assignee that
	// stayed silent past a coverage check.
	ChunkResends metrics.Counter
	// CommitProbes counts commit-status pulls sent for blocks whose commit
	// announcement never arrived.
	CommitProbes metrics.Counter
	// LocalChunkErrors counts local chunk-store read failures during
	// retrieval seeding; each one falls through to a remote fetch.
	LocalChunkErrors metrics.Counter
	// StaleResponses counts fetch responses tagged with a superseded
	// round/attempt. Their chunk data still merges (verified data speaks
	// for itself) but they are barred from round bookkeeping, so a slow
	// answer to round 1 cannot complete round 2's "everyone answered"
	// accounting and fire a premature definitive failure.
	StaleResponses metrics.Counter
}

// MetricsSnapshot is a plain-int64 copy of NodeMetrics, summable across
// nodes.
type MetricsSnapshot struct {
	RetrieveRetries    int64
	TxQueryRetries     int64
	FetchTimeouts      int64
	FetchRetries       int64
	BootstrapRetries   int64
	DuplicateChunks    int64
	DuplicateVotes     int64
	DuplicateCommits   int64
	DuplicateResponses int64
	ChunkResends       int64
	CommitProbes       int64
	LocalChunkErrors   int64
	StaleResponses     int64
}

// Snapshot copies the current counter values.
func (m *NodeMetrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		RetrieveRetries:    m.RetrieveRetries.Value(),
		TxQueryRetries:     m.TxQueryRetries.Value(),
		FetchTimeouts:      m.FetchTimeouts.Value(),
		FetchRetries:       m.FetchRetries.Value(),
		BootstrapRetries:   m.BootstrapRetries.Value(),
		DuplicateChunks:    m.DuplicateChunks.Value(),
		DuplicateVotes:     m.DuplicateVotes.Value(),
		DuplicateCommits:   m.DuplicateCommits.Value(),
		DuplicateResponses: m.DuplicateResponses.Value(),
		ChunkResends:       m.ChunkResends.Value(),
		CommitProbes:       m.CommitProbes.Value(),
		LocalChunkErrors:   m.LocalChunkErrors.Value(),
		StaleResponses:     m.StaleResponses.Value(),
	}
}

// add accumulates other into s.
func (s *MetricsSnapshot) add(other MetricsSnapshot) {
	s.RetrieveRetries += other.RetrieveRetries
	s.TxQueryRetries += other.TxQueryRetries
	s.FetchTimeouts += other.FetchTimeouts
	s.FetchRetries += other.FetchRetries
	s.BootstrapRetries += other.BootstrapRetries
	s.DuplicateChunks += other.DuplicateChunks
	s.DuplicateVotes += other.DuplicateVotes
	s.DuplicateCommits += other.DuplicateCommits
	s.DuplicateResponses += other.DuplicateResponses
	s.ChunkResends += other.ChunkResends
	s.CommitProbes += other.CommitProbes
	s.LocalChunkErrors += other.LocalChunkErrors
	s.StaleResponses += other.StaleResponses
}

// Metrics exposes the node's fault-recovery counters.
func (n *Node) Metrics() *NodeMetrics { return &n.metrics }

// MetricsSnapshot sums the fault-recovery counters across every node in
// the system — what the chaos experiments report.
func (s *System) MetricsSnapshot() MetricsSnapshot {
	var total MetricsSnapshot
	for _, n := range s.nodes {
		total.add(n.metrics.Snapshot())
	}
	return total
}

// ChaosCorrupter returns a simnet.CorruptFunc that performs kind-aware,
// size-preserving corruption of ICI protocol payloads: it flips a
// transaction amount inside chunk-bearing messages and the verdict bit of
// votes. Every mutation is applied to a copy, never to memory shared with
// the sender, and every corrupted payload is detectable — chunk tampering
// breaks the Merkle proofs or the block root, vote tampering breaks the
// signature — so corruption must cost the protocols retries, never
// integrity.
func ChaosCorrupter() simnet.CorruptFunc {
	return func(msg simnet.Message, rng *blockcrypto.RNG) (any, bool) {
		switch p := msg.Payload.(type) {
		case shareMsg:
			if len(p.Groups) == 0 {
				return nil, false
			}
			i := rng.Intn(len(p.Groups))
			if txs, ok := tamperTxs(p.Groups[i].Txs, rng); ok {
				p.Groups = append([]Group(nil), p.Groups...)
				p.Groups[i].Txs = txs
				return p, true
			}
		case chunkRespMsg:
			if !p.Found {
				return nil, false
			}
			if txs, ok := tamperTxs(p.Chunk.Txs, rng); ok {
				p.Chunk.Txs = txs
				return p, true
			}
		case blockChunksMsg:
			if len(p.Chunks) == 0 {
				return nil, false
			}
			chunks := append([]retrievedChunk(nil), p.Chunks...)
			i := rng.Intn(len(chunks))
			c := chunks[i]
			switch {
			case c.Coded && len(c.Raw) > 0:
				raw := append([]byte(nil), c.Raw...)
				raw[rng.Intn(len(raw))] ^= 0xff
				c.Raw = raw
			case len(c.Txs) > 0:
				txs, ok := tamperTxs(c.Txs, rng)
				if !ok {
					return nil, false
				}
				c.Txs = txs
			default:
				return nil, false
			}
			chunks[i] = c
			p.Chunks = chunks
			return p, true
		case txProofMsg:
			if !p.Found || p.Tx == nil {
				return nil, false
			}
			tx := *p.Tx
			tx.Amount++
			p.Tx = &tx
			return p, true
		case consensus.Vote:
			p.Approve = !p.Approve // signature no longer covers the verdict
			return p, true
		}
		return nil, false
	}
}

// tamperTxs copies txs and bumps one amount; the copy leaves the sender's
// slice untouched.
func tamperTxs(txs []*chain.Transaction, rng *blockcrypto.RNG) ([]*chain.Transaction, bool) {
	if len(txs) == 0 {
		return nil, false
	}
	out := append([]*chain.Transaction(nil), txs...)
	i := rng.Intn(len(out))
	tx := *out[i]
	tx.Amount++
	out[i] = &tx
	return out, true
}
