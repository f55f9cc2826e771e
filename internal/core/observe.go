package core

import (
	"icistrategy/internal/metrics"
)

// protoCounters caches the registry counters of every ICI protocol path so
// hot paths pay one atomic add per event, never a registry map lookup. One
// instance is shared by all nodes of a System — the counters are
// network-wide protocol totals, recovery work included.
//
// The names below are the enumerable vocabulary of the protocol layer:
// everything a run did is readable from Registry.Snapshot() under these
// keys. The recovery counters — retries, timeouts, re-sends, probes,
// local read errors, and duplicate or stale answers — stay zero in a
// failure-free run.
type protoCounters struct {
	// distribute/verify (the write path).
	proposals  *metrics.Counter // ici.distribute.proposals: blocks entering leader distribution
	chunksSent *metrics.Counter // ici.distribute.chunks_sent: chunk assignments sent (incl. re-sends)
	commits    *metrics.Counter // ici.distribute.commits: per-node block finalizations
	rejects    *metrics.Counter // ici.distribute.rejects: leader-side block rejections
	verified   *metrics.Counter // ici.verify.chunks: member chunk verifications performed
	approvals  *metrics.Counter // ici.verify.approvals: verifications that approved
	rejections *metrics.Counter // ici.verify.rejections: verifications that rejected

	chunkResends     *metrics.Counter // ici.distribute.chunk_resends: chunks re-sent to an assignee silent past a coverage check
	commitProbes     *metrics.Counter // ici.distribute.commit_probes: commit-status pulls for announcements that never arrived
	duplicateChunks  *metrics.Counter // ici.distribute.duplicate_chunks: chunk deliveries for data already held
	duplicateVotes   *metrics.Counter // ici.distribute.duplicate_votes: votes the leader had already recorded
	duplicateCommits *metrics.Counter // ici.distribute.duplicate_commits: commit announcements for blocks already finalized

	// consensus vote rounds (fed to consensus.VoteObserver).
	votes         *metrics.Counter // consensus.votes: votes accepted into chunk tables
	equivocations *metrics.Counter // consensus.equivocations: conflicting votes dropped
	decisions     *metrics.Counter // consensus.decisions: terminal chunk-table decisions

	// retrieval (the read path).
	retrievals      *metrics.Counter // ici.retrieve.requests: RetrieveBlock calls
	retrieveRounds  *metrics.Counter // ici.retrieve.rounds: broadcast rounds issued
	retrieveOK      *metrics.Counter // ici.retrieve.success
	retrieveFailed  *metrics.Counter // ici.retrieve.failures
	staleResponses  *metrics.Counter // ici.retrieve.stale_responses: answers to superseded rounds or chunk requests
	retrievedBlocks *metrics.Counter // ici.retrieve.bytes: reassembled body bytes
	retrieveRetries *metrics.Counter // ici.retrieve.retries: timed-out rounds asked again
	localErrors     *metrics.Counter // ici.retrieve.local_chunk_errors: held chunks that failed their check
	duplicates      *metrics.Counter // ici.retrieve.duplicate_responses: second answers to one round or request, any protocol
	chunkTimeouts   *metrics.Counter // ici.retrieve.chunk_timeouts: single-chunk requests abandoned for the next source
	chunkRetries    *metrics.Counter // ici.retrieve.chunk_retries: extra passes over a chunk's sources

	// light-client inclusion queries.
	txqueryRounds  *metrics.Counter // ici.txquery.rounds: broadcast rounds issued
	txqueryRetries *metrics.Counter // ici.txquery.retries: timed-out rounds asked again
	txqueryStale   *metrics.Counter // ici.txquery.stale_responses: proof answers to superseded rounds

	// bootstrap.
	bootstraps      *metrics.Counter // ici.bootstrap.joins: Bootstrap calls
	headerRounds    *metrics.Counter // ici.bootstrap.header_rounds: header requests sent
	bootstrapChunks *metrics.Counter // ici.bootstrap.chunk_fetches: owned-chunk fetches started
	bootstrapFailed *metrics.Counter // ici.bootstrap.failures
	headerRetries   *metrics.Counter // ici.bootstrap.retries: timed-out header requests asked again

	// repair.
	repairs      *metrics.Counter // ici.repair.scans: RepairOwnership calls
	repairChunks *metrics.Counter // ici.repair.chunk_fetches: missing chunks fetched
	repairLost   *metrics.Counter // ici.repair.lost: chunks unrecoverable in-cluster

	// coded archival.
	archives       *metrics.Counter // ici.archive.blocks: blocks converted to coded storage
	archiveShares  *metrics.Counter // ici.archive.shares: RS shares stored on members
	codedRetrieves *metrics.Counter // ici.archive.retrievals: coded-block reads started
}

// newProtoCounters resolves every protocol counter against reg once. A nil
// registry yields throwaway counters (metrics discarded), so uninstrumented
// Systems pay only the atomic adds.
func newProtoCounters(reg *metrics.Registry) *protoCounters {
	return &protoCounters{
		proposals:  reg.Counter("ici.distribute.proposals"),
		chunksSent: reg.Counter("ici.distribute.chunks_sent"),
		commits:    reg.Counter("ici.distribute.commits"),
		rejects:    reg.Counter("ici.distribute.rejects"),
		verified:   reg.Counter("ici.verify.chunks"),
		approvals:  reg.Counter("ici.verify.approvals"),
		rejections: reg.Counter("ici.verify.rejections"),

		chunkResends:     reg.Counter("ici.distribute.chunk_resends"),
		commitProbes:     reg.Counter("ici.distribute.commit_probes"),
		duplicateChunks:  reg.Counter("ici.distribute.duplicate_chunks"),
		duplicateVotes:   reg.Counter("ici.distribute.duplicate_votes"),
		duplicateCommits: reg.Counter("ici.distribute.duplicate_commits"),

		votes:         reg.Counter("consensus.votes"),
		equivocations: reg.Counter("consensus.equivocations"),
		decisions:     reg.Counter("consensus.decisions"),

		retrievals:      reg.Counter("ici.retrieve.requests"),
		retrieveRounds:  reg.Counter("ici.retrieve.rounds"),
		retrieveOK:      reg.Counter("ici.retrieve.success"),
		retrieveFailed:  reg.Counter("ici.retrieve.failures"),
		staleResponses:  reg.Counter("ici.retrieve.stale_responses"),
		retrievedBlocks: reg.Counter("ici.retrieve.bytes"),
		retrieveRetries: reg.Counter("ici.retrieve.retries"),
		localErrors:     reg.Counter("ici.retrieve.local_chunk_errors"),
		duplicates:      reg.Counter("ici.retrieve.duplicate_responses"),
		chunkTimeouts:   reg.Counter("ici.retrieve.chunk_timeouts"),
		chunkRetries:    reg.Counter("ici.retrieve.chunk_retries"),

		txqueryRounds:  reg.Counter("ici.txquery.rounds"),
		txqueryRetries: reg.Counter("ici.txquery.retries"),
		txqueryStale:   reg.Counter("ici.txquery.stale_responses"),

		bootstraps:      reg.Counter("ici.bootstrap.joins"),
		headerRounds:    reg.Counter("ici.bootstrap.header_rounds"),
		bootstrapChunks: reg.Counter("ici.bootstrap.chunk_fetches"),
		bootstrapFailed: reg.Counter("ici.bootstrap.failures"),
		headerRetries:   reg.Counter("ici.bootstrap.retries"),

		repairs:      reg.Counter("ici.repair.scans"),
		repairChunks: reg.Counter("ici.repair.chunk_fetches"),
		repairLost:   reg.Counter("ici.repair.lost"),

		archives:       reg.Counter("ici.archive.blocks"),
		archiveShares:  reg.Counter("ici.archive.shares"),
		codedRetrieves: reg.Counter("ici.archive.retrievals"),
	}
}
