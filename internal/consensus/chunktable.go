package consensus

import (
	"fmt"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/metrics"
	"icistrategy/internal/par"
	"icistrategy/internal/simnet"
	"icistrategy/internal/trace"
)

// ChunkTable aggregates per-chunk verification votes for one block inside
// one cluster. ICIStrategy's collaborative verification commits a block in
// a cluster when every chunk has been approved by CoverQuorum distinct
// members ("every byte of the block was verified by someone"), and rejects
// it when any chunk has been rejected by RejectQuorum distinct members
// (more rejections than the Byzantine bound can explain — the data itself
// is bad).
type ChunkTable struct {
	block        blockcrypto.Hash
	parts        int
	coverQuorum  int
	rejectQuorum int
	approve      []map[simnet.NodeID]bool
	reject       []map[simnet.NodeID]bool
	// terminal latches the first Committed/Rejected decision: a decided
	// block stays decided no matter what trickles in afterwards.
	terminal Decision
	obs      VoteObserver
}

// VoteObserver carries the observability hooks a leader attaches to its
// vote round: every counted vote, every equivocation, and the terminal
// decision become trace points under Parent and increments on the named
// registry counters. The zero VoteObserver (and nil counters/tracer inside
// a non-zero one) is a valid no-op.
type VoteObserver struct {
	Tracer *trace.Tracer
	Parent trace.SpanID
	Node   int64
	// Votes counts votes accepted into the table; Equivocations counts
	// conflicting votes rejected; Decisions counts terminal decisions
	// (one per decided block).
	Votes         *metrics.Counter
	Equivocations *metrics.Counter
	Decisions     *metrics.Counter
}

// Instrument attaches observability hooks to this vote round.
func (t *ChunkTable) Instrument(obs VoteObserver) { t.obs = obs }

func inc(c *metrics.Counter) {
	if c != nil {
		c.Inc()
	}
}

// CoverQuorumFor returns the per-chunk approval quorum used by a cluster of
// size n with replication r: min(r, f+1). With r > f+1 extra approvals add
// no safety, and with small r the cluster accepts the configured custody
// redundancy as its verification redundancy.
func CoverQuorumFor(n, r int) int {
	q := FaultBound(n) + 1
	if r < q {
		q = r
	}
	if q < 1 {
		q = 1
	}
	return q
}

// NewChunkTable starts aggregation for a block split into parts chunks in a
// cluster of size n with replication r.
func NewChunkTable(block blockcrypto.Hash, parts, n, r int) (*ChunkTable, error) {
	if parts < 1 {
		return nil, fmt.Errorf("consensus: parts must be positive, got %d", parts)
	}
	if n < 1 {
		return nil, ErrEmptyMembership
	}
	t := &ChunkTable{
		block:        block,
		parts:        parts,
		coverQuorum:  CoverQuorumFor(n, r),
		rejectQuorum: FaultBound(n) + 1,
		approve:      make([]map[simnet.NodeID]bool, parts),
		reject:       make([]map[simnet.NodeID]bool, parts),
	}
	for i := 0; i < parts; i++ {
		t.approve[i] = make(map[simnet.NodeID]bool)
		t.reject[i] = make(map[simnet.NodeID]bool)
	}
	return t, nil
}

// CoverQuorum returns the per-chunk approval quorum.
func (t *ChunkTable) CoverQuorum() int { return t.coverQuorum }

// RejectQuorum returns the per-chunk rejection threshold.
func (t *ChunkTable) RejectQuorum() int { return t.rejectQuorum }

// Parts returns the chunk count.
func (t *ChunkTable) Parts() int { return t.parts }

// Add records one chunk vote. Conflicting votes by the same member on the
// same chunk are equivocation. The caller is responsible for signature
// verification and for filtering voters that were never assigned the chunk.
func (t *ChunkTable) Add(v Vote) (Decision, error) {
	if v.Block != t.block {
		return t.Decision(), ErrWrongSubject
	}
	if v.ChunkIdx < 0 || v.ChunkIdx >= t.parts {
		return t.Decision(), fmt.Errorf("consensus: chunk index %d out of [0,%d)", v.ChunkIdx, t.parts)
	}
	app, rej := t.approve[v.ChunkIdx], t.reject[v.ChunkIdx]
	if v.Approve {
		if rej[v.Voter] {
			t.observeEquivocation(v)
			return t.Decision(), fmt.Errorf("%w: %d on chunk %d", ErrEquivocation, v.Voter, v.ChunkIdx)
		}
		app[v.Voter] = true
	} else {
		if app[v.Voter] {
			t.observeEquivocation(v)
			return t.Decision(), fmt.Errorf("%w: %d on chunk %d", ErrEquivocation, v.Voter, v.ChunkIdx)
		}
		rej[v.Voter] = true
	}
	inc(t.obs.Votes)
	if t.obs.Tracer.Enabled() {
		errStr := ""
		if !v.Approve {
			errStr = "reject"
		}
		t.obs.Tracer.Point(t.obs.Parent, "consensus", fmt.Sprintf("vote[%d]", v.ChunkIdx), int64(v.Voter), 0, errStr)
	}
	return t.Decision(), nil
}

func (t *ChunkTable) observeEquivocation(v Vote) {
	inc(t.obs.Equivocations)
	t.obs.Tracer.Point(t.obs.Parent, "consensus", fmt.Sprintf("vote[%d]", v.ChunkIdx), int64(v.Voter), 0, "equivocation")
}

// HasVoted reports whether voter already cast a vote (either way) on
// chunkIdx. Leaders use it to drop duplicate deliveries of the same vote
// and to find assignees whose vote never arrived (re-send candidates).
func (t *ChunkTable) HasVoted(voter simnet.NodeID, chunkIdx int) bool {
	if chunkIdx < 0 || chunkIdx >= t.parts {
		return false
	}
	return t.approve[chunkIdx][voter] || t.reject[chunkIdx][voter]
}

// Approvals returns the approval count for one chunk.
func (t *ChunkTable) Approvals(chunkIdx int) int { return len(t.approve[chunkIdx]) }

// Rejections returns the rejection count for one chunk.
func (t *ChunkTable) Rejections(chunkIdx int) int { return len(t.reject[chunkIdx]) }

// Uncovered returns the chunks still short of the approval quorum.
func (t *ChunkTable) Uncovered() []int {
	var out []int
	for i := 0; i < t.parts; i++ {
		if len(t.approve[i]) < t.coverQuorum {
			out = append(out, i)
		}
	}
	return out
}

// Decision returns Committed when every chunk reached the approval quorum,
// Rejected when any chunk reached the rejection threshold, and Pending
// otherwise. Within one Add, rejection wins ties (a proven-bad chunk
// poisons the block); across Adds the first terminal decision is latched —
// votes arriving after a block is decided cannot flip it.
func (t *ChunkTable) Decision() Decision {
	if t.terminal != 0 && t.terminal != Pending {
		return t.terminal
	}
	d := Pending
	for i := 0; i < t.parts; i++ {
		if len(t.reject[i]) >= t.rejectQuorum {
			d = Rejected
			break
		}
	}
	if d == Pending && len(t.Uncovered()) == 0 {
		d = Committed
	}
	if d != Pending {
		t.terminal = d
		inc(t.obs.Decisions)
		errStr := ""
		if d == Rejected {
			errStr = "rejected"
		}
		t.obs.Tracer.Point(t.obs.Parent, "consensus", "decision", t.obs.Node, 0, errStr)
	}
	return d
}

// ApprovalCertificate returns, for each chunk, coverQuorum approving votes
// assembled from the given pool — the commit certificate members verify.
// It returns false if the pool cannot cover every chunk.
func (t *ChunkTable) ApprovalCertificate(pool []Vote) ([]Vote, bool) {
	need := make([]int, t.parts)
	for i := range need {
		need[i] = t.coverQuorum
	}
	type voterChunk struct {
		voter simnet.NodeID
		idx   int
	}
	seen := make(map[voterChunk]bool, len(pool))
	var cert []Vote
	for _, v := range pool {
		if !v.Approve || v.Block != t.block || v.ChunkIdx < 0 || v.ChunkIdx >= t.parts {
			continue
		}
		key := voterChunk{v.Voter, v.ChunkIdx}
		if seen[key] || need[v.ChunkIdx] == 0 {
			continue
		}
		seen[key] = true
		need[v.ChunkIdx]--
		cert = append(cert, v)
	}
	for _, n := range need {
		if n > 0 {
			return nil, false
		}
	}
	return cert, true
}

// VerifyCertificate checks a commit certificate: every vote approves this
// block, signatures verify under the registry, voters are members, and
// every chunk reaches the approval quorum.
//
// The signature checks fork-join over GOMAXPROCS. isMember and pubKey are
// called only on the caller's goroutine, before the fork, and the valid
// votes enter the table in certificate order after the join.
func VerifyCertificate(block blockcrypto.Hash, parts, n, r int, cert []Vote, isMember func(simnet.NodeID) bool, pubKey func(simnet.NodeID) []byte) error {
	t, err := NewChunkTable(block, parts, n, r)
	if err != nil {
		return err
	}
	// pubs[i] is the key vote i must verify under; nil marks a vote that
	// does not count (filtered here, or failing its signature below).
	pubs := make([][]byte, len(cert))
	for i, v := range cert {
		if v.Approve && v.Block == block && isMember(v.Voter) {
			pubs[i] = pubKey(v.Voter)
		}
	}
	par.Each(len(cert), 0, func(i int) {
		if pubs[i] != nil && VerifyVote(cert[i], pubs[i]) != nil {
			pubs[i] = nil
		}
	})
	for i, v := range cert {
		if pubs[i] == nil {
			continue
		}
		if _, err := t.Add(v); err != nil {
			return err
		}
	}
	if t.Decision() != Committed {
		return fmt.Errorf("consensus: certificate does not cover all %d chunks with quorum %d", parts, t.coverQuorum)
	}
	return nil
}
