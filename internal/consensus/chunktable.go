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

// Add records one vote: every chunk it names or, when it is refused, none.
// The chunks must be a non-empty strictly increasing set inside the block
// (ErrBadChunks), and a verdict that conflicts with the same member's
// earlier one on any of them is equivocation and refuses the whole vote;
// chunks the member already voted the same way on are counted once. The
// caller is responsible for signature verification and for filtering voters
// that were never assigned a chunk.
func (t *ChunkTable) Add(v Vote) (Decision, error) {
	if v.Block != t.block {
		return t.Decision(), ErrWrongSubject
	}
	last, ok := -1, len(v.Chunks) > 0
	for _, idx := range v.Chunks {
		ok, last = ok && idx > last && idx < t.parts, idx
	}
	if !ok {
		return t.Decision(), fmt.Errorf("%w: %v of %d", ErrBadChunks, v.Chunks, t.parts)
	}
	mine, other := t.approve, t.reject
	if !v.Approve {
		mine, other = other, mine
	}
	for _, idx := range v.Chunks {
		if other[idx][v.Voter] {
			inc(t.obs.Equivocations)
			t.observeVote(v, "equivocation")
			return t.Decision(), fmt.Errorf("%w: %d on chunk %d", ErrEquivocation, v.Voter, idx)
		}
	}
	for _, idx := range v.Chunks {
		mine[idx][v.Voter] = true
	}
	inc(t.obs.Votes)
	if v.Approve {
		t.observeVote(v, "")
	} else {
		t.observeVote(v, "reject")
	}
	return t.Decision(), nil
}

// observeVote traces one vote as the point vote[i] or vote[i j …].
func (t *ChunkTable) observeVote(v Vote, errStr string) {
	if t.obs.Tracer.Enabled() {
		t.obs.Tracer.Point(t.obs.Parent, "consensus", "vote"+fmt.Sprint(v.Chunks), int64(v.Voter), 0, errStr)
	}
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

// ApprovalCertificate assembles the commit certificate members verify from
// the pool of approving votes, in pool order: a vote is kept when it brings
// a chunk still short of coverQuorum an approval from a member not yet
// counted for it, so the certificate holds one signature per voter and
// share, not one per chunk. It returns false if the pool cannot cover every
// chunk.
func (t *ChunkTable) ApprovalCertificate(pool []Vote) ([]Vote, bool) {
	short := t.parts // chunks still below coverQuorum
	counted := make([]map[simnet.NodeID]bool, t.parts)
	var cert []Vote
	for _, v := range pool {
		if !v.Approve || v.Block != t.block {
			continue
		}
		adds := false
		for _, idx := range v.Chunks {
			if idx < 0 || idx >= t.parts || len(counted[idx]) >= t.coverQuorum || counted[idx][v.Voter] {
				continue
			}
			if counted[idx] == nil {
				counted[idx] = make(map[simnet.NodeID]bool, t.coverQuorum)
			}
			counted[idx][v.Voter] = true
			if len(counted[idx]) == t.coverQuorum {
				short--
			}
			adds = true
		}
		if adds {
			cert = append(cert, v)
		}
	}
	if short > 0 {
		return nil, false
	}
	return cert, true
}

// VerifyCertificate checks a commit certificate: every vote approves this
// block, signatures verify under the registry, voters are members, and
// every chunk reaches the approval quorum. A vote costs one signature check
// however many chunks it covers.
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
