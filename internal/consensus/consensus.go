// Package consensus implements the intra-cluster agreement machinery
// ICIStrategy's collaborative verification relies on: rotating leader
// selection, signed block votes, and quorum aggregation with Byzantine
// fault bounds (a cluster of size n tolerates f = ⌊(n−1)/3⌋ faulty members
// and commits on n−f approvals, the 2f+1 of the n=3f+1 case).
package consensus

import (
	"encoding/binary"
	"errors"
	"fmt"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/simnet"
)

// Consensus errors.
var (
	ErrEmptyMembership = errors.New("consensus: empty membership")
	ErrNotMember       = errors.New("consensus: voter is not a member")
	ErrEquivocation    = errors.New("consensus: voter already voted differently")
	ErrWrongSubject    = errors.New("consensus: vote is for a different block")
)

// FaultBound returns f, the number of Byzantine members a cluster of size n
// tolerates: ⌊(n−1)/3⌋.
func FaultBound(n int) int {
	if n <= 0 {
		return 0
	}
	return (n - 1) / 3
}

// QuorumSize returns the approvals needed to commit in a cluster of size n:
// n − f. For n = 3f+1 this is the familiar 2f+1; for other n it is the
// smallest quorum whose pairwise intersections always contain an honest
// member (2q − n > f).
func QuorumSize(n int) int {
	if n <= 0 {
		return 1
	}
	return n - FaultBound(n)
}

// Leader returns the member that leads verification of the block at the
// given height: simple round-robin over the ordered membership, the same
// rule every member can evaluate locally.
func Leader(members []simnet.NodeID, height uint64) (simnet.NodeID, error) {
	if len(members) == 0 {
		return 0, ErrEmptyMembership
	}
	return members[int(height%uint64(len(members)))], nil
}

// Vote is one member's signed verdict on one chunk of a block. ChunkIdx is
// -1 for block-level votes (VoteSet); chunk-level votes (ChunkTable) carry
// the index of the chunk the voter actually verified.
type Vote struct {
	Voter     simnet.NodeID
	Block     blockcrypto.Hash
	ChunkIdx  int
	Approve   bool
	Signature []byte
}

// voteSigningSize is the length of the byte string a vote signature covers.
const voteSigningSize = 16 + blockcrypto.HashSize + 1

// appendVoteSigningBytes appends the canonical byte string a vote signature
// covers. Callers pass a stack buffer of voteSigningSize, so signing and
// verifying a vote allocate nothing here.
func appendVoteSigningBytes(buf []byte, voter simnet.NodeID, block blockcrypto.Hash, chunkIdx int, approve bool) []byte {
	buf = binary.BigEndian.AppendUint64(buf, uint64(voter))
	buf = append(buf, block[:]...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(int64(chunkIdx)))
	if approve {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// SignVote produces a signed block-level vote (ChunkIdx -1).
func SignVote(voter simnet.NodeID, block blockcrypto.Hash, approve bool, key blockcrypto.KeyPair) Vote {
	return SignChunkVote(voter, block, -1, approve, key)
}

// SignChunkVote produces a signed vote about one chunk.
func SignChunkVote(voter simnet.NodeID, block blockcrypto.Hash, chunkIdx int, approve bool, key blockcrypto.KeyPair) Vote {
	var scratch [voteSigningSize]byte
	return Vote{
		Voter:     voter,
		Block:     block,
		ChunkIdx:  chunkIdx,
		Approve:   approve,
		Signature: key.Sign(appendVoteSigningBytes(scratch[:0], voter, block, chunkIdx, approve)),
	}
}

// VerifyVote checks the vote's signature against the voter's public key.
func VerifyVote(v Vote, pub []byte) error {
	var scratch [voteSigningSize]byte
	return blockcrypto.Verify(pub, appendVoteSigningBytes(scratch[:0], v.Voter, v.Block, v.ChunkIdx, v.Approve), v.Signature)
}

// EncodedVoteSize is the wire size of a vote used for traffic accounting.
const EncodedVoteSize = voteSigningSize + blockcrypto.SignatureSize

// Decision is the state of a vote aggregation.
type Decision int

// Possible aggregation outcomes.
const (
	Pending Decision = iota + 1
	Committed
	Rejected
)

// String implements fmt.Stringer.
func (d Decision) String() string {
	switch d {
	case Pending:
		return "pending"
	case Committed:
		return "committed"
	case Rejected:
		return "rejected"
	default:
		return fmt.Sprintf("decision(%d)", int(d))
	}
}

// VoteSet aggregates votes from one cluster about one block. The leader
// holds one per in-flight block. Not safe for concurrent use.
type VoteSet struct {
	block    blockcrypto.Hash
	members  map[simnet.NodeID]bool
	votes    map[simnet.NodeID]bool // voter -> approve
	quorum   int
	rejectAt int // votes against needed to prove the block can never commit
}

// NewVoteSet starts aggregation for block among the given members.
func NewVoteSet(block blockcrypto.Hash, members []simnet.NodeID) (*VoteSet, error) {
	if len(members) == 0 {
		return nil, ErrEmptyMembership
	}
	ms := make(map[simnet.NodeID]bool, len(members))
	for _, m := range members {
		ms[m] = true
	}
	n := len(members)
	return &VoteSet{
		block:   block,
		members: ms,
		votes:   make(map[simnet.NodeID]bool, n),
		quorum:  QuorumSize(n),
		// Once more than n - quorum members reject, quorum approvals are
		// unreachable.
		rejectAt: n - QuorumSize(n) + 1,
	}, nil
}

// Quorum returns the approval count needed to commit.
func (vs *VoteSet) Quorum() int { return vs.quorum }

// Add records one vote and returns the updated decision. Votes from
// non-members and duplicate consistent votes are tolerated (idempotent);
// equivocation (same voter, different verdict) is an error.
func (vs *VoteSet) Add(v Vote) (Decision, error) {
	if v.Block != vs.block {
		return vs.Decision(), ErrWrongSubject
	}
	if !vs.members[v.Voter] {
		return vs.Decision(), fmt.Errorf("%w: %d", ErrNotMember, v.Voter)
	}
	if prev, ok := vs.votes[v.Voter]; ok {
		if prev != v.Approve {
			return vs.Decision(), fmt.Errorf("%w: %d", ErrEquivocation, v.Voter)
		}
		return vs.Decision(), nil
	}
	vs.votes[v.Voter] = v.Approve
	return vs.Decision(), nil
}

// Approvals returns the current number of approve votes.
func (vs *VoteSet) Approvals() int {
	n := 0
	for _, ok := range vs.votes {
		if ok {
			n++
		}
	}
	return n
}

// Rejections returns the current number of reject votes.
func (vs *VoteSet) Rejections() int {
	return len(vs.votes) - vs.Approvals()
}

// Decision returns the current aggregation state.
func (vs *VoteSet) Decision() Decision {
	if vs.Approvals() >= vs.quorum {
		return Committed
	}
	if vs.Rejections() >= vs.rejectAt {
		return Rejected
	}
	return Pending
}
