// Package consensus implements the intra-cluster agreement machinery
// ICIStrategy's collaborative verification relies on: rotating leader
// selection, signed votes over the chunks a member checked, and per-chunk
// quorum aggregation with Byzantine fault bounds (a cluster of size n
// tolerates f = ⌊(n−1)/3⌋ faulty members; a chunk is covered by
// min(r, f+1) approvals and proven bad by f+1 rejections).
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
	ErrEquivocation    = errors.New("consensus: voter already voted differently")
	ErrWrongSubject    = errors.New("consensus: vote is for a different block")
	ErrBadChunks       = errors.New("consensus: vote's chunks are not a strictly increasing set inside the block")
)

// FaultBound returns f, the number of Byzantine members a cluster of size n
// tolerates: ⌊(n−1)/3⌋.
func FaultBound(n int) int {
	if n <= 0 {
		return 0
	}
	return (n - 1) / 3
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

// Vote is one member's signed verdict on the chunks of one block it checked:
// its share, or what is left of it after a re-send or a reassignment. Chunks
// must be strictly increasing, which makes the signed byte string canonical
// — one set of chunks has one encoding — and lets ChunkTable.Add refuse a
// repeated or out-of-range index by looking at neighbours only. One
// signature over {a, b} states what two signatures over a and over b state.
type Vote struct {
	Voter     simnet.NodeID
	Block     blockcrypto.Hash
	Chunks    []int
	Approve   bool
	Signature []byte
}

// voteSigningFixed is the length of the signed byte string without its
// chunk indices: voter, block, index count, verdict.
const voteSigningFixed = 8 + blockcrypto.HashSize + 8 + 1

// voteScratch holds the signed bytes of a vote over up to sixteen chunks on
// the stack; a larger share spills to the heap.
type voteScratch [voteSigningFixed + 16*8]byte

// appendVoteSigningBytes appends the byte string a vote signature covers:
// voter(8) block(32) count(8) chunk(8)… verdict(1), big-endian.
func appendVoteSigningBytes(buf []byte, voter simnet.NodeID, block blockcrypto.Hash, chunks []int, approve bool) []byte {
	buf = binary.BigEndian.AppendUint64(buf, uint64(voter))
	buf = append(buf, block[:]...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(chunks)))
	for _, idx := range chunks {
		buf = binary.BigEndian.AppendUint64(buf, uint64(int64(idx)))
	}
	if approve {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// SignShareVote produces a signed vote over a set of chunks; chunks is kept,
// not copied.
func SignShareVote(voter simnet.NodeID, block blockcrypto.Hash, chunks []int, approve bool, key blockcrypto.KeyPair) Vote {
	var scratch voteScratch
	return Vote{
		Voter:     voter,
		Block:     block,
		Chunks:    chunks,
		Approve:   approve,
		Signature: key.Sign(appendVoteSigningBytes(scratch[:0], voter, block, chunks, approve)),
	}
}

// SignChunkVote produces a signed vote about one chunk: the share of one.
func SignChunkVote(voter simnet.NodeID, block blockcrypto.Hash, chunkIdx int, approve bool, key blockcrypto.KeyPair) Vote {
	return SignShareVote(voter, block, []int{chunkIdx}, approve, key)
}

// VerifyVote checks the vote's signature against the voter's public key.
func VerifyVote(v Vote, pub []byte) error {
	var scratch voteScratch
	return blockcrypto.Verify(pub, appendVoteSigningBytes(scratch[:0], v.Voter, v.Block, v.Chunks, v.Approve), v.Signature)
}

// EncodedSize is the wire size of the vote used for traffic accounting: the
// signed bytes and the signature.
func (v Vote) EncodedSize() int {
	return voteSigningFixed + 8*len(v.Chunks) + blockcrypto.SignatureSize
}

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
