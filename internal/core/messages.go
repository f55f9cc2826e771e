package core

import (
	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/consensus"
	"icistrategy/internal/simnet"
	"icistrategy/internal/storage"
)

// message is one payload of the ICIStrategy protocol. Its type is its
// identity on the wire: kind names it in traffic accounting and traces, and
// wireSize is the size it is charged. Node.send reads both, and Node.handle
// dispatches on the type alone.
type message interface {
	kind() string
	wireSize() int
}

// reqOverhead is the wire size of a small request (kind tag, block hash,
// indexes); one size for all control requests keeps accounting simple.
const reqOverhead = 48

// proposeMsg carries a full block from the producer to each cluster leader.
type proposeMsg struct {
	Block *chain.Block
}

func (proposeMsg) kind() string { return "ici/propose" }
func (m proposeMsg) wireSize() int {
	return chain.HeaderSize + m.Block.BodySize()
}

// chunkPayload is one chunk as its owner stores it — the group's sub-body
// (Group.Encode) in Data, its proofs beside it — under the header whose
// Merkle root the proofs lead to: what a fetch answer carries. A receiver
// takes the bytes only through AdoptChunk, and Digest is its sender's: it
// is not trusted.
type chunkPayload struct {
	Header chain.Header
	storage.Chunk
}

// wireSize counts the header and the chunk.
func (c chunkPayload) wireSize() int { return chain.HeaderSize + chunkWireBytes(c.Chunk) }

// chunkWireBytes is a chunk on the wire without a header: position fields,
// data and proofs.
func chunkWireBytes(c storage.Chunk) int {
	n := 16 + len(c.Data)
	for _, p := range c.Proofs {
		n += p.EncodedSize()
	}
	return n
}

// shareMsg carries a member's share from a cluster leader to that member:
// the chunks it is asked to verify and store — each group's stored bytes
// with its Merkle proofs — in increasing index order, under the header
// whose Merkle root their proofs lead to. Like every chunk a member
// receives, each is the bytes it is stored in, and the owner takes it only
// through AdoptChunk.
type shareMsg struct {
	Header chain.Header
	Chunks []storage.Chunk
	// verdict is the owner's check of Chunks, started when the leader sent
	// the share (node.go startVerdict); nil for the leader's own share. It
	// is simulator bookkeeping, not wire bytes.
	verdict *shareVerdict
}

func (shareMsg) kind() string { return "ici/chunk" }

// wireSize counts the header once, whatever the number of chunks.
func (m shareMsg) wireSize() int {
	n := chain.HeaderSize
	for _, c := range m.Chunks {
		n += chunkWireBytes(c)
	}
	return n
}

// voteMsg carries a member's signed verdict on its share back to the leader.
type voteMsg struct{ consensus.Vote }

func (voteMsg) kind() string    { return "ici/vote" }
func (m voteMsg) wireSize() int { return m.EncodedSize() }

// commitMsg carries the leader's commit certificate to cluster members: its
// proof that every chunk of the block was verified by a quorum of its
// assignees, one signed vote per member and share.
type commitMsg struct {
	Header chain.Header
	Parts  int
	Votes  []consensus.Vote
}

func (commitMsg) kind() string { return "ici/commit" }
func (m commitMsg) wireSize() int {
	n := chain.HeaderSize + 8
	for _, v := range m.Votes {
		n += v.EncodedSize()
	}
	return n
}

// getCommitMsg pulls a block's commit certificate from a peer that
// finalized it. Members send it when the commit announcement for a block
// they hold pending chunks of never arrived (lost on the wire or missed
// during a crash); the answer is an ordinary commitMsg. A failure-free run
// never sends one.
type getCommitMsg struct {
	Block blockcrypto.Hash
}

func (getCommitMsg) kind() string  { return "ici/get-commit" }
func (getCommitMsg) wireSize() int { return reqOverhead }

// getHeadersMsg asks a sponsor for all headers above FromHeight: the header
// sync of the bootstrap protocol.
type getHeadersMsg struct {
	FromHeight uint64
	ReqID      uint64
}

func (getHeadersMsg) kind() string  { return "ici/get-headers" }
func (getHeadersMsg) wireSize() int { return reqOverhead }

// headersMsg returns the sponsor's headers in chain order, tagged with the
// request it answers.
type headersMsg struct {
	Headers []chain.Header
	ReqID   uint64
}

func (headersMsg) kind() string    { return "ici/headers" }
func (m headersMsg) wireSize() int { return len(m.Headers) * chain.HeaderSize }

// getChunkMsg asks an owner for one chunk of one block (bootstrap and
// repair).
type getChunkMsg struct {
	Block blockcrypto.Hash
	Idx   int
	// ReqID correlates the response with the requester's pending fetch.
	ReqID uint64
	// Attempt tags the fetch attempt that issued this request; responders
	// echo it so the requester can tell a current answer from a stale one
	// that outlived its timeout.
	Attempt int
}

func (getChunkMsg) kind() string  { return "ici/get-chunk" }
func (getChunkMsg) wireSize() int { return reqOverhead }

// chunkRespMsg returns a stored chunk with its proofs (Found is false when
// the responder does not hold it).
type chunkRespMsg struct {
	Block   blockcrypto.Hash
	ReqID   uint64
	Attempt int // echoed from the request
	Found   bool
	Chunk   chunkPayload
}

func (chunkRespMsg) kind() string { return "ici/chunk-resp" }
func (m chunkRespMsg) wireSize() int {
	if !m.Found {
		return reqOverhead
	}
	return m.Chunk.wireSize()
}

// getBlockChunksMsg asks a member for every chunk it holds of one block
// (full-block retrieval).
type getBlockChunksMsg struct {
	Block blockcrypto.Hash
	ReqID uint64
	// Round tags the broadcast round that issued this request; responders
	// echo it. Without the tag, an answer to a timed-out earlier round
	// counts toward the current round's bookkeeping and can fire the
	// "every member answered" definitive failure prematurely.
	Round int
}

func (getBlockChunksMsg) kind() string  { return "ici/get-block-chunks" }
func (getBlockChunksMsg) wireSize() int { return reqOverhead }

// blockChunksMsg returns all held chunks of a block as stored, without
// proofs — a full-block reassembly is verified against the Merkle root
// directly (ReassembleEncoding): a group's sub-body for a live block, or a
// Reed-Solomon share of an archived one (CodedK > 0). Either way Parts is the
// count the block was stored under.
type blockChunksMsg struct {
	Block  blockcrypto.Hash
	ReqID  uint64
	Round  int // echoed from the request
	Chunks []storage.Chunk
}

func (blockChunksMsg) kind() string { return "ici/block-chunks" }

// wireSize counts a live chunk's sub-body, which holds its own count, and a
// coded share with a four-byte length.
func (m blockChunksMsg) wireSize() int {
	n := reqOverhead
	for _, c := range m.Chunks {
		n += len(c.Data)
		if c.CodedK > 0 {
			n += 4
		}
	}
	return n
}

// clusterInfo is the shared view of one cluster: its epoch-versioned
// membership map (epoch.go) plus the archival records. Membership changes go
// through System, which pushes epochs; nothing edits one in place.
type clusterInfo struct {
	index int
	EpochMap
	// archived records blocks converted to coded storage (see archive.go).
	// Like membership, it is a shared cluster view; a real deployment
	// would record archival decisions on the membership chain.
	archived map[blockcrypto.Hash]archiveInfo
}

// leaderAt returns the cluster's leader for the given height, elected over
// the membership that governs that height.
func (c *clusterInfo) leaderAt(height uint64) (simnet.NodeID, error) {
	return consensus.Leader(c.At(height).Members, height)
}
