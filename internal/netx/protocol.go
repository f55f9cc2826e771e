// Package netx runs the ICIStrategy storage protocol over real TCP: every
// cluster member is a Server owning a chunk/header store, and clients
// (block distributors, readers, bootstrapping nodes) speak a request/response
// protocol of length-prefixed binary frames to it (wire.go; DESIGN.md "Wire
// format"). The discrete-event simulator (internal/simnet) is the
// tool for measuring the strategy at scale; netx exists to prove the same
// storage layout, placement, and verification logic works end-to-end on a
// real network stack, and to power the cmd/icinet demo.
package netx

import (
	"errors"
	"fmt"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/core"
)

// Protocol errors.
var (
	ErrTooLarge   = errors.New("netx: message exceeds size limit")
	ErrBadRequest = errors.New("netx: malformed request")
	ErrNotFound   = errors.New("netx: not found")
)

// maxMessageSize bounds what follows a frame's length field (64 MiB — far
// above any realistic block).
const maxMessageSize = 64 << 20

// Request is the union of client requests; exactly one field is set.
type Request struct {
	PutHeader      *PutHeaderReq
	PutChunk       *PutChunkReq
	GetHeaders     *GetHeadersReq
	GetChunk       *GetChunkReq
	GetChunkBatch  *ChunkBatchReq
	GetBlockChunks *GetBlockChunksReq
	GetTxProof     *TxProofReq
	GetClusterMap  *ClusterMapReq
	SetClusterMap  *SetClusterMapReq
	Stats          *StatsReq
	Fault          *FaultReq
}

// Response is the union of server responses; Err is set on failure.
type Response struct {
	Err         string
	OK          *struct{}
	Headers     []chain.Header
	Chunk       *ChunkResp
	ChunkBatch  *ChunkBatchResp
	BlockChunks *BlockChunksResp
	TxProof     *TxProofResp
	ClusterMap  *ClusterMapResp
	Stats       *StatsResp
	Faults      *FaultResp
}

// PutHeaderReq stores a block header.
type PutHeaderReq struct {
	Header chain.Header
}

// PutChunkReq stores one chunk of a block's body: the encoded transaction
// group plus the positions and Merkle proofs needed to serve verifiable
// reads later.
type PutChunkReq struct {
	Block   blockcrypto.Hash
	Index   int
	Parts   int
	TxStart int
	Data    []byte // chain sub-body encoding of the transaction group
	Proofs  []chain.Proof
}

// GetHeadersReq fetches all headers at or above FromHeight.
type GetHeadersReq struct {
	FromHeight uint64
}

// GetChunkReq fetches one stored chunk.
type GetChunkReq struct {
	Block blockcrypto.Hash
	Index int
}

// ChunkResp returns a stored chunk.
type ChunkResp struct {
	Index   int
	Parts   int
	TxStart int
	Data    []byte
	Proofs  []chain.Proof
}

// ChunkRef names one stored chunk, possibly of a different block than its
// batch siblings, and says whether the answer is to carry the chunk's Merkle
// proofs. A reader that checks the reassembled block against the header's
// root looks at no proof, so the zero value asks for the payload alone; one
// that has to judge a single copy (Gather, once a reassembly was refused)
// asks for them.
type ChunkRef struct {
	Block  blockcrypto.Hash
	Index  int
	Proofs bool
}

// ChunkBatchReq fetches several stored chunks in one round trip — the wire
// op behind the gateway's cross-request batching: wants for the same peer
// that accumulate while a round trip is in flight ride the next frame
// together instead of paying one round trip each.
type ChunkBatchReq struct {
	Refs []ChunkRef
}

// maxBatchRefs bounds one batch so a malicious or buggy client cannot make
// the server assemble an unbounded response.
const maxBatchRefs = 4096

// ChunkBatchResp answers a batch fetch position-for-position: Chunks[i]
// answers Refs[i], with an empty proof list unless the ref asked for proofs,
// and Found[i] is false (with a zero Chunks[i]) when this server does not
// hold that chunk. Partial answers are expected — the client falls back to
// the other owners for the holes.
type ChunkBatchResp struct {
	Found  []bool
	Chunks []ChunkResp
}

// TxProofReq asks for the transaction with the given ID inside a block,
// plus the stored Merkle proof connecting it to the block's root — the
// light-client read: no whole block crosses the wire.
type TxProofReq struct {
	Block blockcrypto.Hash
	TxID  blockcrypto.Hash
}

// TxProofResp answers a proof query. Found is false when this server's
// chunks do not contain the transaction (another owner may still hold it).
type TxProofResp struct {
	Found bool
	Tx    *chain.Transaction
	Proof chain.Proof
}

// GetBlockChunksReq fetches every chunk the server holds for a block.
type GetBlockChunksReq struct {
	Block blockcrypto.Hash
}

// BlockChunksResp returns all held chunks of one block.
type BlockChunksResp struct {
	Parts  int
	Chunks []ChunkResp
}

// ClusterMapReq fetches the server's epoch-versioned cluster map.
type ClusterMapReq struct{}

// ClusterMapResp returns the stored cluster map, whole — readers resolve any
// historic block against the membership it was written under. Empty when no
// map was ever published to this server.
type ClusterMapResp struct {
	Epochs core.EpochMap
}

// SetClusterMapReq publishes a cluster map. Servers keep the newest valid
// map they have seen (core.EpochMap.Newer): a stale or duplicate publish is
// acknowledged but ignored, so republishing after partitions or restarts is
// always safe.
type SetClusterMapReq struct {
	Epochs core.EpochMap
}

// maxMapEpochs bounds a published map so a buggy client cannot grow server
// state without limit; real churn histories are far smaller.
const maxMapEpochs = 65536

// checkMap is the gate every cluster map from outside the process passes
// before it is adopted — a server's SetClusterMap, a cluster's poll (and
// through it the gateway's refresh).
func checkMap(m core.EpochMap) error {
	if len(m) > maxMapEpochs {
		return fmt.Errorf("%w: cluster map with %d epochs", core.ErrBadMap, len(m))
	}
	return m.Validate()
}

// StatsReq asks for the server's storage accounting.
type StatsReq struct{}

// StatsResp reports storage usage.
type StatsResp struct {
	HeaderCount int64
	HeaderBytes int64
	ChunkCount  int64
	ChunkBytes  int64
}

// FaultReq is the chaos control op (see faults.go): it installs a fault
// configuration, corrupts already-stored chunks, or both. Servers reject it
// unless EnableChaos was called at startup.
type FaultReq struct {
	// Set installs this fault config (a zero config clears faults).
	Set *FaultConfig
	// CorruptStored flips one byte in every stored chunk, turning this
	// server into a byzantine member whose shards fail verification.
	CorruptStored bool
}

// FaultResp acknowledges a FaultReq.
type FaultResp struct {
	// Corrupted counts the chunks CorruptStored damaged.
	Corrupted int
}
