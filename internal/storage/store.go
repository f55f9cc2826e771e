// Package storage implements the node-local stores every strategy builds
// on: a header store (tiny, every node keeps all headers) and a chunk store
// holding the slices of block bodies a node is responsible for, with exact
// byte accounting, pinning, and garbage collection.
//
// The stores are in-memory maps — the simulator runs thousands of nodes in
// one process — but the accounting mirrors what an on-disk layout would
// consume, which is what the storage experiments measure.
//
// A stored chunk carries a CRC-32C of its bytes, checked on every put and
// every read. It catches bytes that change after the put; it is no trust
// check, since it never leaves the store and whoever can change the bytes
// can change it too. Integrity against a dishonest holder is the reader's
// check of the assembled block against its header's Merkle root.
package storage

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
)

// Store errors.
var (
	ErrNotFound   = errors.New("storage: not found")
	ErrCorrupted  = errors.New("storage: chunk does not match its checksum")
	ErrChunkEmpty = errors.New("storage: chunk is empty")
)

// ChunkID names one chunk of one block's body: the block hash plus the
// chunk index within the block.
type ChunkID struct {
	Block blockcrypto.Hash
	Index int
}

// String implements fmt.Stringer.
func (c ChunkID) String() string {
	return fmt.Sprintf("%s/%d", c.Block.Short(), c.Index)
}

// Chunk is a stored slice of a block body together with its checksum, so
// damage to the stored bytes is caught on every read, and the sidecar an
// owner keeps beside the bytes to serve verifiable reads: a chunk and its
// sidecar are put, read, pruned and deleted as one value. Only Data counts
// as stored bytes (Stats).
type Chunk struct {
	ID   ChunkID
	Data []byte
	// Digest is the CRC-32C (Castagnoli) of Data: it detects damage, it
	// does not authenticate (see the package comment).
	Digest uint32

	// Parts is how many chunks the block was split into (how many shares,
	// for a coded chunk).
	Parts int
	// TxStart is the block position of the first transaction in Data, and
	// Proofs[i] proves transaction i of Data under the header's Merkle
	// root. Proofs is the in-flight form, which PutChunk takes: the store
	// keeps only the Merkle edge of the run (chain.RangeProof), and a read
	// returns Proofs nil unless it asks LendChunk for them, rebuilt from
	// Data.
	TxStart int
	Proofs  []chain.Proof
	// CodedK > 0 marks Data as a Reed-Solomon byte share of an archived
	// block: any CodedK of its Parts shares rebuild the body.
	CodedK int
}

// castagnoli is the CRC-32C table: hash/crc32 computes it with the
// processor's CRC instruction where there is one.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// NewChunk builds a chunk, computing its checksum; the caller fills the
// sidecar.
func NewChunk(id ChunkID, data []byte) Chunk {
	return Chunk{ID: id, Data: data, Digest: crc32.Checksum(data, castagnoli)}
}

// Verify reports whether the chunk data still matches its checksum.
func (c *Chunk) Verify() error {
	if len(c.Data) == 0 {
		return ErrChunkEmpty
	}
	if crc32.Checksum(c.Data, castagnoli) != c.Digest {
		return fmt.Errorf("%w: %s", ErrCorrupted, c.ID)
	}
	return nil
}

// Stats is a storage usage snapshot in bytes and object counts.
type Stats struct {
	HeaderBytes int64
	HeaderCount int64
	ChunkBytes  int64
	ChunkCount  int64
	// SidecarBytes is the hash bytes of the Merkle edges kept beside the
	// chunks (chain.RangeProof.Size): what an owner holds to serve proofs.
	// It is not data, and TotalBytes leaves it out.
	SidecarBytes int64
}

// TotalBytes returns header plus chunk bytes.
func (s Stats) TotalBytes() int64 { return s.HeaderBytes + s.ChunkBytes }

// Store is one node's local storage. The zero value is not usable; create
// with NewStore. Store is not safe for concurrent use (the simulator is
// single-threaded per node).
//
// The store's at-rest form of a chunk's proofs is its own: a chunk put with
// proofs keeps the Merkle edge of its run of transactions, at most two
// hashes a tree level, and LendChunk rebuilds the proofs from that edge and
// Data when a reader asks for them.
type Store struct {
	headers     map[blockcrypto.Hash]chain.Header
	headerOrder []blockcrypto.Hash
	chunks      map[ChunkID]held
	// byBlock indexes stored chunk indices per block, kept in lockstep with
	// chunks by PutChunk/DeleteChunk/GC, so retrieval and repair paths pay
	// O(chunks of that block) instead of scanning the whole store.
	byBlock map[blockcrypto.Hash]map[int]struct{}
	stats   Stats
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		headers: make(map[blockcrypto.Hash]chain.Header),
		chunks:  make(map[ChunkID]held),
		byBlock: make(map[blockcrypto.Hash]map[int]struct{}),
	}
}

// PutHeader stores a block header (idempotent).
func (s *Store) PutHeader(h chain.Header) {
	key := h.Hash()
	if _, ok := s.headers[key]; ok {
		return
	}
	s.headers[key] = h
	s.headerOrder = append(s.headerOrder, key)
	s.stats.HeaderBytes += int64(chain.HeaderSize)
	s.stats.HeaderCount++
}

// Header fetches a stored header by block hash.
func (s *Store) Header(block blockcrypto.Hash) (chain.Header, error) {
	h, ok := s.headers[block]
	if !ok {
		return chain.Header{}, fmt.Errorf("header %s: %w", block.Short(), ErrNotFound)
	}
	return h, nil
}

// HasHeader reports whether the header is stored.
func (s *Store) HasHeader(block blockcrypto.Hash) bool {
	_, ok := s.headers[block]
	return ok
}

// Headers returns all stored headers in insertion order.
func (s *Store) Headers() []chain.Header {
	out := make([]chain.Header, 0, len(s.headerOrder))
	for _, key := range s.headerOrder {
		out = append(out, s.headers[key])
	}
	return out
}

// held is a chunk as the store keeps it: Proofs nil, and the Merkle edge
// they were put with, nil for a chunk put without proofs (a coded share).
type held struct {
	Chunk
	edge *chain.RangeProof
}

// PutChunk stores a chunk after verifying it against its checksum
// (idempotent; re-putting the same bytes is a no-op, re-putting other bytes
// under the same ID is an error, whatever their checksum). A held copy that
// fails its own checksum was damaged in place and is replaced. The store keeps a
// private copy of the data: a caller mutating its buffer after the put
// cannot corrupt the stored chunk. Of the proofs it keeps the run's edge
// (chain.RangeProofOf), and refuses proofs that are not a run from TxStart.
func (s *Store) PutChunk(c Chunk) error {
	if err := c.Verify(); err != nil {
		return err
	}
	if existing, ok := s.chunks[c.ID]; ok && existing.Verify() != nil {
		s.dropChunk(c.ID, existing) // damaged in place: the sound copy replaces it
	} else if ok {
		if !bytes.Equal(existing.Data, c.Data) {
			return fmt.Errorf("storage: conflicting data for chunk %s", c.ID)
		}
		return nil
	}
	var edge *chain.RangeProof
	if len(c.Proofs) > 0 {
		e, err := chain.RangeProofOf(c.TxStart, c.Proofs)
		if err != nil {
			return fmt.Errorf("storage: proofs of chunk %s: %w", c.ID, err)
		}
		edge = &e
		s.stats.SidecarBytes += int64(e.Size())
	}
	c.Proofs = nil
	c.Data = append([]byte(nil), c.Data...)
	s.chunks[c.ID] = held{Chunk: c, edge: edge}
	idxs, ok := s.byBlock[c.ID.Block]
	if !ok {
		idxs = make(map[int]struct{})
		s.byBlock[c.ID.Block] = idxs
	}
	idxs[c.ID.Index] = struct{}{}
	s.stats.ChunkBytes += int64(len(c.Data))
	s.stats.ChunkCount++
	return nil
}

// Chunk fetches a stored chunk, verifying integrity on the way out, without
// its proofs. The returned chunk holds a private copy of the data: mutating
// it cannot corrupt the store, and a later re-read returns the original
// bytes.
func (s *Store) Chunk(id ChunkID) (Chunk, error) {
	h, err := s.verified(id)
	if err != nil {
		return Chunk{}, err
	}
	h.Data = append([]byte(nil), h.Data...)
	return h.Chunk, nil
}

// LendChunk verifies a stored chunk's integrity like Chunk and hands fn the
// stored value itself, for a reader that copies the bytes somewhere of its
// own anyway (a server's response frame). As in GC's keep, its Data is the
// store's own buffer: fn must not write to it, and must not keep it past
// its return. withProofs is the one read that comes with proofs: they are
// rebuilt from the chunk's Merkle edge and its verified Data (nil for a
// chunk put without them), and fn owns them. A chunk whose proofs cannot be
// rebuilt is not lent.
func (s *Store) LendChunk(id ChunkID, withProofs bool, fn func(Chunk)) error {
	h, err := s.verified(id)
	if err != nil {
		return err
	}
	if withProofs && h.edge != nil {
		if h.Proofs, err = h.edge.Proofs(h.TxStart, h.Data); err != nil {
			return fmt.Errorf("storage: proofs of chunk %s: %w", id, err)
		}
	}
	fn(h.Chunk)
	return nil
}

// verified looks a chunk up and checks it against its checksum. The value
// returned still shares its Data with the store.
func (s *Store) verified(id ChunkID) (held, error) {
	h, ok := s.chunks[id]
	if !ok {
		return held{}, fmt.Errorf("chunk %s: %w", id, ErrNotFound)
	}
	if err := h.Verify(); err != nil {
		return held{}, err
	}
	return h, nil
}

// HasChunk reports whether the chunk is stored.
func (s *Store) HasChunk(id ChunkID) bool {
	_, ok := s.chunks[id]
	return ok
}

// DeleteChunk removes a chunk. Deleting a missing chunk is a no-op.
func (s *Store) DeleteChunk(id ChunkID) {
	if h, ok := s.chunks[id]; ok {
		s.dropChunk(id, h)
	}
}

// dropChunk removes a chunk from the map, the per-block index, and the
// accounting.
func (s *Store) dropChunk(id ChunkID, h held) {
	delete(s.chunks, id)
	if idxs, ok := s.byBlock[id.Block]; ok {
		delete(idxs, id.Index)
		if len(idxs) == 0 {
			delete(s.byBlock, id.Block)
		}
	}
	s.stats.ChunkBytes -= int64(len(h.Data))
	s.stats.ChunkCount--
	if h.edge != nil {
		s.stats.SidecarBytes -= int64(h.edge.Size())
	}
}

// ChunksForBlock returns the indices of stored chunks of the given block,
// ascending. It reads the per-block index, so the cost is proportional to
// the chunks of that one block, not the whole store.
func (s *Store) ChunksForBlock(block blockcrypto.Hash) []int {
	idxs, ok := s.byBlock[block]
	if !ok {
		return nil
	}
	out := make([]int, 0, len(idxs))
	for idx := range idxs {
		out = append(out, idx)
	}
	sort.Ints(out)
	return out
}

// GC deletes every chunk for which keep returns false and returns
// the number of bytes freed. keep sees the stored value without its
// proofs; its Data is the store's own buffer and must not be written to.
func (s *Store) GC(keep func(Chunk) bool) int64 {
	var freed int64
	for id, h := range s.chunks {
		if keep(h.Chunk) {
			continue
		}
		freed += int64(len(h.Data))
		s.dropChunk(id, h)
	}
	return freed
}

// Stats returns the current usage snapshot.
func (s *Store) Stats() Stats { return s.stats }

// Corrupt flips a byte of the stored chunk, for failure-injection tests.
// It reports whether the chunk existed. The stored slice is private (copied
// on put), so it can be mutated in place; the checksum is left unchanged,
// so reads now fail verification.
func (s *Store) Corrupt(id ChunkID) bool {
	c, ok := s.chunks[id]
	if !ok || len(c.Data) == 0 {
		return false
	}
	c.Data[0] ^= 0xFF
	return true
}
