// Package storage implements the node-local stores every strategy builds
// on: a header store (tiny, every node keeps all headers) and a chunk store
// holding the slices of block bodies a node is responsible for, with exact
// byte accounting, pinning, and garbage collection.
//
// The stores are in-memory maps — the simulator runs thousands of nodes in
// one process — but the accounting mirrors what an on-disk layout would
// consume, which is what the storage experiments measure. A held chunk is
// one record (Store), the in-memory form of a segment file's record.
//
// A stored chunk carries a CRC-32C of its bytes, checked on every put and
// every read. It catches bytes that change after the put; it is no trust
// check, since it never leaves the store and whoever can change the bytes
// can change it too. Integrity against a dishonest holder is the reader's
// check of the assembled block against its header's Merkle root.
package storage

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

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
// A held chunk is one record: its payload followed by the hashes of its
// run's Merkle edge in one exactly sized buffer, with the checksum, index,
// part count, TxStart and CodedK beside it. The records of a block sit in
// one map entry, sorted by chunk index; that is the store's one chunk index.
// LendChunk rebuilds a chunk's proofs from the edge and the payload when a
// reader asks for them.
type Store struct {
	headers     map[blockcrypto.Hash]chain.Header
	headerOrder []blockcrypto.Hash
	blocks      map[blockcrypto.Hash][]record
	stats       Stats
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		headers: make(map[blockcrypto.Hash]chain.Header),
		blocks:  make(map[blockcrypto.Hash][]record),
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

// record is a chunk as the store holds it.
type record struct {
	// buf is the payload, then the hashes of its Merkle edge
	// (chain.RangeProof.Hashes), allocated at exactly that size.
	buf     []byte
	size    int // payload bytes: buf[:size]
	index   int
	parts   int
	txStart int
	codedK  int
	digest  uint32
	// depth is the edge's tree depth (chain.RangeProof.Depth, at most 64);
	// -1 marks a chunk put without proofs, which keeps no edge.
	depth int8
}

// chunk returns the record as a chunk of block, without proofs. Its Data is
// the store's own buffer, capped at the payload: an append to it cannot
// reach the edge behind.
func (r *record) chunk(block blockcrypto.Hash) Chunk {
	return Chunk{
		ID:      ChunkID{Block: block, Index: r.index},
		Data:    r.buf[:r.size:r.size],
		Digest:  r.digest,
		Parts:   r.parts,
		TxStart: r.txStart,
		CodedK:  r.codedK,
	}
}

// verify checks the record's payload against its checksum.
func (r *record) verify(id ChunkID) error {
	if crc32.Checksum(r.buf[:r.size], castagnoli) != r.digest {
		return fmt.Errorf("%w: %s", ErrCorrupted, id)
	}
	return nil
}

// edge rebuilds the record's Merkle edge from the hashes behind its payload.
func (r *record) edge() chain.RangeProof {
	tail := r.buf[r.size:]
	e := chain.RangeProof{Depth: int(r.depth), Hashes: make([]blockcrypto.Hash, len(tail)/blockcrypto.HashSize)}
	for i := range e.Hashes {
		copy(e.Hashes[i][:], tail[i*blockcrypto.HashSize:])
	}
	return e
}

// find returns the records of id's block and the position of id among
// them: where it is if ok, else where it would go.
func (s *Store) find(id ChunkID) (recs []record, i int, ok bool) {
	recs = s.blocks[id.Block]
	i, ok = slices.BinarySearchFunc(recs, id.Index, func(r record, index int) int { return cmp.Compare(r.index, index) })
	return recs, i, ok
}

// setBlock stores a block's records, dropping its entry once none are left.
func (s *Store) setBlock(block blockcrypto.Hash, recs []record) {
	if len(recs) == 0 {
		delete(s.blocks, block)
		return
	}
	s.blocks[block] = recs
}

// account adds a record to the stats (sign 1) or takes it off (sign -1).
func (s *Store) account(r record, sign int64) {
	s.stats.ChunkBytes += sign * int64(r.size)
	s.stats.ChunkCount += sign
	s.stats.SidecarBytes += sign * int64(len(r.buf)-r.size)
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
	recs, i, held := s.find(c.ID)
	if held && recs[i].verify(c.ID) == nil {
		if !bytes.Equal(recs[i].buf[:recs[i].size], c.Data) {
			return fmt.Errorf("storage: conflicting data for chunk %s", c.ID)
		}
		return nil
	}
	r := record{size: len(c.Data), index: c.ID.Index, parts: c.Parts, txStart: c.TxStart, codedK: c.CodedK, digest: c.Digest, depth: -1}
	var edge chain.RangeProof
	if len(c.Proofs) > 0 {
		var err error
		if edge, err = chain.RangeProofOf(c.TxStart, c.Proofs); err != nil {
			return fmt.Errorf("storage: proofs of chunk %s: %w", c.ID, err)
		}
		r.depth = int8(edge.Depth)
	}
	r.buf = make([]byte, len(c.Data), len(c.Data)+edge.Size())
	copy(r.buf, c.Data)
	for _, h := range edge.Hashes {
		r.buf = append(r.buf, h[:]...)
	}
	if held { // damaged in place: the sound copy replaces it
		s.account(recs[i], -1)
		recs[i] = r
	} else {
		s.blocks[c.ID.Block] = slices.Insert(recs, i, r)
	}
	s.account(r, 1)
	return nil
}

// Chunk fetches a stored chunk, verifying integrity on the way out, without
// its proofs. The returned chunk holds a private copy of the data: mutating
// it cannot corrupt the store, and a later re-read returns the original
// bytes.
func (s *Store) Chunk(id ChunkID) (Chunk, error) {
	r, err := s.verified(id)
	if err != nil {
		return Chunk{}, err
	}
	c := r.chunk(id.Block)
	c.Data = append([]byte(nil), c.Data...)
	return c, nil
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
	r, err := s.verified(id)
	if err != nil {
		return err
	}
	c := r.chunk(id.Block)
	if withProofs && r.depth >= 0 {
		if c.Proofs, err = r.edge().Proofs(r.txStart, c.Data); err != nil {
			return fmt.Errorf("storage: proofs of chunk %s: %w", id, err)
		}
	}
	fn(c)
	return nil
}

// verified looks a chunk up and checks it against its checksum. The record
// returned is the store's own.
func (s *Store) verified(id ChunkID) (*record, error) {
	recs, i, ok := s.find(id)
	if !ok {
		return nil, fmt.Errorf("chunk %s: %w", id, ErrNotFound)
	}
	if err := recs[i].verify(id); err != nil {
		return nil, err
	}
	return &recs[i], nil
}

// HasChunk reports whether the chunk is stored.
func (s *Store) HasChunk(id ChunkID) bool {
	_, _, ok := s.find(id)
	return ok
}

// DeleteChunk removes a chunk. Deleting a missing chunk is a no-op.
func (s *Store) DeleteChunk(id ChunkID) {
	if recs, i, ok := s.find(id); ok {
		s.account(recs[i], -1)
		s.setBlock(id.Block, slices.Delete(recs, i, i+1))
	}
}

// ChunksForBlock returns the indices of stored chunks of the given block,
// ascending: the block's records, which are kept in that order.
func (s *Store) ChunksForBlock(block blockcrypto.Hash) []int {
	recs := s.blocks[block]
	if len(recs) == 0 {
		return nil
	}
	out := make([]int, len(recs))
	for i := range recs {
		out[i] = recs[i].index
	}
	return out
}

// GC deletes every chunk for which keep returns false and returns
// the number of bytes freed. keep sees the stored value without its
// proofs; its Data is the store's own buffer and must not be written to.
func (s *Store) GC(keep func(Chunk) bool) int64 {
	var freed int64
	for block, recs := range s.blocks {
		kept := recs[:0]
		for _, r := range recs {
			if keep(r.chunk(block)) {
				kept = append(kept, r)
				continue
			}
			freed += int64(r.size)
			s.account(r, -1)
		}
		clear(recs[len(kept):]) // the dropped buffers go with them
		s.setBlock(block, kept)
	}
	return freed
}

// Stats returns the current usage snapshot.
func (s *Store) Stats() Stats { return s.stats }

// Corrupt flips a byte of the stored chunk, for failure-injection tests.
// It reports whether the chunk existed. The stored buffer is private (copied
// on put), so it can be mutated in place; the checksum is left unchanged,
// so reads now fail verification.
func (s *Store) Corrupt(id ChunkID) bool {
	recs, i, ok := s.find(id)
	if !ok {
		return false
	}
	recs[i].buf[0] ^= 0xFF
	return true
}
