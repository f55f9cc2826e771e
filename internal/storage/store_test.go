package storage

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
)

func testHeader(height uint64) chain.Header {
	return chain.Header{
		Height:     height,
		PrevHash:   blockcrypto.Sum256([]byte{byte(height)}),
		MerkleRoot: blockcrypto.Sum256([]byte{byte(height), 1}),
		TxCount:    1,
	}
}

func testChunk(block byte, idx int, size int) Chunk {
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i) ^ block
	}
	return NewChunk(ChunkID{Block: blockcrypto.Sum256([]byte{block}), Index: idx}, data)
}

func TestHeaderRoundTrip(t *testing.T) {
	s := NewStore()
	h := testHeader(3)
	s.PutHeader(h)
	got, err := s.Header(h.Hash())
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatal("header round trip mismatch")
	}
	if !s.HasHeader(h.Hash()) {
		t.Fatal("HasHeader false after Put")
	}
	if _, err := s.Header(blockcrypto.Sum256([]byte("missing"))); err == nil {
		t.Fatal("missing header found")
	}
}

func TestHeaderIdempotentAccounting(t *testing.T) {
	s := NewStore()
	h := testHeader(1)
	s.PutHeader(h)
	s.PutHeader(h)
	st := s.Stats()
	if st.HeaderCount != 1 || st.HeaderBytes != int64(chain.HeaderSize) {
		t.Fatalf("stats after duplicate put: %+v", st)
	}
}

func TestHeadersInsertionOrder(t *testing.T) {
	s := NewStore()
	for i := uint64(0); i < 5; i++ {
		s.PutHeader(testHeader(i))
	}
	hs := s.Headers()
	if len(hs) != 5 {
		t.Fatalf("Headers() len = %d", len(hs))
	}
	for i, h := range hs {
		if h.Height != uint64(i) {
			t.Fatalf("insertion order broken at %d: height %d", i, h.Height)
		}
	}
}

func TestChunkRoundTrip(t *testing.T) {
	s := NewStore()
	c := testChunk(1, 0, 100)
	if err := s.PutChunk(c); err != nil {
		t.Fatal(err)
	}
	got, err := s.Chunk(c.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Data) != string(c.Data) {
		t.Fatal("chunk data mismatch")
	}
	if !s.HasChunk(c.ID) {
		t.Fatal("HasChunk false after Put")
	}
	st := s.Stats()
	if st.ChunkCount != 1 || st.ChunkBytes != 100 {
		t.Fatalf("stats: %+v", st)
	}
	if st.TotalBytes() != 100 {
		t.Fatalf("TotalBytes() = %d", st.TotalBytes())
	}
}

func TestPutChunkRejectsEmptyAndTampered(t *testing.T) {
	s := NewStore()
	empty := Chunk{ID: ChunkID{Index: 0}}
	if err := s.PutChunk(empty); err == nil {
		t.Fatal("empty chunk accepted")
	}
	c := testChunk(1, 0, 10)
	c.Data[0] ^= 1 // digest now wrong
	if err := s.PutChunk(c); err == nil {
		t.Fatal("tampered chunk accepted")
	}
}

func TestPutChunkConflict(t *testing.T) {
	s := NewStore()
	a := testChunk(1, 0, 10)
	if err := s.PutChunk(a); err != nil {
		t.Fatal(err)
	}
	if err := s.PutChunk(a); err != nil {
		t.Fatalf("idempotent re-put failed: %v", err)
	}
	b := NewChunk(a.ID, []byte("different content"))
	if err := s.PutChunk(b); err == nil {
		t.Fatal("conflicting chunk accepted under same ID")
	}
}

func TestDeleteChunkAccounting(t *testing.T) {
	s := NewStore()
	c := testChunk(2, 1, 64)
	if err := s.PutChunk(c); err != nil {
		t.Fatal(err)
	}
	s.DeleteChunk(c.ID)
	st := s.Stats()
	if st.ChunkBytes != 0 || st.ChunkCount != 0 {
		t.Fatalf("stats after delete: %+v", st)
	}
	s.DeleteChunk(c.ID) // a missing chunk is a no-op
	if st := s.Stats(); st.ChunkBytes != 0 || st.ChunkCount != 0 {
		t.Fatalf("stats after double delete: %+v", st)
	}
}

func TestChunksForBlockSorted(t *testing.T) {
	s := NewStore()
	block := blockcrypto.Sum256([]byte{9})
	for _, idx := range []int{5, 1, 3} {
		c := NewChunk(ChunkID{Block: block, Index: idx}, []byte{byte(idx)})
		if err := s.PutChunk(c); err != nil {
			t.Fatal(err)
		}
	}
	got := s.ChunksForBlock(block)
	want := []int{1, 3, 5}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("ChunksForBlock = %v, want %v", got, want)
	}
	if n := len(s.ChunksForBlock(blockcrypto.Sum256([]byte("other")))); n != 0 {
		t.Fatalf("unrelated block has %d chunks", n)
	}
}

func TestGC(t *testing.T) {
	s := NewStore()
	keepers := testChunk(1, 0, 10)
	victims := []Chunk{testChunk(1, 1, 20), testChunk(1, 2, 30)}
	for _, c := range append([]Chunk{keepers}, victims...) {
		if err := s.PutChunk(c); err != nil {
			t.Fatal(err)
		}
	}
	freed := s.GC(func(c Chunk) bool { return c.ID == keepers.ID })
	if freed != 50 {
		t.Fatalf("GC freed %d bytes, want 50", freed)
	}
	if !s.HasChunk(keepers.ID) || s.HasChunk(victims[0].ID) || s.HasChunk(victims[1].ID) {
		t.Fatal("GC kept/removed the wrong chunks")
	}
}

// TestChunkMutationDoesNotCorruptStore is the regression test for the
// aliasing bug: PutChunk used to retain the caller's slice and Chunk used
// to return the stored slice uncopied, so mutating either buffer silently
// corrupted the store.
func TestChunkMutationDoesNotCorruptStore(t *testing.T) {
	s := NewStore()
	c := testChunk(4, 0, 64)
	orig := append([]byte(nil), c.Data...)
	if err := s.PutChunk(c); err != nil {
		t.Fatal(err)
	}
	// Mutating the ingested buffer after the put must not reach the store.
	c.Data[0] ^= 0xFF
	got, err := s.Chunk(c.ID)
	if err != nil {
		t.Fatalf("read after ingest-buffer mutation: %v", err)
	}
	if !bytes.Equal(got.Data, orig) {
		t.Fatal("store aliased the caller's put buffer")
	}
	// Mutating a returned chunk must not corrupt a later re-read.
	got.Data[1] ^= 0xFF
	again, err := s.Chunk(c.ID)
	if err != nil {
		t.Fatalf("re-read after returned-chunk mutation: %v", err)
	}
	if !bytes.Equal(again.Data, orig) {
		t.Fatal("store aliased the buffer it returned to a reader")
	}
}

// TestBlockIndexConsistencyAfterGC drives put/delete/GC and asserts that
// ChunksForBlock lists what is left, and that a block none of whose chunks
// is left holds no index entry.
func TestBlockIndexConsistencyAfterGC(t *testing.T) {
	s := NewStore()
	for block := byte(0); block < 4; block++ {
		for idx := 0; idx < 6; idx++ {
			if err := s.PutChunk(testChunk(block, idx, 16)); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.DeleteChunk(testChunk(1, 5, 16).ID)
	// GC away every odd index.
	s.GC(func(c Chunk) bool { return c.ID.Index%2 == 0 })
	for block := byte(0); block < 4; block++ {
		want := []int{0, 2, 4}
		got := s.ChunksForBlock(testChunk(block, 0, 16).ID.Block)
		if len(got) != len(want) {
			t.Fatalf("block %d: ChunksForBlock = %v, want %v", block, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("block %d: ChunksForBlock = %v, want %v", block, got, want)
			}
		}
	}
	// Dropping the rest must empty the index entirely.
	s.GC(func(Chunk) bool { return false })
	if len(s.blocks) != 0 {
		t.Fatalf("index still holds %d blocks after full GC", len(s.blocks))
	}
}

func TestCorruptionDetectedOnRead(t *testing.T) {
	s := NewStore()
	c := testChunk(3, 0, 50)
	if err := s.PutChunk(c); err != nil {
		t.Fatal(err)
	}
	if !s.Corrupt(c.ID) {
		t.Fatal("Corrupt reported missing chunk")
	}
	if _, err := s.Chunk(c.ID); err == nil {
		t.Fatal("corrupted chunk read back without error")
	}
	if s.Corrupt(ChunkID{Index: 99}) {
		t.Fatal("Corrupt on missing chunk reported true")
	}
}

// TestLendChunk: the lent value is what Chunk returns, without the copy,
// and with the proofs it was put with only when they are asked for; a chunk
// that is missing or fails its digest is not lent.
func TestLendChunk(t *testing.T) {
	s := NewStore()
	c, proofs := provenChunk(t, 96, 1, 12, 12)
	if err := s.PutChunk(c); err != nil {
		t.Fatal(err)
	}
	want, err := s.Chunk(c.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want.Proofs != nil || want.Parts != 8 || want.TxStart != 12 {
		t.Fatalf("Chunk read back %d proofs, parts %d, txStart %d", len(want.Proofs), want.Parts, want.TxStart)
	}
	lent := 0
	if err := s.LendChunk(c.ID, false, func(got Chunk) {
		lent++
		if !reflect.DeepEqual(got, want) {
			t.Errorf("lent %+v, Chunk returns %+v", got, want)
		}
	}); err != nil || lent != 1 {
		t.Fatalf("LendChunk: %v, fn called %d times", err, lent)
	}
	if err := s.LendChunk(c.ID, true, func(got Chunk) {
		lent++
		if !reflect.DeepEqual(got.Proofs, proofs) {
			t.Errorf("lent with proofs: %d proofs, not the %d put", len(got.Proofs), len(proofs))
		}
		got.Proofs = nil
		if !reflect.DeepEqual(got, want) {
			t.Errorf("lent with proofs %+v, Chunk returns %+v", got, want)
		}
	}); err != nil || lent != 2 {
		t.Fatalf("LendChunk with proofs: %v, fn called %d times in all", err, lent)
	}
	allocs := testing.AllocsPerRun(50, func() { _ = s.LendChunk(c.ID, false, func(Chunk) {}) })
	if allocs != 0 {
		t.Errorf("lending a chunk allocates %.0f times", allocs)
	}
	s.Corrupt(c.ID)
	called := func(Chunk) { t.Error("a chunk that is not there, or is damaged, was lent") }
	for _, withProofs := range []bool{false, true} {
		if err := s.LendChunk(c.ID, withProofs, called); !errors.Is(err, ErrCorrupted) {
			t.Errorf("damaged chunk, proofs %v: got %v, want %v", withProofs, err, ErrCorrupted)
		}
		if err := s.LendChunk(ChunkID{Index: 99}, withProofs, called); !errors.Is(err, ErrNotFound) {
			t.Errorf("missing chunk, proofs %v: got %v, want %v", withProofs, err, ErrNotFound)
		}
	}
}

// provenChunk returns chunk idx of a block of n transactions with 200-byte
// payloads, holding the count transactions from start, with their Merkle
// proofs under the block's root, and those proofs.
func provenChunk(t *testing.T, n, idx, start, count int) (Chunk, []chain.Proof) {
	t.Helper()
	return provenRun(t, testTxs(n, make([]byte, 200)), idx, start, count)
}

// testTxs returns n transactions carrying payload, each of a signed
// transaction's size but unsigned: the store reads their framing and hashes,
// nothing else.
func testTxs(n int, payload []byte) []*chain.Transaction {
	txs := make([]*chain.Transaction, n)
	for i := range txs {
		txs[i] = &chain.Transaction{
			Amount: uint64(1 + i), Nonce: uint64(i), Payload: payload,
			PublicKey: make([]byte, 32), Signature: make([]byte, 64),
		}
	}
	return txs
}

// provenRun returns chunk idx of the block of txs, holding the count
// transactions from start, with their Merkle proofs under the block's root,
// and those proofs.
func provenRun(tb testing.TB, txs []*chain.Transaction, idx, start, count int) (Chunk, []chain.Proof) {
	tb.Helper()
	tree, err := chain.TxMerkleTree(txs)
	if err != nil {
		tb.Fatal(err)
	}
	proofs := make([]chain.Proof, count)
	for i := range proofs {
		if proofs[i], err = tree.Prove(start + i); err != nil {
			tb.Fatal(err)
		}
	}
	block := chain.Block{Txs: txs[start : start+count]}
	c := NewChunk(ChunkID{Block: tree.Root(), Index: idx}, block.EncodeBody())
	c.Parts, c.TxStart, c.Proofs = len(txs)/count, start, proofs
	return c, proofs
}

// TestPutChunkRefusesProofsOfAnotherRun: proofs are kept as the Merkle edge
// of the run from TxStart, so proofs that are not that run — shifted from
// TxStart, or two of them traded under their labels — are refused, and
// nothing is stored.
func TestPutChunkRefusesProofsOfAnotherRun(t *testing.T) {
	s := NewStore()
	shifted, _ := provenChunk(t, 96, 1, 12, 12)
	shifted.TxStart++
	swapped, _ := provenChunk(t, 96, 2, 24, 12)
	swapped.Proofs[0].Steps, swapped.Proofs[1].Steps = swapped.Proofs[1].Steps, swapped.Proofs[0].Steps
	for _, c := range []Chunk{shifted, swapped} {
		if err := s.PutChunk(c); err == nil {
			t.Errorf("chunk %d stored with proofs of another run", c.ID.Index)
		}
	}
	if st := s.Stats(); st != (Stats{}) || s.HasChunk(shifted.ID) || s.HasChunk(swapped.ID) {
		t.Fatalf("a refused put left %+v behind", st)
	}
}

// TestSidecarBytesPerChunk guards what an owner keeps to serve proofs: a
// chunk of 12 transactions cut from a block of 96 keeps at most two hashes
// per level of the block's 7-level tree, not the 12 proofs of 7 steps it
// was put with.
func TestSidecarBytesPerChunk(t *testing.T) {
	const n, count, depth = 96, 12, 7
	s := NewStore()
	put := 0
	for idx := 0; idx < n/count; idx++ {
		c, proofs := provenChunk(t, n, idx, idx*count, count)
		before := s.Stats().SidecarBytes
		if err := s.PutChunk(c); err != nil {
			t.Fatal(err)
		}
		kept := s.Stats().SidecarBytes - before
		if kept > 2*depth*blockcrypto.HashSize {
			t.Errorf("chunk %d keeps %d sidecar bytes, more than %d", idx, kept, 2*depth*blockcrypto.HashSize)
		}
		for _, p := range proofs {
			put += p.EncodedSize()
		}
	}
	st := s.Stats()
	if st.TotalBytes() != st.HeaderBytes+st.ChunkBytes {
		t.Fatalf("TotalBytes %d counts the sidecar", st.TotalBytes())
	}
	t.Logf("%d chunks keep %d sidecar bytes, %d per chunk, against %d per chunk of encoded proofs",
		st.ChunkCount, st.SidecarBytes, st.SidecarBytes/st.ChunkCount, int64(put)/st.ChunkCount)
}

func TestChunkIDString(t *testing.T) {
	id := ChunkID{Block: blockcrypto.Sum256([]byte("b")), Index: 7}
	if got := id.String(); got == "" {
		t.Fatal("empty ChunkID string")
	}
}

// TestSidecarLivesAndDiesWithTheChunk: the position, part count and proofs
// put with a chunk come back with it (the proofs only when asked for),
// leave with it on DeleteChunk and GC (keep sees the rest), and never count
// as stored bytes.
func TestSidecarLivesAndDiesWithTheChunk(t *testing.T) {
	s := NewStore()
	live, proofs := provenChunk(t, 12, 2, 8, 2)
	live.Parts = 4
	share := testChunk(1, 3, 24)
	share.Parts, share.CodedK = 4, 3
	bare := testChunk(2, 0, 16)
	for _, c := range []Chunk{live, share, bare} {
		if err := s.PutChunk(c); err != nil {
			t.Fatal(err)
		}
	}
	dataBytes := int64(len(live.Data) + 24 + 16)
	if st := s.Stats(); st.ChunkBytes != dataBytes || st.ChunkCount != 3 || st.SidecarBytes == 0 {
		t.Fatalf("stats %+v: ChunkBytes must count Data only, SidecarBytes the live chunk's edge", st)
	}
	got, err := s.Chunk(live.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Parts != 4 || got.TxStart != 8 || got.CodedK != 0 || got.Proofs != nil {
		t.Fatalf("sidecar read back as %+v", got)
	}
	if err := s.LendChunk(live.ID, true, func(c Chunk) {
		if !reflect.DeepEqual(c.Proofs, proofs) || c.Proofs[1].LeafIndex != 9 {
			t.Errorf("proofs read back as %+v", c.Proofs)
		}
	}); err != nil {
		t.Fatal(err)
	}

	var seen []Chunk
	freed := s.GC(func(c Chunk) bool {
		seen = append(seen, c)
		return c.CodedK > 0
	})
	if freed != int64(len(live.Data)+16) || len(seen) != 3 {
		t.Fatalf("GC freed %d bytes after showing keep %d chunks", freed, len(seen))
	}
	for _, c := range seen {
		if c.ID == live.ID && (c.Parts != 4 || c.TxStart != 8 || c.Proofs != nil) {
			t.Fatalf("keep saw the live chunk as %+v", c)
		}
	}
	if _, err := s.Chunk(live.ID); err == nil {
		t.Fatal("collected chunk still readable")
	}
	if st := s.Stats(); st.SidecarBytes != 0 {
		t.Fatalf("collected chunk's edge still counted: %+v", st)
	}
	// Re-putting the ID with another sidecar stores the new one: nothing of
	// the collected chunk was left behind.
	live.Parts, live.Proofs = 6, nil
	if err := s.PutChunk(live); err != nil {
		t.Fatal(err)
	}
	if err := s.LendChunk(live.ID, true, func(c Chunk) {
		if c.Parts != 6 || c.Proofs != nil {
			t.Errorf("re-put chunk read back with a stale sidecar: %+v", c)
		}
	}); err != nil {
		t.Fatal(err)
	}
	s.DeleteChunk(share.ID)
	if st := s.Stats(); st.ChunkBytes != int64(len(live.Data)) || st.ChunkCount != 1 || st.SidecarBytes != 0 {
		t.Fatalf("stats after delete %+v", st)
	}
}

// TestLentDataEndsAtThePayload: a stored chunk's Merkle edge lies right
// behind its payload, so the Data a reader is lent — by LendChunk or GC's
// keep — is capped at the payload. A reader appending to it gets a buffer of
// its own, and the proofs rebuilt from the edge stay the ones put.
func TestLentDataEndsAtThePayload(t *testing.T) {
	s := NewStore()
	c, proofs := provenChunk(t, 96, 1, 12, 12)
	if err := s.PutChunk(c); err != nil {
		t.Fatal(err)
	}
	appendTo := func(got Chunk) {
		if cap(got.Data) != len(got.Data) {
			t.Errorf("lent %d bytes of payload with room for %d", len(got.Data), cap(got.Data))
		}
		_ = append(got.Data, make([]byte, blockcrypto.HashSize)...)
	}
	if err := s.LendChunk(c.ID, false, appendTo); err != nil {
		t.Fatal(err)
	}
	s.GC(func(got Chunk) bool {
		appendTo(got)
		return true
	})
	if err := s.LendChunk(c.ID, true, func(got Chunk) {
		if !reflect.DeepEqual(got.Proofs, proofs) {
			t.Error("the proofs rebuilt after a reader's append are not the ones put")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestStoredChunkHeapCost guards what holding a chunk costs the heap beside
// the bytes it holds: a chunk of the benchmark's shape — 12 of a block's 96
// transactions with 40-byte payloads, one of 8 parts, put with proofs —
// costs at most 1.15 times its payload plus its Merkle edge. The store holds
// two chunks of each block, as a member of an 8-member cluster does at
// replication 2.
func TestStoredChunkHeapCost(t *testing.T) {
	const blocks, n, parts, limit = 256, 96, 8, 1.15
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := NewStore()
	for b := 0; b < blocks; b++ {
		txs := testTxs(n, make([]byte, 40))
		for i := range txs {
			txs[i].Nonce += uint64(b * n) // every block its own transactions
		}
		for _, idx := range []int{b % parts, (b + 3) % parts} {
			c, _ := provenRun(t, txs, idx, idx*n/parts, n/parts)
			if err := s.PutChunk(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	st := s.Stats()
	held := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	ratio := held / float64(st.ChunkBytes+st.SidecarBytes)
	t.Logf("%d chunks: %d payload and %d edge bytes a chunk, %.0f heap bytes a chunk (%.3f×)",
		st.ChunkCount, st.ChunkBytes/st.ChunkCount, st.SidecarBytes/st.ChunkCount, held/float64(st.ChunkCount), ratio)
	if ratio > limit {
		t.Errorf("a stored chunk costs %.3f× its payload and edge, more than %.2f×", ratio, limit)
	}
	runtime.KeepAlive(s)
}
