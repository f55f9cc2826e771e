package netx

import (
	"sync"
	"testing"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
)

// fullyReplicate stores every chunk of every block on every server (r = n),
// so any single server can answer any batch or proof query deterministically.
func fullyReplicate(t *testing.T, addrs []string, blocks []*chain.Block) *Cluster {
	t.Helper()
	cl, err := NewCluster(addrs, len(addrs))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	for _, b := range blocks {
		if err := cl.DistributeBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	return cl
}

func TestGetChunkBatchPositionForPosition(t *testing.T) {
	_, addrs := startServers(t, 3)
	blocks := testBlocks(t, 2, 24)
	fullyReplicate(t, addrs, blocks)

	c, err := Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Mix chunks from two blocks, a repeated ref, and a miss in the middle.
	refs := []ChunkRef{
		{Block: blocks[0].Hash(), Index: 0},
		{Block: blocks[1].Hash(), Index: 2},
		{Block: blockcrypto.Hash{0xde, 0xad}, Index: 0}, // unknown block
		{Block: blocks[0].Hash(), Index: 0},             // duplicate of refs[0]
		{Block: blocks[0].Hash(), Index: 999},           // unknown index
	}
	resp, err := c.GetChunkBatch(refs)
	if err != nil {
		t.Fatal(err)
	}
	wantFound := []bool{true, true, false, true, false}
	for i, want := range wantFound {
		if resp.Found[i] != want {
			t.Fatalf("Found[%d] = %v, want %v", i, resp.Found[i], want)
		}
	}
	if resp.Chunks[0].Index != 0 || len(resp.Chunks[0].Data) == 0 {
		t.Fatalf("Chunks[0] = %+v", resp.Chunks[0])
	}
	if resp.Chunks[1].Index != 2 {
		t.Fatalf("Chunks[1].Index = %d, want 2", resp.Chunks[1].Index)
	}
	if len(resp.Chunks[2].Data) != 0 {
		t.Fatal("missing ref carried data")
	}
	// The duplicate answers identically to the original.
	if string(resp.Chunks[3].Data) != string(resp.Chunks[0].Data) {
		t.Fatal("duplicate ref answered differently")
	}

	// Single-ref batch matches GetChunk for the same chunk.
	single, err := c.GetChunk(blocks[0].Hash(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(single.Data) != string(resp.Chunks[0].Data) {
		t.Fatal("batch chunk differs from GetChunk")
	}
}

func TestGetChunkBatchRejectsEmptyAndOversized(t *testing.T) {
	_, addrs := startServers(t, 1)
	c, err := Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.GetChunkBatch(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	huge := make([]ChunkRef, maxBatchRefs+1)
	if _, err := c.GetChunkBatch(huge); err == nil {
		t.Fatal("oversized batch accepted")
	}
}

func TestGetTxProofFoundAndVerifiable(t *testing.T) {
	_, addrs := startServers(t, 3)
	blocks := testBlocks(t, 1, 17)
	fullyReplicate(t, addrs, blocks)
	b := blocks[0]

	c, err := Dial(addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A transaction from the middle of the block, so it sits inside a chunk
	// rather than at a boundary.
	tx := b.Txs[len(b.Txs)/2]
	resp, err := c.GetTxProof(b.Hash(), tx.ID())
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Found || resp.Tx == nil {
		t.Fatalf("tx not found: %+v", resp)
	}
	if resp.Tx.ID() != tx.ID() {
		t.Fatal("returned a different transaction")
	}
	if err := chain.VerifyProof(b.Header.MerkleRoot, resp.Tx.ID(), resp.Proof); err != nil {
		t.Fatalf("proof does not verify: %v", err)
	}
}

// TestConcurrentTxProofsWhileWriting: a proof query reads the server's
// stored chunks in place, under its lock, while other connections put chunks
// into the same store. Readers on four connections ask for every
// transaction of a stored block while a writer distributes more blocks; each
// proof must verify. Run under -race (make race).
func TestConcurrentTxProofsWhileWriting(t *testing.T) {
	_, addrs := startServers(t, 3)
	blocks := testBlocks(t, 4, 24)
	cl := fullyReplicate(t, addrs, blocks[:1])
	b := blocks[0]
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, later := range blocks[1:] {
			if err := cl.DistributeBlock(later); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addrs[0])
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for _, tx := range b.Txs {
				resp, err := c.GetTxProof(b.Hash(), tx.ID())
				if err != nil || !resp.Found || resp.Tx.ID() != tx.ID() || chain.VerifyProof(b.Header.MerkleRoot, tx.ID(), resp.Proof) != nil {
					t.Errorf("proof of a stored transaction: %+v, %v", resp, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestGetTxProofNotFound(t *testing.T) {
	_, addrs := startServers(t, 2)
	blocks := testBlocks(t, 1, 8)
	fullyReplicate(t, addrs, blocks)

	c, err := Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Known block, unknown transaction.
	resp, err := c.GetTxProof(blocks[0].Hash(), blockcrypto.Hash{0xff})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Found {
		t.Fatal("found a transaction that does not exist")
	}

	// Unknown block: also a clean not-found, not a protocol error.
	resp, err = c.GetTxProof(blockcrypto.Hash{0xab}, blockcrypto.Hash{0xff})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Found {
		t.Fatal("found a transaction in a block nobody stored")
	}
}

func TestBatchRespShapeValidated(t *testing.T) {
	// The response is position-for-position with the request; the client
	// validates the shape so a buggy server cannot cause out-of-range reads.
	_, addrs := startServers(t, 1)
	blocks := testBlocks(t, 1, 6)
	fullyReplicate(t, addrs[:1], blocks)
	c, err := Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.GetChunkBatch([]ChunkRef{{Block: blocks[0].Hash(), Index: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Found) != 1 || len(resp.Chunks) != 1 {
		t.Fatalf("response shape %d/%d, want 1/1", len(resp.Found), len(resp.Chunks))
	}
}
