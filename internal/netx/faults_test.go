package netx

import (
	"bytes"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"icistrategy/internal/chain"
	"icistrategy/internal/core"
	"icistrategy/internal/storage"
)

func TestFaultRejectedWithoutChaos(t *testing.T) {
	_, addrs := startServers(t, 1)
	c, err := Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.InjectFault(FaultReq{CorruptStored: true}); err == nil {
		t.Fatal("FaultReq accepted by a server without chaos enabled")
	} else if !strings.Contains(err.Error(), "chaos not enabled") {
		t.Fatalf("wrong rejection: %v", err)
	}
}

func TestCorruptStoredMakesByzantineMember(t *testing.T) {
	// 3 members, r=2: corrupt every shard on member 1. Its verify-on-read
	// path must withhold the damaged chunks, and cluster reads must
	// degrade to the surviving replicas.
	servers, addrs := startServers(t, 3)
	cl, err := NewCluster(addrs, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	blocks := distributeBlocks(t, cl, 2, 18)

	servers[1].EnableChaos()
	var mu sync.Mutex
	var events []string
	servers[1].SetLogf(func(event string, kv ...any) {
		mu.Lock()
		events = append(events, event)
		mu.Unlock()
	})
	c, err := Dial(addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.InjectFault(FaultReq{CorruptStored: true})
	if err != nil {
		t.Fatal(err)
	}
	if int64(resp.Corrupted) != servers[1].Stats().ChunkCount {
		t.Fatalf("corrupted %d of %d stored chunks", resp.Corrupted, servers[1].Stats().ChunkCount)
	}
	mu.Lock()
	sawEvent := false
	for _, e := range events {
		if e == "fault.corrupt-stored" {
			sawEvent = true
		}
	}
	mu.Unlock()
	if !sawEvent {
		t.Fatal("no fault.corrupt-stored event logged")
	}
	// Degraded, verified reads still succeed via the honest replicas.
	for _, b := range blocks {
		got, err := cl.RetrieveBlock(b.Header)
		if err != nil {
			t.Fatalf("read with byzantine member: %v", err)
		}
		if len(got.Txs) != len(b.Txs) {
			t.Fatalf("block %d reassembled with %d txs, want %d", b.Header.Height, len(got.Txs), len(b.Txs))
		}
	}
}

func TestDropFaultSeversRequests(t *testing.T) {
	server, addrs := startServers(t, 1)
	server[0].EnableChaos()
	c, err := Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.InjectFault(FaultReq{Set: &FaultConfig{DropRate: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stats(); err == nil {
		t.Fatal("request survived DropRate 1")
	}
	// Clearing the config (via a fresh connection) restores service.
	c2, err := Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.InjectFault(FaultReq{Set: &FaultConfig{}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Stats(); err != nil {
		t.Fatalf("request failed after faults cleared: %v", err)
	}
}

func TestDelayFaultAddsLatency(t *testing.T) {
	server, addrs := startServers(t, 1)
	server[0].EnableChaos()
	c, err := Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const delay = 30 * time.Millisecond
	if _, err := c.InjectFault(FaultReq{Set: &FaultConfig{Delay: delay}}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < delay {
		t.Fatalf("delayed request took %v, want >= %v", took, delay)
	}
}

// TestRetrieveSurvivesOneCorruptingMember: 3 members, r=2, and member 0
// flips every chunk it serves. Every chunk has a sound replica on another
// member, so the read must ask there for the copies that do not prove
// instead of failing the whole block on them.
func TestRetrieveSurvivesOneCorruptingMember(t *testing.T) {
	servers, addrs := startServers(t, 3)
	servers[0].EnableChaos()
	cl, err := NewCluster(addrs, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	blocks := distributeBlocks(t, cl, 3, 18)
	c, err := Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.InjectFault(FaultReq{Set: &FaultConfig{CorruptRate: 1, Seed: 7}}); err != nil {
		t.Fatal(err)
	}
	served := 0
	for _, b := range blocks {
		resp, err := c.GetBlockChunks(b.Hash())
		if err != nil {
			t.Fatal(err)
		}
		served += len(resp.Chunks)
		got, err := cl.RetrieveBlock(b.Header)
		if err != nil {
			t.Fatalf("block %d: one corrupting member failed a read every chunk of which has an honest replica: %v", b.Header.Height, err)
		}
		if got.Hash() != b.Hash() || len(got.Txs) != len(b.Txs) {
			t.Fatalf("block %d reassembled wrong", b.Header.Height)
		}
	}
	if served == 0 {
		t.Fatal("the corrupting member holds no chunk: nothing was tested")
	}
}

// TestRetrieveSurvivesOneShorteningMember: member 0 holds every chunk
// without its last transaction, with the proofs to match. Each such copy
// proves as far as it goes, so a check of proofs alone takes it and the
// block breaks its root with no copy to blame; checked against the range the
// split puts there (core.Group.ProvesChunk) it is unsound, and the whole copy
// on another member is asked for.
func TestRetrieveSurvivesOneShorteningMember(t *testing.T) {
	servers, addrs := startServers(t, 3)
	cl, err := NewCluster(addrs, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	blocks := distributeBlocks(t, cl, 3, 18)
	shortened := shortenStored(t, servers[0], blocks)
	if shortened == 0 {
		t.Fatal("the shortening member holds no chunk: nothing was tested")
	}
	for _, b := range blocks {
		got, err := cl.RetrieveBlock(b.Header)
		if err != nil {
			t.Fatalf("block %d: one shortening member failed a read every chunk of which has a whole replica: %v", b.Header.Height, err)
		}
		if got.Hash() != b.Hash() || len(got.Txs) != len(b.Txs) {
			t.Fatalf("block %d reassembled wrong", b.Header.Height)
		}
	}
}

// TestRetrieveSurvivesOneSwappingMember: member 0 serves every chunk with
// its first two transactions swapped, and when proofs are asked for, their
// proofs swapped with them under the labels of the places they now stand.
// Each proof still leads from its transaction to the root, so only the rule
// that a proof's steps spell its leaf index (chain.VerifyProof) tells the
// copy apart: without it the copy proves, and the block breaks its root
// with no copy to blame. With it the whole copy on another member is asked
// for.
func TestRetrieveSurvivesOneSwappingMember(t *testing.T) {
	_, addrs := startServers(t, 3)
	cl, err := NewCluster(addrs, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	blocks := distributeBlocks(t, cl, 3, 18)
	proxy, swaps := swappingProxy(t, addrs[0])
	swapping, err := NewCluster(append([]string{proxy}, addrs[1:]...), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer swapping.Close()
	for _, b := range blocks {
		got, err := swapping.RetrieveBlock(b.Header)
		if err != nil {
			t.Fatalf("block %d: one swapping member failed a read every chunk of which has a whole replica: %v", b.Header.Height, err)
		}
		if got.Hash() != b.Hash() || len(got.Txs) != len(b.Txs) {
			t.Fatalf("block %d reassembled wrong", b.Header.Height)
		}
	}
	if swaps.Load() == 0 {
		t.Fatal("the swapping member served no proven chunk: nothing was tested")
	}
}

// swappingProxy relays TCP to backend and rewrites every chunk in its
// responses with the first two transactions swapped, and their proofs, when
// served, swapped with them under the kept labels. It returns its address
// and a count of the proven chunks it swapped.
func swappingProxy(t *testing.T, backend string) (string, *atomic.Int64) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	swaps := new(atomic.Int64)
	relay := func(client net.Conn) {
		defer client.Close()
		up, err := net.Dial("tcp", backend)
		if err != nil {
			return
		}
		defer up.Close()
		go func() { // requests: relay raw, until the client hangs up
			_, _ = io.Copy(up, client)
			_ = up.Close()
		}()
		for {
			var resp Response
			id, _, err := ReadFrame(up, &resp)
			if err != nil {
				return
			}
			var chunks []*ChunkResp
			if resp.Chunk != nil {
				chunks = append(chunks, resp.Chunk)
			}
			if b := resp.ChunkBatch; b != nil {
				for i := range b.Chunks {
					chunks = append(chunks, &b.Chunks[i])
				}
			}
			if b := resp.BlockChunks; b != nil {
				for i := range b.Chunks {
					chunks = append(chunks, &b.Chunks[i])
				}
			}
			for _, c := range chunks {
				g, err := core.DecodeGroup(c.Index, c.Parts, c.TxStart, c.Data, c.Proofs)
				if err != nil || len(g.Txs) < 2 {
					continue
				}
				g.Txs[0], g.Txs[1] = g.Txs[1], g.Txs[0]
				if len(g.Proofs) == len(g.Txs) {
					g.Proofs[0].Steps, g.Proofs[1].Steps = g.Proofs[1].Steps, g.Proofs[0].Steps
					swaps.Add(1)
				}
				c.Data = g.Encode()
			}
			if _, err := WriteFrame(client, id, &resp); err != nil {
				return
			}
		}
	}
	go func() {
		for {
			client, err := l.Accept()
			if err != nil {
				return
			}
			go relay(client)
		}
	}()
	return l.Addr().String(), swaps
}

// shortenStored rewrites every chunk s stores of the blocks without its last
// transaction and that transaction's proof, and returns how many it rewrote.
func shortenStored(t *testing.T, s *Server, blocks []*chain.Block) (shortened int) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, b := range blocks {
		for _, idx := range s.store.ChunksForBlock(b.Hash()) {
			id := storage.ChunkID{Block: b.Hash(), Index: idx}
			chk := storedChunk(t, s.store, id)
			g, err := core.DecodeGroup(idx, chk.Parts, chk.TxStart, chk.Data, chk.Proofs)
			if err != nil {
				t.Fatal(err)
			}
			g.Txs, g.Proofs = g.Txs[:len(g.Txs)-1], g.Proofs[:len(g.Proofs)-1]
			s.store.DeleteChunk(id)
			if err := s.store.PutChunk(g.Chunk(b.Hash(), g.Encode())); err != nil {
				t.Fatal(err)
			}
			shortened++
		}
	}
	return shortened
}

func TestCorruptRateDamagesServedChunks(t *testing.T) {
	// One member, r=1: with CorruptRate 1 every served chunk payload is
	// flipped in flight, so reassembly cannot produce a verified block.
	servers, addrs := startServers(t, 1)
	servers[0].EnableChaos()
	cl, err := NewCluster(addrs, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	blocks := distributeBlocks(t, cl, 1, 12)
	c, err := Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.InjectFault(FaultReq{Set: &FaultConfig{CorruptRate: 1, Seed: 7}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RetrieveBlock(blocks[0].Header); err == nil {
		t.Fatal("retrieve returned a verified block despite corrupt-in-flight shards")
	}
	// The byte is flipped in the response frame, which is the only copy the
	// server makes of a stored chunk: the stored one must not have changed.
	damaged, err := c.GetChunk(blocks[0].Hash(), 0)
	if err != nil {
		t.Fatal(err)
	}
	servers[0].mu.Lock()
	stored, err := servers[0].store.Chunk(storage.ChunkID{Block: blocks[0].Hash(), Index: 0})
	servers[0].mu.Unlock()
	if err != nil {
		t.Fatalf("the stored chunk after it was served corrupted: %v", err)
	}
	if last := len(stored.Data) - 1; !bytes.Equal(damaged.Data[:last], stored.Data[:last]) || damaged.Data[last] != stored.Data[last]^0xFF {
		t.Fatal("corrupt-wire did not serve the stored payload with its last byte flipped")
	}
	// Clearing the fault heals reads: the same chunk read again is the
	// original bytes, over the single-chunk op and in a batch.
	if _, err := c.InjectFault(FaultReq{Set: &FaultConfig{}}); err != nil {
		t.Fatal(err)
	}
	again, err := c.GetChunk(blocks[0].Hash(), 0)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := c.GetChunkBatch([]ChunkRef{{Block: blocks[0].Hash(), Index: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Data, stored.Data) || !batch.Found[0] || !bytes.Equal(batch.Chunks[0].Data, stored.Data) {
		t.Fatal("a chunk served corrupted once is not served whole with the fault cleared")
	}
	if _, err := cl.RetrieveBlock(blocks[0].Header); err != nil {
		t.Fatalf("retrieve after clearing faults: %v", err)
	}
}
