package netx

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"icistrategy/internal/chain"
	"icistrategy/internal/core"
	"icistrategy/internal/simnet"
	"icistrategy/internal/trace"
)

// sweepRetrieve is the read Cluster.RetrieveBlock made before it was put on
// Gather, kept as the reference the differential test compares against:
// every member in address order is asked for all it holds of the block
// (GetBlockChunks) until one sound copy of every chunk is in.
func sweepRetrieve(cl *Cluster, hdr chain.Header) (*chain.Block, error) {
	block := hdr.Hash()
	found := make(map[int]core.Group)
	parts := 0
	for _, addr := range cl.Map().Current().Addrs {
		c, err := cl.client(addr, 0)
		if err != nil {
			continue // dead server: degraded read
		}
		resp, err := c.GetBlockChunks(block)
		if err != nil {
			cl.drop(addr, c)
			continue
		}
		if resp.Parts > 0 {
			parts = resp.Parts
		}
		for i := range resp.Chunks {
			chk := &resp.Chunks[i]
			if _, ok := found[chk.Index]; ok {
				continue
			}
			g, err := core.DecodeGroup(chk.Index, chk.Parts, chk.TxStart, chk.Data, chk.Proofs)
			if err != nil || g.ProvesChunk(hdr, chk.Parts, chk.Index) != nil {
				continue
			}
			found[chk.Index] = g
		}
		if parts > 0 && len(found) == parts {
			break
		}
	}
	if parts == 0 || len(found) < parts {
		return nil, fmt.Errorf("%w: have %d of %d", ErrIncompleteBlock, len(found), parts)
	}
	// The decoded groups joined by concatenation and checked whole, not
	// through core.ReassembleEncoding: the differential compares two
	// implementations of reassembly.
	b := &chain.Block{Header: hdr}
	for i := 0; i < parts; i++ {
		b.Txs = append(b.Txs, found[i].Txs...)
	}
	return b, b.VerifyShape()
}

// TestRetrieveAgreesWithTheSweep: on seeded 8-member clusters with one
// faulty member, the planned read returns what the sweep returns — the same
// block, or both fail. At r = 2 every chunk has a sound copy elsewhere and
// both must succeed; at r = 1 the blocks with a chunk on the faulty member
// are lost to both.
func TestRetrieveAgreesWithTheSweep(t *testing.T) {
	const members, blocks = 8, 4
	faults := []struct {
		name   string
		inject func(t *testing.T, s *Server, addr string, written []*chain.Block)
	}{
		{"dead", func(t *testing.T, s *Server, _ string, _ []*chain.Block) {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}},
		{"delayed", func(t *testing.T, _ *Server, addr string, _ []*chain.Block) {
			injectFault(t, addr, FaultConfig{Delay: 20 * time.Millisecond})
		}},
		{"corrupt-wire", func(t *testing.T, _ *Server, addr string, _ []*chain.Block) {
			injectFault(t, addr, FaultConfig{CorruptRate: 1, Seed: 7})
		}},
		{"shortening", func(t *testing.T, s *Server, _ string, written []*chain.Block) {
			if shortenStored(t, s, written) == 0 {
				t.Fatal("the shortening member holds no chunk: nothing was tested")
			}
		}},
	}
	for fi, fault := range faults {
		for _, r := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/r=%d", fault.name, r), func(t *testing.T) {
				seed := uint64(100*fi + r)
				servers, addrs := startServers(t, members)
				faulty := int(seed % members)
				servers[faulty].EnableChaos()
				cl, err := NewCluster(addrs, r)
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				written := seededBlocks(t, seed, blocks, 24)
				for _, b := range written {
					if err := cl.DistributeBlock(b); err != nil {
						t.Fatal(err)
					}
				}
				fault.inject(t, servers[faulty], addrs[faulty], written)
				failed := 0
				for _, b := range written {
					want, sweepErr := sweepRetrieve(cl, b.Header)
					got, err := cl.RetrieveBlock(b.Header)
					if (err == nil) != (sweepErr == nil) {
						t.Fatalf("block %d: planned read: %v; sweep: %v", b.Header.Height, err, sweepErr)
					}
					if err != nil {
						failed++
						continue
					}
					if got.Hash() != want.Hash() || got.Hash() != b.Hash() || got.VerifyShape() != nil {
						t.Fatalf("block %d: the planned read and the sweep return different blocks", b.Header.Height)
					}
				}
				// A slow member loses nothing; any other fault at r = 1 loses
				// the blocks it held a chunk of, and none at r = 2.
				if lossy := r == 1 && fault.name != "delayed"; lossy != (failed > 0) {
					t.Fatalf("%d of %d reads failed on both paths", failed, blocks)
				}
			})
		}
	}
}

// injectFault installs cfg on the chaos-armed server at addr.
func injectFault(t *testing.T, addr string, cfg FaultConfig) {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.InjectFault(FaultReq{Set: &cfg}); err != nil {
		t.Fatal(err)
	}
}

// spansByName counts the recorded events of each name.
func spansByName(ring *trace.Ring) map[string]int {
	byName := make(map[string]int)
	for _, e := range ring.Events() {
		byName[e.Name]++
	}
	return byName
}

// spanBytes sums the wire bytes, both ways, of the recorded events of a name.
func spanBytes(ring *trace.Ring, name string) (n int64) {
	for _, e := range ring.Events() {
		if e.Name == name {
			n += e.Bytes
		}
	}
	return n
}

// proofBytes is what the proofs of every chunk of the blocks, cut parts ways,
// add to the chunks' frames: each list's encoding less the one byte an empty
// list takes.
func proofBytes(t *testing.T, blocks []*chain.Block, parts int) (n int64) {
	t.Helper()
	for _, b := range blocks {
		groups, err := core.SplitBlock(b, parts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range groups {
			n += int64(len(chain.AppendProofs(nil, groups[i].Proofs))) - 1
		}
	}
	return n
}

// TestRetrieveBudget is the read's cost on the benchmark's shape (8 members,
// r = 2, 8 chunks), counted from the tracer's spans over 64 seeded blocks of
// 32 transactions (five proof steps each; the benchmark's 96 have seven):
// no sweep of whole members, the planner's mean of at most 3.7 batches a
// block (the sweep visited 5.65 members and pulled 11.8 chunk copies), and —
// a sound read asks for no proofs — at most 0.6 of the bytes the same
// batches move with every chunk's proofs in them.
func TestRetrieveBudget(t *testing.T) {
	const members, blocks = 8, 64
	_, addrs := startServers(t, members)
	cl, err := NewCluster(addrs, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	written := seededBlocks(t, 23, blocks, 32)
	for _, b := range written {
		if err := cl.DistributeBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	ring := trace.NewRing(4096)
	cl.SetTracer(trace.New(ring))
	for _, b := range written {
		if got, err := cl.RetrieveBlock(b.Header); err != nil || got.Hash() != b.Hash() {
			t.Fatalf("block %d: %v", b.Header.Height, err)
		}
	}
	spans := spansByName(ring)
	if spans["retrieve-block"] != blocks {
		t.Fatalf("%d retrieve-block spans for %d reads: %v", spans["retrieve-block"], blocks, spans)
	}
	if n := spans["get-block-chunks"]; n != 0 {
		t.Errorf("%d get-block-chunks round trips: the read swept a member", n)
	}
	mean := float64(spans["get-chunk-batch"]) / blocks
	t.Logf("%.2f get-chunk-batch round trips a block", mean)
	if mean > 3.7 {
		t.Errorf("a read costs %.2f get-chunk-batch round trips in the mean, want at most 3.7", mean)
	}
	moved := spanBytes(ring, "get-chunk-batch")
	proven := moved + proofBytes(t, written, members)
	t.Logf("%d bytes a block in get-chunk-batch round trips, %d with proofs", moved/blocks, proven/blocks)
	if float64(moved) > 0.6*float64(proven) {
		t.Errorf("the reads moved %d bytes, want at most 0.6 of the %d the same batches move with proofs", moved, proven)
	}
}

// TestSoundReadCarriesNoProofs: a server answers a ref with the chunk's
// proofs only where the ref asks for them, bare and proven refs in one
// batch; and a sound RetrieveBlock asks for none — what its round trips
// move, counted by the servers, is less than the proofs alone would be on
// top of the chunks.
func TestSoundReadCarriesNoProofs(t *testing.T) {
	const members = 4
	ring := trace.NewRing(1024)
	servers, addrs := startServers(t, members)
	for _, s := range servers {
		s.SetTracer(trace.New(ring))
	}
	cl, err := NewCluster(addrs, members) // every member holds every chunk
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	written := seededBlocks(t, 29, 2, 32)
	var body int64
	for _, b := range written {
		if err := cl.DistributeBlock(b); err != nil {
			t.Fatal(err)
		}
		body += int64(b.BodySize())
	}
	for _, b := range written {
		if got, err := cl.RetrieveBlock(b.Header); err != nil || got.Hash() != b.Hash() {
			t.Fatalf("block %d: %v", b.Header.Height, err)
		}
	}

	// The batch below is not a read to count: a connection traces with the
	// tracer its server had when it was accepted.
	servers[1].SetTracer(nil)
	c, err := Dial(addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	b := written[0]
	groups, err := core.SplitBlock(b, members)
	if err != nil {
		t.Fatal(err)
	}
	refs := []ChunkRef{{Block: b.Hash(), Index: 2}, {Block: b.Hash(), Index: 0, Proofs: true}, {Block: b.Hash(), Index: 2, Proofs: true}, {Block: b.Hash(), Index: 3}}
	resp, err := c.GetChunkBatch(refs)
	if err != nil {
		t.Fatal(err)
	}
	for i, ref := range refs {
		got, g := resp.Chunks[i], &groups[ref.Index]
		if !resp.Found[i] || got.Index != ref.Index || got.Parts != members || got.TxStart != g.TxStart || !bytes.Equal(got.Data, g.Encode()) {
			t.Fatalf("ref %d: chunk %d answered wrong", i, ref.Index)
		}
		if ref.Proofs && !sameProofs(got.Proofs, g.Proofs) || !ref.Proofs && got.Proofs != nil {
			t.Fatalf("ref %d (proofs=%v): answered with %d proofs, the chunk has %d", i, ref.Proofs, len(got.Proofs), len(g.Proofs))
		}
	}

	// A serve point is recorded after the reply has left; closing a server
	// joins its connections' goroutines.
	cl.Close()
	for _, s := range servers {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	moved, proofs := spanBytes(ring, "serve:get-chunk-batch"), proofBytes(t, written, members)
	t.Logf("%d bytes of bodies read in %d bytes of round trips; their proofs are %d more", body, moved, proofs)
	if moved < body || moved >= body+proofs/2 {
		t.Fatalf("sound reads of %d bytes of bodies moved %d bytes: with proofs it would be %d more", body, moved, proofs)
	}
}

// TestRetrieveAsksAMemberTheMapAdded: a cluster client over three servers
// publishes a four-member epoch, and blocks are then written through the
// four at r = 1, so most have a chunk only the fourth member holds. The
// client was built over three addresses but the map it holds lists the
// fourth: it must read every block, with no further poll of the map. A
// second client over the same three servers, built before the publish,
// resolves the first such block under its stale map, fails, polls once, and
// reads them all.
func TestRetrieveAsksAMemberTheMapAdded(t *testing.T) {
	ring := trace.NewRing(4096)
	tr := trace.New(ring)
	servers, addrs := startServers(t, 4)
	for _, s := range servers {
		s.SetTracer(tr)
	}
	three, err := NewCluster(addrs[:3], 1)
	if err != nil {
		t.Fatal(err)
	}
	defer three.Close()
	fresh, err := NewCluster(addrs[:3], 1)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	written := seededBlocks(t, 31, 6, 16)
	for _, b := range written[:2] {
		if err := three.DistributeBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := three.PublishEpoch([]simnet.NodeID{0, 1, 2, 3}, addrs); err != nil {
		t.Fatal(err)
	}
	four, err := NewCluster(addrs, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer four.Close()
	for _, b := range written[2:] {
		if err := four.DistributeBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	if servers[3].Stats().ChunkCount == 0 {
		t.Fatal("the added member holds no chunk: nothing was tested")
	}
	for _, reader := range []struct {
		name string
		cl   *Cluster
	}{{"the publisher", three}, {"a client that never saw the publish", fresh}} {
		for _, b := range written {
			got, err := reader.cl.RetrieveBlock(b.Header)
			if err != nil {
				t.Fatalf("%s, block %d: %v", reader.name, b.Header.Height, err)
			}
			if got.Hash() != b.Hash() {
				t.Fatalf("%s, block %d read wrong", reader.name, b.Header.Height)
			}
		}
	}
	// Serve points are recorded after the reply has left; Close joins every
	// connection goroutine. A poll is one get-cluster-map to each member the
	// polling client's map lists: each client's build makes one (3, 3 and
	// 4), the publish one of the three, the stale client's first miss one of
	// the three, and the publisher's reads none.
	for _, cl := range []*Cluster{three, four, fresh} {
		cl.Close()
	}
	for _, s := range servers {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if polls := spansByName(ring)["serve:get-cluster-map"]; polls != 3+3+4+3+3 {
		t.Fatalf("%d get-cluster-map requests served, want 16: three builds, the publish and one stale read", polls)
	}
}
