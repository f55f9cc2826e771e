package netx

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"
	"time"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/core"
	"icistrategy/internal/simnet"
)

// wireMessage is a message the tests send both ways.
type wireMessage interface {
	WireEncoder
	WireDecoder
}

// sample is one named message; the names of the four the benchmark's layer
// probes measure match its metric names.
type sample struct {
	name  string
	msg   wireMessage
	fresh func() wireMessage
}

func freshRequest() wireMessage  { return new(Request) }
func freshResponse() wireMessage { return new(Response) }

// testChunk cuts chunk idx of parts out of b the way DistributeBlock does:
// the encoded transaction group plus one Merkle proof per transaction.
func testChunk(t testing.TB, b *chain.Block, parts, idx int) PutChunkReq {
	t.Helper()
	tree, err := chain.TxMerkleTree(b.Txs)
	if err != nil {
		t.Fatal(err)
	}
	per := len(b.Txs) / parts
	start := idx * per
	group := b.Txs[start : start+per]
	proofs := make([]chain.Proof, len(group))
	for i := range group {
		if proofs[i], err = tree.Prove(start + i); err != nil {
			t.Fatal(err)
		}
	}
	sub := chain.Block{Txs: group}
	return PutChunkReq{Block: b.Hash(), Index: idx, Parts: parts, TxStart: start, Data: sub.EncodeBody(), Proofs: proofs}
}

// sampleMessages returns one message of every Request and Response variant,
// shaped like the benchmark's chain: 96 transactions a block, 8 chunks.
func sampleMessages(t testing.TB) []sample {
	b := testBlocks(t, 1, 96)[0]
	put := testChunk(t, b, 8, 3)
	chunk := ChunkResp{Index: put.Index, Parts: put.Parts, TxStart: put.TxStart, Data: put.Data, Proofs: put.Proofs}
	bare := chunk // what a ref that does not ask for proofs is answered with
	bare.Proofs = nil
	headers := make([]chain.Header, 256)
	for i := range headers {
		headers[i] = b.Header
		headers[i].Height = uint64(i)
	}
	epochs := core.EpochMap{
		{Seq: 0, FromHeight: 0, Members: []simnet.NodeID{0, 1}, Addrs: []string{"127.0.0.1:4000", "127.0.0.1:4001"}},
		{Seq: 1, FromHeight: 17, Members: []simnet.NodeID{1}, Addrs: []string{"127.0.0.1:4001"}},
	}
	h1, h2 := blockcrypto.Sum256([]byte("one")), blockcrypto.Sum256([]byte("two"))
	req := func(name string, r Request) sample { return sample{name, &r, freshRequest} }
	resp := func(name string, r Response) sample { return sample{name, &r, freshResponse} }
	return []sample{
		req("empty_req", Request{}),
		req("put_header_req", Request{PutHeader: &PutHeaderReq{Header: b.Header}}),
		req("put_chunk_req", Request{PutChunk: &put}),
		req("get_headers_req", Request{GetHeaders: &GetHeadersReq{FromHeight: 1 << 40}}),
		req("get_chunk_req", Request{GetChunk: &GetChunkReq{Block: h1, Index: -2}}),
		req("chunk_batch_req", Request{GetChunkBatch: &ChunkBatchReq{Refs: []ChunkRef{{Block: h1, Index: 0}, {Block: h2, Index: 7}}}}),
		req("chunk_batch_proven_req", Request{GetChunkBatch: &ChunkBatchReq{Refs: []ChunkRef{{Block: h1, Index: 0, Proofs: true}, {Block: h2, Index: 7, Proofs: true}}}}),
		req("chunk_batch_mixed_req", Request{GetChunkBatch: &ChunkBatchReq{Refs: []ChunkRef{{Block: h1, Index: 3, Proofs: true}, {Block: h1, Index: 4}, {Block: h2, Index: -1, Proofs: true}}}}),
		req("get_block_chunks_req", Request{GetBlockChunks: &GetBlockChunksReq{Block: h1}}),
		req("tx_proof_req", Request{GetTxProof: &TxProofReq{Block: h1, TxID: h2}}),
		req("get_cluster_map_req", Request{GetClusterMap: &ClusterMapReq{}}),
		req("set_cluster_map_req", Request{SetClusterMap: &SetClusterMapReq{Epochs: epochs}}),
		req("stats_req", Request{Stats: &StatsReq{}}),
		req("fault_req", Request{Fault: &FaultReq{Set: &FaultConfig{DropRate: 0.25, CorruptRate: 1, Delay: 3 * time.Millisecond, Seed: 9}, CorruptStored: true}}),
		req("fault_clear_req", Request{Fault: &FaultReq{}}),
		resp("err_resp", Response{Err: "netx: not found"}),
		resp("ok_resp", Response{OK: &struct{}{}}),
		resp("headers_resp", Response{Headers: headers}),
		resp("no_headers_resp", Response{}),
		resp("chunk_resp", Response{Chunk: &chunk}),
		resp("chunk_batch_resp", Response{ChunkBatch: &ChunkBatchResp{Found: []bool{true}, Chunks: []ChunkResp{chunk}}}),
		resp("chunk_batch_resp_bare", Response{ChunkBatch: &ChunkBatchResp{Found: []bool{true}, Chunks: []ChunkResp{bare}}}),
		resp("chunk_batch_mixed_resp", Response{ChunkBatch: &ChunkBatchResp{Found: []bool{true, true}, Chunks: []ChunkResp{bare, chunk}}}),
		resp("chunk_batch_holes_resp", Response{ChunkBatch: &ChunkBatchResp{Found: []bool{false, true, false}, Chunks: []ChunkResp{{}, chunk, {}}}}),
		resp("block_chunks_resp", Response{BlockChunks: &BlockChunksResp{Parts: 8, Chunks: []ChunkResp{chunk, chunk}}}),
		resp("tx_proof_resp", Response{TxProof: &TxProofResp{Found: true, Tx: b.Txs[5], Proof: put.Proofs[0]}}),
		resp("tx_proof_miss_resp", Response{TxProof: &TxProofResp{}}),
		resp("cluster_map_resp", Response{ClusterMap: &ClusterMapResp{Epochs: epochs}}),
		resp("stats_resp", Response{Stats: &StatsResp{HeaderCount: 3, HeaderBytes: 252, ChunkCount: 1 << 33, ChunkBytes: -1}}),
		resp("faults_resp", Response{Faults: &FaultResp{Corrupted: 12}}),
	}
}

func sampleNamed(t testing.TB, name string) sample {
	for _, s := range sampleMessages(t) {
		if s.name == name {
			return s
		}
	}
	t.Fatalf("no sample message %q", name)
	return sample{}
}

// TestWireRoundTrip: every variant decodes to the value that was encoded,
// into a target that held something else before.
func TestWireRoundTrip(t *testing.T) {
	for _, s := range sampleMessages(t) {
		got := s.fresh()
		if req, ok := got.(*Request); ok {
			req.Stats = &StatsReq{} // stale content the decode must clear
		} else {
			got.(*Response).Err = "stale"
		}
		if err := ReadMessage(bytes.NewReader(encoded(t, s.msg)), got); err != nil {
			t.Errorf("%s: %v", s.name, err)
			continue
		}
		if !reflect.DeepEqual(got, s.msg) {
			t.Errorf("%s: decoded\n%+v\nwant\n%+v", s.name, got, s.msg)
		}
	}
}

// TestDecodedMessageOwnsItsBytes: the frame buffer is pooled, so a decoded
// message must not alias it. Decode a chunk, then let later frames reuse
// the buffer; the first message must not change.
func TestDecodedMessageOwnsItsBytes(t *testing.T) {
	s := sampleNamed(t, "chunk_batch_resp")
	frame := encoded(t, s.msg)
	var first Response
	if err := ReadMessage(bytes.NewReader(frame), &first); err != nil {
		t.Fatal(err)
	}
	for i := range frame[frameHeaderSize:] {
		frame[frameHeaderSize+i] ^= 0xA5
	}
	for i := 0; i < 8; i++ {
		var scratch Response
		_ = ReadMessage(bytes.NewReader(frame), &scratch) // garbage through the same pool
	}
	if !reflect.DeepEqual(&first, s.msg) {
		t.Fatal("a decoded message changed when the pooled frame buffer was reused")
	}
}

// TestHostileFrames: whatever arrives, ReadFrame answers with an error —
// no panic, and (TestReadMessageTruncatedBody) no allocation sized by a
// claimed length.
func TestHostileFrames(t *testing.T) {
	h := blockcrypto.Sum256([]byte("h"))
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	chunkPrefix := []byte{0, 0, 0} // index, parts, txStart
	cases := []struct {
		name  string
		data  []byte
		fresh func() wireMessage
		want  error
	}{
		{"oversized length claim", []byte{0xff, 0xff, 0xff, 0xff}, freshRequest, ErrTooLarge},
		{"length below the header size", []byte{0, 0, 0, 5, 1, 1, 0, 0, 0}, freshRequest, ErrMalformed},
		{"unknown version", frame(wireVersion+1, opStats, 1, nil), freshRequest, ErrBadVersion},
		{"version zero", frame(0, opStats, 1, nil), freshRequest, ErrBadVersion},
		{"unknown request opcode", frame(wireVersion, 0x3f, 1, nil), freshRequest, ErrBadOpcode},
		{"response opcode in a request", frame(wireVersion, opRespOK, 1, nil), freshRequest, ErrBadOpcode},
		{"request opcode in a response", frame(wireVersion, opStats, 1, nil), freshResponse, ErrBadOpcode},
		{"trailing bytes after no fields", frame(wireVersion, opStats, 1, []byte{0}), freshRequest, ErrMalformed},
		{"trailing bytes after fields", frame(wireVersion, opGetChunk, 1, cat(h[:], []byte{2, 9})), freshRequest, ErrMalformed},
		{"ref count larger than the bytes that follow", frame(wireVersion, opGetChunks, 1, cat(uv(1<<40), h[:], []byte{0, 0})), freshRequest, ErrMalformed},
		{"more refs claimed than whole refs follow", frame(wireVersion, opGetChunks, 1, cat(uv(2), h[:], []byte{0, 1})), freshRequest, ErrMalformed},
		{"proofs flag that is neither 0 nor 1", frame(wireVersion, opGetChunks, 1, cat(uv(1), h[:], []byte{0, 2})), freshRequest, ErrMalformed},
		{"the retired get_chunk_batch opcode", frame(wireVersion, 0x05, 1, cat(uv(1), h[:], []byte{0})), freshRequest, ErrBadOpcode},
		{"chunk count larger than the bytes that follow", frame(wireVersion, opRespBlockChunks, 1, cat([]byte{16}, uv(1<<30))), freshResponse, ErrMalformed},
		{"found count larger than the bytes that follow", frame(wireVersion, opRespChunkBatch, 1, cat(uv(1<<50), []byte{1})), freshResponse, ErrMalformed},
		{"data length larger than the bytes that follow", frame(wireVersion, opRespChunk, 1, cat(chunkPrefix, uv(1<<31), []byte("xy"))), freshResponse, ErrMalformed},
		{"proof count larger than the bytes that follow", frame(wireVersion, opRespChunk, 1, cat(chunkPrefix, uv(0), uv(1<<31))), freshResponse, ErrMalformed},
		{"step count larger than the bytes that follow", frame(wireVersion, opRespChunk, 1, cat(chunkPrefix, uv(0), uv(1), []byte{0}, uv(1<<31), h[:])), freshResponse, ErrMalformed},
		{"epoch count larger than the bytes that follow", frame(wireVersion, opSetClusterMap, 1, uv(1<<20)), freshRequest, ErrMalformed},
		{"member count larger than the bytes that follow", frame(wireVersion, opSetClusterMap, 1, cat(uv(1), []byte{0, 0}, uv(1<<20))), freshRequest, ErrMalformed},
		{"bool that is neither 0 nor 1", frame(wireVersion, opRespTxProof, 1, []byte{2, 0, 0, 0}), freshResponse, ErrMalformed},
		{"proof side byte that is neither 0 nor 1", frame(wireVersion, opRespTxProof, 1, cat([]byte{0, 0, 0, 1}, h[:], []byte{7})), freshResponse, ErrMalformed},
		{"headers not a whole number of headers", frame(wireVersion, opRespHeaders, 1, make([]byte, chain.HeaderSize+1)), freshResponse, ErrMalformed},
		{"unterminated varint", frame(wireVersion, opGetHeaders, 1, bytes.Repeat([]byte{0x80}, 11)), freshRequest, ErrMalformed},
	}
	for _, c := range cases {
		_, _, err := ReadFrame(bytes.NewReader(c.data), c.fresh())
		if !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
	}

	// Every variant, cut at every byte offset: a short stream is an I/O
	// error; a frame whose length field was rewritten to match the cut is
	// a decode error, except where the cut lands on a frame that is valid
	// in its own right (an error string, a block of headers).
	for _, s := range sampleMessages(t) {
		full := encoded(t, s.msg)
		for cut := 0; cut < len(full); cut++ {
			_, _, err := ReadFrame(bytes.NewReader(full[:cut]), s.fresh())
			if want := io.ErrUnexpectedEOF; cut == 0 {
				if err != io.EOF {
					t.Fatalf("%s: empty stream: got %v, want io.EOF", s.name, err)
				}
			} else if !errors.Is(err, want) {
				t.Fatalf("%s cut at %d of %d: got %v, want %v", s.name, cut, len(full), err, want)
			}
			if cut < frameHeaderSize {
				continue
			}
			relabeled := append([]byte(nil), full[:cut]...)
			binary.BigEndian.PutUint32(relabeled, uint32(cut-4))
			got := s.fresh()
			_, _, err = ReadFrame(bytes.NewReader(relabeled), got)
			if err != nil {
				if !errors.Is(err, ErrMalformed) {
					t.Fatalf("%s relabeled at %d: got %v, want ErrMalformed", s.name, cut, err)
				}
				continue
			}
			if again := encoded(t, got); !bytes.Equal(again, relabeled) {
				t.Fatalf("%s relabeled at %d decoded without error but is not the frame %T encodes", s.name, cut, got)
			}
		}
	}
}

// TestMessageTooLargeToSend: the size ceiling holds on the write side too.
func TestMessageTooLargeToSend(t *testing.T) {
	big := &Response{Chunk: &ChunkResp{Data: make([]byte, maxMessageSize)}}
	if err := WriteMessage(io.Discard, big); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v, want ErrTooLarge", err)
	}
	if err := WriteMessage(io.Discard, 7); err == nil {
		t.Fatal("a value that is no wire message was written")
	}
}

// allocCeilings are the allocations one encode plus one decode of a frame
// makes, exactly. Decoding allocates what the message is made of (for a
// chunk: the response's parts, one data slice, one step array for all its
// proofs); encoding allocates nothing, its buffer coming from and going back
// to the frame pool — a WriteFrame that does not put it back costs one more
// and fails here. Under the race detector sync.Pool drops buffers at random,
// so there raceAllocs adds room. An alloc regression fails here, in tier-1,
// before the benchmark sees it.
var allocCeilings = map[string]float64{
	"chunk_batch_resp":      7,
	"chunk_batch_resp_bare": 5, // no proof list, no step array
	"put_chunk_req":         5,
	"ok_resp":               1,
	"headers_resp":          2,
}

func TestCodecAllocCeilings(t *testing.T) {
	for name, ceiling := range allocCeilings {
		s := sampleNamed(t, name)
		frame := encoded(t, s.msg)
		rd := bytes.NewReader(frame)
		got := testing.AllocsPerRun(200, func() {
			if err := WriteMessage(io.Discard, s.msg); err != nil {
				t.Fatal(err)
			}
			rd.Reset(frame)
			if err := ReadMessage(rd, s.fresh()); err != nil {
				t.Fatal(err)
			}
		})
		if got > ceiling+raceAllocs {
			t.Errorf("%s: %.0f allocs for one encode and decode, ceiling %.0f", name, got, ceiling+raceAllocs)
		}
	}
}

// TestServedBatchCopiesNoPayload: a server answers a bare batch of four refs
// with one allocation, the response value; the chunks go from the store into
// the pooled frame and nowhere else. A storage.Store.Chunk back in the
// handler would allocate each payload (2.5 KB here) and fails both counts.
func TestServedBatchCopiesNoPayload(t *testing.T) {
	servers, addrs := startServers(t, 1)
	c, err := Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	blk := testBlocks(t, 1, 96)[0]
	if err := c.PutHeader(blk.Header); err != nil {
		t.Fatal(err)
	}
	req := &Request{GetChunkBatch: &ChunkBatchReq{}}
	payload := 0
	for idx := 0; idx < 4; idx++ {
		put := testChunk(t, blk, 8, idx)
		if err := c.PutChunk(put); err != nil {
			t.Fatal(err)
		}
		req.GetChunkBatch.Refs = append(req.GetChunkBatch.Refs, ChunkRef{Block: blk.Hash(), Index: idx})
		payload += len(put.Data)
	}
	serve := func() {
		n, err := WriteFrame(io.Discard, 1, servers[0].handle(req, false))
		if err != nil || n < payload {
			t.Fatalf("a %d-byte frame for %d bytes of chunks: %v", n, payload, err)
		}
	}
	serve() // the pooled frame buffer grows to the batch once
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, serve)
	runtime.ReadMemStats(&after)
	if allocs > 1+raceAllocs {
		t.Errorf("%.0f allocations to serve a bare batch of 4, want %d", allocs, 1+raceAllocs)
	}
	if perRun := (after.TotalAlloc - before.TotalAlloc) / (runs + 1); raceAllocs == 0 && perRun >= uint64(payload/4) { // under the race detector the pool drops frame buffers
		t.Errorf("%d bytes allocated to serve a bare batch of 4: one chunk's data is %d", perRun, payload/4)
	}
}

// The frame sizes the benchmark's layer table reports (bench/, metric
// netx.codec.*.frame_bytes): pinned so a format change shows up here.
func TestFrameSizes(t *testing.T) {
	if n := len(encoded(t, sampleNamed(t, "ok_resp").msg)); n != frameHeaderSize {
		t.Errorf("ok_resp frame is %d bytes, want the bare %d-byte header", n, frameHeaderSize)
	}
	s := sampleNamed(t, "chunk_batch_resp")
	chunk := s.msg.(*Response).ChunkBatch.Chunks[0]
	payload := len(chunk.Data)
	for _, p := range chunk.Proofs {
		payload += len(p.Steps) * (blockcrypto.HashSize + 1)
	}
	if n := len(encoded(t, s.msg)); n > payload+64 {
		t.Errorf("chunk_batch_resp frame is %d bytes for %d bytes of chunk data and proof steps", n, payload)
	}
	// The frame a sound read moves: the chunk's data and 19 bytes around it.
	if n := len(encoded(t, sampleNamed(t, "chunk_batch_resp_bare").msg)); n > len(chunk.Data)+24 {
		t.Errorf("chunk_batch_resp_bare frame is %d bytes for %d bytes of chunk data", n, len(chunk.Data))
	}
}

var benchSink error

func benchmarkCodec(b *testing.B, name string) {
	s := sampleNamed(b, name)
	frame := encoded(b, s.msg)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(frame)))
		for i := 0; i < b.N; i++ {
			benchSink = WriteMessage(io.Discard, s.msg)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(frame)))
		rd := bytes.NewReader(frame)
		for i := 0; i < b.N; i++ {
			rd.Reset(frame)
			benchSink = ReadMessage(rd, s.fresh())
		}
	})
}

func BenchmarkCodecChunkBatchResp(b *testing.B) { benchmarkCodec(b, "chunk_batch_resp") }
func BenchmarkCodecPutChunkReq(b *testing.B)    { benchmarkCodec(b, "put_chunk_req") }
func BenchmarkCodecOKResp(b *testing.B)         { benchmarkCodec(b, "ok_resp") }
func BenchmarkCodecHeadersResp(b *testing.B)    { benchmarkCodec(b, "headers_resp") }

// BenchmarkClientRoundTrip is one GetChunkBatch of one chunk against a real
// server over loopback: both frames, both socket crossings, the handler.
func BenchmarkClientRoundTrip(b *testing.B) {
	_, addrs := startServers(b, 1)
	c, err := Dial(addrs[0])
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	blk := testBlocks(b, 1, 96)[0]
	if err := c.PutHeader(blk.Header); err != nil {
		b.Fatal(err)
	}
	if err := c.PutChunk(testChunk(b, blk, 8, 3)); err != nil {
		b.Fatal(err)
	}
	refs := []ChunkRef{{Block: blk.Hash(), Index: 3}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := c.GetChunkBatch(refs)
		if err != nil || !resp.Found[0] {
			b.Fatalf("round trip: %v", err)
		}
	}
}
