package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sort"
	"testing"
	"time"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/cluster"
	"icistrategy/internal/consensus"
	"icistrategy/internal/core"
	"icistrategy/internal/erasure"
	"icistrategy/internal/gateway"
	"icistrategy/internal/netx"
	"icistrategy/internal/simnet"
	"icistrategy/internal/storage"
	"icistrategy/internal/workload"
)

// The layer probes time calls into the public functions of each package on
// inputs generated once from the seed and shaped like the workloads' (a
// 96-transaction block, its 12-transaction chunks, an 8-server cluster).
// They are the same whatever workload the traced run belongs to, so every
// traced run reports every layer's numbers. Layer = package name.

// sink keeps the compiler from removing a probed call.
var sink any

// probeRow is one testing.Benchmark result, for -layers.
type probeRow struct {
	name string
	res  testing.BenchmarkResult
}

type prober struct {
	rows []probeRow
	m    map[string]float64
}

// bench runs fn under testing.Benchmark and returns ns per operation.
func (p *prober) bench(name string, fn func(b *testing.B)) (nsPerOp float64, res testing.BenchmarkResult) {
	res = testing.Benchmark(fn)
	p.rows = append(p.rows, probeRow{name, res})
	if res.N == 0 {
		return 0, res
	}
	return float64(res.T.Nanoseconds()) / float64(res.N), res
}

// loop is the common probe shape: time fn b.N times.
func loop(fn func(i int)) func(b *testing.B) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fn(i)
		}
	}
}

// runLayerProbes measures every probe-derived layer metric into m.
func runLayerProbes(sc scale, seed uint64, m map[string]float64) ([]probeRow, error) {
	p := &prober{m: m}
	blocks, err := genBlocks(sc, seed, sc.probeBlocks)
	if err != nil {
		return nil, err
	}
	if err := p.pure(sc, seed, blocks[0]); err != nil {
		return nil, err
	}
	if err := p.codecs(sc, blocks); err != nil {
		return nil, err
	}
	if err := p.simnet(sc, seed); err != nil {
		return nil, err
	}
	if err := p.sim(sc, seed); err != nil {
		return nil, err
	}
	if err := p.tcp(sc, blocks); err != nil {
		return nil, err
	}
	return p.rows, nil
}

// chunkOf builds chunk idx of the block the way DistributeBlock does.
func chunkOf(b *chain.Block, parts, idx int) (netx.PutChunkReq, error) {
	tree, err := chain.TxMerkleTree(b.Txs)
	if err != nil {
		return netx.PutChunkReq{}, err
	}
	start, end, err := core.ChunkRange(len(b.Txs), parts, idx)
	if err != nil {
		return netx.PutChunkReq{}, err
	}
	proofs := make([]chain.Proof, end-start)
	for i := range proofs {
		if proofs[i], err = tree.Prove(start + i); err != nil {
			return netx.PutChunkReq{}, err
		}
	}
	sub := chain.Block{Txs: b.Txs[start:end]}
	return netx.PutChunkReq{Block: b.Hash(), Index: idx, Parts: parts, TxStart: start, Data: sub.EncodeBody(), Proofs: proofs}, nil
}

// pure probes the packages that need no network: chain, blockcrypto,
// consensus, core placement, storage, erasure, cluster, workload.
func (p *prober) pure(sc scale, seed uint64, b *chain.Block) error {
	m := p.m
	body := b.EncodeBody()
	tree, err := chain.TxMerkleTree(b.Txs)
	if err != nil {
		return err
	}
	proof, err := tree.Prove(len(b.Txs) / 2)
	if err != nil {
		return err
	}
	leaf := b.Txs[len(b.Txs)/2].ID()

	ns, _ := p.bench("chain.TxMerkleTree", loop(func(int) { sink, _ = chain.TxMerkleTree(b.Txs) }))
	m["chain.tx_merkle_tree_us"] = ns / 1e3
	m["chain.prove_ns"], _ = p.bench("chain.MerkleTree.Prove", loop(func(i int) { sink, _ = tree.Prove(i % len(b.Txs)) }))
	m["chain.verify_proof_ns"], _ = p.bench("chain.VerifyProof", loop(func(int) { sink = chain.VerifyProof(tree.Root(), leaf, proof) }))
	ns, _ = p.bench("chain.Block.EncodeBody", loop(func(int) { sink = b.EncodeBody() }))
	m["chain.encode_body_us"] = ns / 1e3
	ns, _ = p.bench("chain.DecodeBody", loop(func(int) { sink, _ = chain.DecodeBody(body) }))
	m["chain.decode_body_us"] = ns / 1e3
	ns, _ = p.bench("chain.Block.VerifyShape", loop(func(int) { sink = b.VerifyShape() }))
	m["chain.verify_shape_us"] = ns / 1e3
	ns, _ = p.bench("chain.Transaction.VerifySignature", loop(func(i int) { sink = b.Txs[i%len(b.Txs)].VerifySignature() }))
	m["chain.tx_verify_signature_us"] = ns / 1e3

	key := blockcrypto.DeriveKeyPair(seed, 1)
	msg := b.Txs[0].SigningBytes()
	sig := key.Sign(msg)
	ns, _ = p.bench("blockcrypto.KeyPair.Sign", loop(func(int) { sink = key.Sign(msg) }))
	m["blockcrypto.sign_us"] = ns / 1e3
	ns, _ = p.bench("blockcrypto.Verify", loop(func(int) { sink = blockcrypto.Verify(key.Public, msg, sig) }))
	m["blockcrypto.verify_us"] = ns / 1e3
	ns, _ = p.bench("blockcrypto.Sum256", loop(func(int) { sink = blockcrypto.Sum256(body) }))
	m["blockcrypto.hash_mb_per_s"] = mbPerSec(len(body), ns)

	// A commit certificate of a 16-member cluster: every chunk covered by
	// its quorum of signed approvals.
	const members = 16
	keys := make([]blockcrypto.KeyPair, members)
	for i := range keys {
		keys[i] = blockcrypto.DeriveKeyPair(seed, uint64(i))
	}
	quorum := consensus.CoverQuorumFor(members, sc.replication)
	var cert []consensus.Vote
	for idx := 0; idx < members; idx++ {
		for v := 0; v < quorum; v++ {
			voter := (idx + v) % members
			cert = append(cert, consensus.SignChunkVote(simnet.NodeID(voter), b.Hash(), idx, true, keys[voter]))
		}
	}
	isMember := func(id simnet.NodeID) bool { return int(id) < members }
	pubKey := func(id simnet.NodeID) []byte { return keys[int(id)].Public }
	ns, _ = p.bench("consensus.VerifyCertificate", loop(func(int) {
		sink = consensus.VerifyCertificate(b.Hash(), members, members, sc.replication, cert, isMember, pubKey)
	}))
	m["consensus.verify_certificate_us"] = ns / 1e3

	for _, n := range []int{8, 64} {
		ids := make([]simnet.NodeID, n)
		for i := range ids {
			ids[i] = simnet.NodeID(i)
		}
		m[fmt.Sprintf("core.owners_%d_ns", n)], _ = p.bench(fmt.Sprintf("core.Owners/%d", n), loop(func(i int) {
			sink, _ = core.Owners(uint64(i), ids, i%n, sc.replication)
		}))
	}

	chunk, err := chunkOf(b, sc.servers, 0)
	if err != nil {
		return err
	}
	var st *storage.Store
	m["storage.put_chunk_ns"], _ = p.bench("storage.Store.PutChunk", loop(func(i int) {
		if i%1024 == 0 { // bound the probe's memory
			st = storage.NewStore()
		}
		sink = st.PutChunk(storage.NewChunk(storage.ChunkID{Block: b.Hash(), Index: i % 1024}, chunk.Data))
	}))
	st = storage.NewStore()
	for idx := 0; idx < sc.servers*sc.replication; idx++ {
		_ = st.PutChunk(storage.NewChunk(storage.ChunkID{Block: b.Hash(), Index: idx}, chunk.Data)) // fresh store, valid chunk
	}
	ns, res := p.bench("storage.Store.Chunk", loop(func(i int) {
		sink, _ = st.Chunk(storage.ChunkID{Block: b.Hash(), Index: i % sc.servers})
	}))
	m["storage.get_chunk_ns"], m["storage.get_chunk_allocs"] = ns, float64(res.AllocsPerOp())
	m["storage.chunks_for_block_ns"], _ = p.bench("storage.Store.ChunksForBlock", loop(func(int) { sink = st.ChunksForBlock(b.Hash()) }))

	code, err := erasure.New(8, 2)
	if err != nil {
		return err
	}
	shards, err := code.Split(body)
	if err != nil {
		return err
	}
	ns, _ = p.bench("erasure.Code.Encode", loop(func(int) { sink = code.Encode(shards) }))
	m["erasure.encode_mb_per_s"] = mbPerSec(len(body), ns)
	ns, _ = p.bench("erasure.Code.Reconstruct", loop(func(int) {
		shards[1], shards[6] = nil, nil
		sink = code.Reconstruct(shards)
	}))
	m["erasure.reconstruct_mb_per_s"] = mbPerSec(len(body), ns)

	coords := simnet.RandomCoords(sc.simNodes, 60, blockcrypto.NewRNG(seed).Fork("coords"))
	ns, _ = p.bench("cluster.Partition", loop(func(i int) {
		sink, _ = cluster.Partition(cluster.BalancedKMeans, coords, sc.simClusters, blockcrypto.NewRNG(seed+uint64(i)))
	}))
	m["cluster.balanced_kmeans_ms"] = ns / 1e6

	gen, err := workload.NewGenerator(workload.Config{Accounts: 64, PayloadBytes: sc.payload, Seed: seed})
	if err != nil {
		return err
	}
	cb, err := workload.NewChainBuilder(gen, 10_000)
	if err != nil {
		return err
	}
	ns, _ = p.bench("workload.ChainBuilder.NextBlock", loop(func(int) { sink, _ = cb.NextBlock(sc.txPerBlock) }))
	m["workload.gen_block_ms"] = ns / 1e6
	return nil
}

func mbPerSec(bytesPerOp int, nsPerOp float64) float64 {
	if nsPerOp == 0 {
		return 0
	}
	return float64(bytesPerOp) / nsPerOp * 1e3 // bytes/ns → MB/s (10^6 bytes)
}

// codecs probes the wire framing of the messages the workloads send most:
// netx.WriteMessage / ReadMessage on whole frames.
func (p *prober) codecs(sc scale, blocks []*chain.Block) error {
	chunk, err := chunkOf(blocks[0], sc.servers, 0)
	if err != nil {
		return err
	}
	resp := netx.ChunkResp{Index: chunk.Index, Parts: chunk.Parts, TxStart: chunk.TxStart, Data: chunk.Data, Proofs: chunk.Proofs}
	headers := make([]chain.Header, 0, 256)
	for len(headers) < cap(headers) {
		headers = append(headers, blocks[len(headers)%len(blocks)].Header)
	}
	type codec struct {
		name string
		msg  any
		into func() any
	}
	netxResp := func() any { return new(netx.Response) }
	for _, c := range []codec{
		{"netx.codec.chunk_batch_resp", &netx.Response{ChunkBatch: &netx.ChunkBatchResp{Found: []bool{true}, Chunks: []netx.ChunkResp{resp}}}, netxResp},
		{"netx.codec.put_chunk_req", &netx.Request{PutChunk: &chunk}, func() any { return new(netx.Request) }},
		{"netx.codec.ok_resp", &netx.Response{OK: &struct{}{}}, netxResp},
		{"netx.codec.headers_resp", &netx.Response{Headers: headers}, netxResp},
		{"gateway.wire", &gateway.WireResponse{Block: blocks[0].Encode()}, func() any { return new(gateway.WireResponse) }},
	} {
		var frame bytes.Buffer
		if err := netx.WriteMessage(&frame, c.msg); err != nil {
			return err
		}
		encNs, enc := p.bench(c.name+"/encode", loop(func(int) { sink = netx.WriteMessage(io.Discard, c.msg) }))
		decNs, dec := p.bench(c.name+"/decode", loop(func(int) { sink = netx.ReadMessage(bytes.NewReader(frame.Bytes()), c.into()) }))
		encName, decName := ".encode_ns", ".decode_ns"
		if c.name == "gateway.wire" {
			encName, decName = ".encode_block_ns", ".decode_block_ns"
		}
		p.m[c.name+encName], p.m[c.name+decName] = encNs, decNs
		p.m[c.name+".frame_bytes"] = float64(frame.Len())
		p.m[c.name+".allocs"] = float64(enc.AllocsPerOp() + dec.AllocsPerOp())
	}
	return nil
}

// simnet probes the event engine alone through its public API: a 4-ary
// flood from node 0 with one ack per delivery, the message shape block
// dissemination has.
func (p *prober) simnet(sc scale, seed uint64) error {
	n := sc.simNodes * 16
	rng := blockcrypto.NewRNG(seed)
	net := simnet.New(simnet.NewLinkModel(rng.Fork("lat").Uint64()))
	coords := simnet.RandomCoords(n, 60, rng.Fork("coords"))
	for i := 0; i < n; i++ {
		i := i
		h := simnet.HandlerFunc(func(nw *simnet.Network, msg simnet.Message) {
			if msg.Kind != "bench/flood" {
				return
			}
			for c := 4*i + 1; c <= 4*i+4 && c < n; c++ {
				_ = nw.Send(simnet.Message{From: simnet.NodeID(i), To: simnet.NodeID(c), Kind: "bench/flood", Size: 64 << 10}) // known node
			}
			_ = nw.Send(simnet.Message{From: simnet.NodeID(i), To: msg.From, Kind: "bench/ack", Size: 64}) // known node
		})
		if err := net.AddNode(simnet.NodeID(i), h, coords[i]); err != nil {
			return err
		}
	}
	round := func() (int, error) {
		for c := 1; c <= 4 && c < n; c++ {
			if err := net.Send(simnet.Message{From: 0, To: simnet.NodeID(c), Kind: "bench/flood", Size: 64 << 10}); err != nil {
				return 0, err
			}
		}
		return net.RunUntilIdle(), nil
	}
	if _, err := round(); err != nil { // fills the engine's pools
		return err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	delivered0, events, t0 := net.DeliveredCount(), 0, time.Now()
	for time.Since(t0) < probeTime {
		ev, err := round()
		if err != nil {
			return err
		}
		events += ev
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	delivered := net.DeliveredCount() - delivered0
	if events == 0 || delivered == 0 {
		return fmt.Errorf("simnet probe executed no events")
	}
	p.m["simnet.events_per_s"] = float64(events) / wall.Seconds()
	p.m["simnet.send_deliver_ns"] = float64(wall.Nanoseconds()) / float64(delivered)
	p.m["simnet.allocs_per_event"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(events)
	return nil
}

// sim probes core's System calls at a quarter of sim-lifecycle's size (the
// same 16-member clusters): one traced round, mean wall time per call.
func (p *prober) sim(sc scale, seed uint64) error {
	small := sc
	small.simNodes, small.simClusters = sc.simNodes/4, (sc.simClusters+3)/4
	t := newTracer()
	t.on.Store(true)
	o := newOutcome()
	if _, err := runSimRound(small, seed, time.Now(), t, nil, o); err != nil {
		return err
	}
	if o.failed > 0 {
		return fmt.Errorf("sim probe: %v", o.notes)
	}
	total := make(map[string]time.Duration)
	for _, s := range t.snapshot() {
		total[s.Name] += time.Duration(s.End - s.Start)
	}
	clusters, blocks := float64(small.simClusters), float64(small.simBlocks)
	p.m["core.sim.distribute_ms_per_block"] = ms(total["core.produce"]) / blocks
	p.m["core.sim.retrieve_ms"] = ms(total["core.retrieve"]) / (clusters * blocks)
	p.m["core.sim.join_ms"] = ms(total["core.join"]) / clusters
	p.m["core.sim.repair_ms"] = ms(total["core.repair"])
	p.m["core.sim.archive_ms"] = ms(total["core.archive"]) / clusters
	return nil
}

// probeTime is how long one probe measures, hand-timed loops and
// testing.Benchmark (through -test.benchtime) alike. About seventy probes
// run in every traced run, so it is short; -quick shortens it further.
var probeTime = 60 * time.Millisecond

// timed runs fn repeatedly for probeTime (at least 20 times) and returns
// the sorted per-call durations in microseconds.
func timed(fn func(i int) error) ([]float64, error) {
	var out []float64
	t0 := time.Now()
	for i := 0; i < 20 || time.Since(t0) < probeTime; i++ {
		s := time.Now()
		if err := fn(i); err != nil {
			return nil, err
		}
		out = append(out, us(time.Since(s)))
	}
	sort.Float64s(out)
	return out, nil
}

// stubUpstream serves one block's chunks from memory, so that an
// in-process cold GetBlock measures the gateway's own work and nothing of
// netx.
type stubUpstream struct {
	hdr    chain.Header
	chunks []netx.ChunkResp
}

func (s *stubUpstream) Parts(blockcrypto.Hash) (int, error)               { return len(s.chunks), nil }
func (s *stubUpstream) Owners(_ blockcrypto.Hash, idx int) ([]int, error) { return []int{idx}, nil }
func (s *stubUpstream) Peers() []int                                      { return []int{0} }
func (s *stubUpstream) Refresh() bool                                     { return false }
func (s *stubUpstream) Header(blockcrypto.Hash) (chain.Header, error)     { return s.hdr, nil }
func (s *stubUpstream) FetchBatch(_ int, refs []netx.ChunkRef) (*netx.ChunkBatchResp, error) {
	out := &netx.ChunkBatchResp{Found: make([]bool, len(refs)), Chunks: make([]netx.ChunkResp, len(refs))}
	for i, ref := range refs {
		out.Found[i], out.Chunks[i] = true, s.chunks[ref.Index]
	}
	return out, nil
}
func (s *stubUpstream) TxProof(int, blockcrypto.Hash, blockcrypto.Hash) (*netx.TxProofResp, error) {
	return &netx.TxProofResp{}, nil
}

// tcp probes netx and gateway against a small preloaded cluster on
// loopback: single round trips on one connection to one server, the
// gateway's upstream calls, its wire protocol, and the cluster-wide
// operations (retrieve, bootstrap, retire, rejoin).
func (p *prober) tcp(sc scale, blocks []*chain.Block) error {
	m := p.m
	c, err := startCluster(sc.servers)
	if err != nil {
		return err
	}
	defer c.close()
	cl, err := netx.NewCluster(c.addrs, sc.replication)
	if err != nil {
		return err
	}
	defer cl.Close()
	// Preload in chain order through one writer: bootstrap validates the
	// header chain in the order the servers stored it.
	var dist []float64
	for _, b := range blocks {
		t0 := time.Now()
		if err := cl.DistributeBlock(b); err != nil {
			return err
		}
		dist = append(dist, ms(time.Since(t0)))
	}
	m["netx.cluster.distribute_ms"] = median(dist)

	// One connection, one server. The requests name a chunk server 0 owns.
	ids := make([]simnet.NodeID, sc.servers)
	for i := range ids {
		ids[i] = simnet.NodeID(i)
	}
	var b *chain.Block
	idx := -1
	for _, cand := range blocks {
		for i := 0; i < sc.servers && idx < 0; i++ {
			if owns, _ := core.IsOwner(cand.Hash().Uint64(), ids, i, sc.replication, 0); owns {
				b, idx = cand, i
			}
		}
	}
	if idx < 0 {
		return fmt.Errorf("server 0 owns no chunk of the probe chain")
	}
	chunk, err := chunkOf(b, sc.servers, idx)
	if err != nil {
		return err
	}
	conn, err := netx.Dial(c.addrs[0])
	if err != nil {
		return err
	}
	defer conn.Close()
	txID := b.Txs[chunk.TxStart].ID()
	for _, rt := range []struct {
		name string
		fn   func() error
	}{
		{"stats", func() error { _, err := conn.Stats(); return err }},
		{"put_header", func() error { return conn.PutHeader(b.Header) }},
		{"put_chunk", func() error { return conn.PutChunk(chunk) }},
		{"get_chunk", func() error { _, err := conn.GetChunk(b.Hash(), idx); return err }},
		{"get_chunk_batch", func() error {
			_, err := conn.GetChunkBatch([]netx.ChunkRef{{Block: b.Hash(), Index: idx}})
			return err
		}},
		{"get_block_chunks", func() error { _, err := conn.GetBlockChunks(b.Hash()); return err }},
		{"get_tx_proof", func() error {
			r, err := conn.GetTxProof(b.Hash(), txID)
			if err == nil && !r.Found {
				err = fmt.Errorf("server 0 did not find the probe transaction")
			}
			return err
		}},
		{"get_headers", func() error { _, err := conn.GetHeaders(0); return err }},
	} {
		var rtErr error
		ns, _ := p.bench("netx.Client/"+rt.name, loop(func(int) {
			if err := rt.fn(); err != nil {
				rtErr = err
			}
		}))
		if rtErr != nil {
			return fmt.Errorf("probe %s: %w", rt.name, rtErr)
		}
		m["netx.client."+rt.name+"_rtt_us"] = ns / 1e3
	}

	// The gateway's upstream calls, as a cold read makes them.
	up, err := gateway.NewClusterUpstream(c.addrs, sc.replication)
	if err != nil {
		return err
	}
	defer up.Close()
	fetch, err := timed(func(i int) error {
		blk := blocks[i%len(blocks)].Hash()
		owners, err := up.Owners(blk, i%sc.servers)
		if err != nil {
			return err
		}
		r, err := up.FetchBatch(owners[0], []netx.ChunkRef{{Block: blk, Index: i % sc.servers}})
		if err == nil && !r.Found[0] {
			err = fmt.Errorf("owner %d does not hold its chunk", owners[0])
		}
		return err
	})
	if err != nil {
		return err
	}
	m["gateway.upstream.fetch_batch_p50_us"], m["gateway.upstream.fetch_batch_p99_us"] = percentile(fetch, 50), percentile(fetch, 99)
	ns, _ := p.bench("gateway.ClusterUpstream.Header", loop(func(i int) { sink, _ = up.Header(blocks[i%len(blocks)].Hash()) }))
	m["gateway.upstream.header_us"] = ns / 1e3
	m["gateway.upstream.owners_ns"], _ = p.bench("gateway.ClusterUpstream.Owners", loop(func(i int) { sink, _ = up.Owners(b.Hash(), i%sc.servers) }))

	// The gateway itself: a cold read over an in-memory upstream (its own
	// work), a cached read in process, and a cached read over its wire.
	stub := &stubUpstream{hdr: b.Header}
	for i := 0; i < sc.servers; i++ {
		ch, err := chunkOf(b, sc.servers, i)
		if err != nil {
			return err
		}
		stub.chunks = append(stub.chunks, netx.ChunkResp{Index: i, Parts: ch.Parts, TxStart: ch.TxStart, Data: ch.Data, Proofs: ch.Proofs})
	}
	cold, err := gateway.New(gateway.Config{Upstream: stub})
	if err != nil {
		return err
	}
	var gwErr error
	ns, _ = p.bench("gateway.Gateway.GetBlock/miss-stub", loop(func(int) {
		if _, err := cold.GetBlock(b.Hash()); err != nil {
			gwErr = err
		}
	}))
	m["gateway.miss_self_us"] = ns / 1e3
	hot, err := gateway.New(gateway.Config{Upstream: up, BlockCacheBytes: sc.hotCacheBytes, ChunkCacheBytes: sc.hotCacheBytes})
	if err != nil {
		return err
	}
	m["gateway.getblock_hit_ns"], _ = p.bench("gateway.Gateway.GetBlock/hit", loop(func(int) {
		if _, err := hot.GetBlock(b.Hash()); err != nil {
			gwErr = err
		}
	}))
	gs, err := gateway.NewServer("127.0.0.1:0", hot)
	if err != nil {
		return err
	}
	defer gs.Close()
	gc, err := gateway.DialClient(gs.Addr())
	if err != nil {
		return err
	}
	defer gc.Close()
	ns, _ = p.bench("gateway.Client.GetBlock/hit", loop(func(int) {
		if _, err := gc.GetBlock(b.Hash()); err != nil {
			gwErr = err
		}
	}))
	m["gateway.wire.block_rtt_us"] = ns / 1e3
	if gwErr != nil {
		return fmt.Errorf("gateway probe: %w", gwErr)
	}

	// Cluster-wide operations, once each (they change the cluster).
	retr, err := timed(func(i int) error {
		_, err := cl.RetrieveBlock(blocks[i%len(blocks)].Header)
		return err
	})
	if err != nil {
		return err
	}
	m["netx.cluster.retrieve_block_ms"] = percentile(retr, 50) / 1e3
	joiner, err := netx.NewServer("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer joiner.Close()
	t0 := time.Now()
	n, err := cl.BootstrapNewMember(joiner.Addr())
	if err != nil {
		return err
	}
	m["netx.cluster.bootstrap_chunks_per_s"] = float64(n) / time.Since(t0).Seconds()
	last := c.addrs[sc.servers-1]
	t0 = time.Now()
	moved, err := cl.RetireMember(last)
	if err != nil {
		return err
	}
	m["netx.cluster.retire_ms"], m["netx.cluster.retire_moved_chunks"] = ms(time.Since(t0)), float64(moved)
	t0 = time.Now()
	if _, err := cl.RejoinMember(last); err != nil {
		return err
	}
	m["netx.cluster.rejoin_ms"] = ms(time.Since(t0))
	if n := c.connErrors() + joiner.ConnErrors(); n != 0 {
		return fmt.Errorf("probe servers saw %d connection errors", n)
	}
	return nil
}
