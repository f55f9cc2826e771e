package main

import (
	"fmt"
	"sort"
	"time"

	"icistrategy/internal/chain"
	"icistrategy/internal/core"
	"icistrategy/internal/netx"
	"icistrategy/internal/simnet"
)

// tcp-write drives the storage cluster the other way: one closed-loop
// writer distributes a fixed number of pre-generated blocks (each timed),
// then joiners bootstrap one after another into fresh servers (each
// timed), then one member retires and rejoins. The work is fixed by
// --seconds (blocks = writeBlocksPerSec × seconds), not cut off by a clock,
// so that the storage accounting is exact for a seed.

type writeFixture struct {
	sc      scale
	blocks  []*chain.Block
	cluster *tcpCluster
	cl      *netx.Cluster
}

// newWriteFixture generates the blocks and starts an empty cluster: the
// set-up tcp-write's setup_s times.
func newWriteFixture(sc scale, seed uint64, blocks int) (*writeFixture, error) {
	f := &writeFixture{sc: sc}
	var err error
	if f.blocks, err = genBlocks(sc, seed, blocks); err != nil {
		return nil, err
	}
	if f.cluster, err = startCluster(sc.servers); err != nil {
		return nil, err
	}
	if f.cl, err = netx.NewCluster(f.cluster.addrs, sc.replication); err != nil {
		f.cluster.close()
		return nil, err
	}
	return f, nil
}

func (f *writeFixture) close() {
	f.cl.Close()
	f.cluster.close()
}

func (cfg runConfig) writeBlocks() int { return cfg.sc.writeBlocksPerSec * cfg.seconds }

// writeWindows is how many windows the distribute phase has; the writer
// stops between them while the reference kernels are read.
const writeWindows = 10

// distribute writes every block with DistributeBlock, one after another,
// and returns the samples with writeWindows windows of equal block count,
// each with the machine's slowdown while it ran. The caller has just taken
// a reference reading.
func (f *writeFixture) distribute(o *outcome, rt *refTimer) ([]sample, []window, error) {
	samples := make([]sample, 0, len(f.blocks))
	wins := make([]window, 0, writeWindows)
	start := time.Now()
	for k := 0; k < writeWindows; k++ {
		w := window{start: time.Since(start)}
		cpu0 := cpuTime()
		for i := k * len(f.blocks) / writeWindows; i < (k+1)*len(f.blocks)/writeWindows; i++ {
			at := time.Since(start)
			err := f.cl.DistributeBlock(f.blocks[i])
			samples = append(samples, sample{at: at, dur: time.Since(start) - at})
			o.check(err == nil, "distribute block %d: %v", i, err)
		}
		w.end, w.cpu = time.Since(start), cpuTime()-cpu0
		var err error
		if w.slow, err = rt.since(mixWrites); err != nil {
			return nil, nil, err
		}
		wins = append(wins, w)
	}
	return samples, wins, nil
}

func runWrites(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	rt, err := newRefTimer(mixSigning, mixWrites)
	if err != nil {
		return nil, err
	}
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if _, err := rt.next(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		f, err := newWriteFixture(cfg.sc, cfg.seed, cfg.writeBlocks())
		if err != nil {
			return nil, err
		}
		d := time.Since(t0)
		slow, err := rt.since(mixSigning)
		if err == nil {
			setups = append(setups, d.Seconds()/slow)
			if i == 0 {
				err = f.measure(cfg, o, rt)
			}
		}
		f.close()
		if err != nil {
			return nil, err
		}
	}
	o.m["setup_s"] = median(setups)
	o.m["peak_rss_mb"] = peakRSSMB()
	rt.report(cfg.workload)
	return o, nil
}

func (f *writeFixture) measure(cfg runConfig, o *outcome, rt *refTimer) error {
	sc := f.sc
	samples, wins, err := f.distribute(o, rt)
	if err != nil {
		return err
	}
	s := summarize(samples, wins)
	o.m["op_p50_ms"], o.m["ops_per_s"], o.m["cpu_ms_per_op"] = s.p50ms, s.perSec, s.cpuMsPerOp

	o.m["node_storage_fraction"], _ = f.cluster.checkStorage(o, f.blocks, sc.replication)

	// Joiners: each bootstraps the whole chain's share of a ninth member
	// into a fresh server.
	boot, err := f.bootstraps(o, sc.bootstraps)
	if err != nil {
		return err
	}

	// Graceful departure and return of the last member, with a sample of
	// blocks read back before, between (from the remaining members only)
	// and after.
	f.readBack(o, f.cl, "before retire")
	last := f.cluster.addrs[sc.servers-1]
	moved, err := f.cl.RetireMember(last)
	o.check(err == nil && moved > 0, "retire: moved %d chunks, err %v", moved, err)
	shrunk, err := netx.NewCluster(f.cluster.addrs[:sc.servers-1], sc.replication)
	if err != nil {
		return err
	}
	f.readBack(o, shrunk, "after retire")
	shrunk.Close()
	back, err := f.cl.RejoinMember(last)
	o.check(err == nil && back > 0, "rejoin: transferred %d chunks, err %v", back, err)
	f.readBack(o, f.cl, "after rejoin")
	o.check(f.cluster.connErrors() == 0, "storage servers saw %d connection errors", f.cluster.connErrors())
	logf("tcp-write: %d blocks distributed (p99 %.3f ms), %d bootstraps (p50 %.1f ms), retire moved %d chunks, rejoin %d",
		s.n, s.p99ms, sc.bootstraps, boot, moved, back)
	logRaw("tcp-write", samples, wins)
	return nil
}

// joinerChunks counts the chunks a new member owns under the grown
// membership, by the same placement rule the cluster uses.
func joinerChunks(blocks []*chain.Block, sc scale) (int, error) {
	grown := make([]simnet.NodeID, sc.servers+1)
	for i := range grown {
		grown[i] = simnet.NodeID(i)
	}
	self, n := simnet.NodeID(sc.servers), 0
	for _, b := range blocks {
		seed := b.Hash().Uint64()
		for idx := 0; idx < sc.servers; idx++ {
			owns, err := core.IsOwner(seed, grown, idx, sc.replication, self)
			if err != nil {
				return 0, err
			}
			if owns {
				n++
			}
		}
	}
	return n, nil
}

// bootstraps provisions n joiners one after another, each into a fresh
// server, and returns the median time in milliseconds.
func (f *writeFixture) bootstraps(o *outcome, n int) (float64, error) {
	want, err := joinerChunks(f.blocks, f.sc)
	if err != nil {
		return 0, err
	}
	var boots []float64
	for i := 0; i < n; i++ {
		d, err := f.bootstrapOnce(o, want)
		if err != nil {
			return 0, err
		}
		boots = append(boots, ms(d))
	}
	return median(boots), nil
}

// bootstrapOnce times BootstrapNewMember into a fresh server and checks
// what the joiner then stores.
func (f *writeFixture) bootstrapOnce(o *outcome, want int) (time.Duration, error) {
	joiner, err := netx.NewServer("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer joiner.Close()
	t0 := time.Now()
	got, err := f.cl.BootstrapNewMember(joiner.Addr())
	d := time.Since(t0)
	st := joiner.Stats()
	o.check(err == nil && got == want && st.ChunkCount == int64(want) && st.HeaderCount == int64(len(f.blocks)),
		"bootstrap: transferred %d chunks, joiner stores %d chunks and %d headers, want %d and %d, err %v",
		got, st.ChunkCount, st.HeaderCount, want, len(f.blocks), err)
	o.check(joiner.ConnErrors() == 0, "joiner saw %d connection errors", joiner.ConnErrors())
	return d, nil
}

// readBack retrieves an evenly spread sample of blocks through cl.
func (f *writeFixture) readBack(o *outcome, cl *netx.Cluster, when string) {
	for i := 0; i < f.sc.readBack; i++ {
		b := f.blocks[i*len(f.blocks)/f.sc.readBack]
		got, err := cl.RetrieveBlock(b.Header)
		o.check(err == nil && got.Hash() == b.Hash() && len(got.Txs) == len(b.Txs),
			"read back block %d %s: %v", b.Header.Height, when, err)
	}
}

// handDistribute mirrors Cluster.DistributeBlock through public calls,
// with a span around each call into a layer. It returns the number of
// round trips it made.
func handDistribute(t *tracer, b *chain.Block, clients []*netx.Client, ids []simnet.NodeID, replication int) (int, error) {
	root := t.begin("client.distribute", 0, 0)
	defer root.end()
	step := func(name string) open { return t.begin(name, root.sp.ID, root.sp.Req) }

	sp := step("chain.tx_merkle_tree")
	tree, err := chain.TxMerkleTree(b.Txs)
	sp.end()
	if err != nil {
		return 0, err
	}
	rpcs := 0
	for _, c := range clients {
		sp = step("netx.put_header")
		err = c.PutHeader(b.Header)
		sp.end()
		if err != nil {
			return rpcs, err
		}
		rpcs++
	}
	parts := len(clients)
	counts, err := core.SplitCounts(len(b.Txs), parts)
	if err != nil {
		return rpcs, err
	}
	hash := b.Hash()
	txStart := 0
	for idx := 0; idx < parts; idx++ {
		group := b.Txs[txStart : txStart+counts[idx]]
		sp = step("chain.prove")
		proofs := make([]chain.Proof, len(group))
		for i := range group {
			if proofs[i], err = tree.Prove(txStart + i); err != nil {
				break
			}
		}
		sp.end()
		if err != nil {
			return rpcs, err
		}
		sp = step("chain.encode_body")
		sub := chain.Block{Txs: group}
		req := netx.PutChunkReq{Block: hash, Index: idx, Parts: parts, TxStart: txStart, Data: sub.EncodeBody(), Proofs: proofs}
		sp.end()
		sp = step("core.owners")
		owners, err := core.Owners(hash.Uint64(), ids, idx, replication)
		sp.end()
		if err != nil {
			return rpcs, err
		}
		for _, owner := range owners {
			sp = step("netx.put_chunk")
			err = clients[int(owner)].PutChunk(req)
			sp.end()
			if err != nil {
				return rpcs, err
			}
			rpcs++
		}
		txStart += counts[idx]
	}
	return rpcs, nil
}

// traceWrites is the traced run: two thirds of the untraced run's blocks,
// written in turn by DistributeBlock, by the by-hand mirror with tracing
// off, and by the mirror with tracing on — so the mirror's coverage of the
// real call and the cost of recording are both measured on the same
// cluster state.
func traceWrites(cfg runConfig, o *outcome) ([]span, error) {
	sc := cfg.sc
	n := cfg.writeBlocks() * 2 / 3
	f, err := newWriteFixture(sc, cfg.seed, n)
	if err != nil {
		return nil, err
	}
	defer f.close()
	clients := make([]*netx.Client, sc.servers)
	ids := make([]simnet.NodeID, sc.servers)
	for i, addr := range f.cluster.addrs {
		if clients[i], err = netx.Dial(addr); err != nil {
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		defer clients[i].Close()
		ids[i] = simnet.NodeID(i)
	}
	t := newTracer()
	var real, hand, handTraced []float64
	rpcs := 0
	for i, b := range f.blocks {
		t0 := time.Now()
		switch i % 3 {
		case 0:
			err = f.cl.DistributeBlock(b)
			real = append(real, ms(time.Since(t0)))
		case 1:
			_, err = handDistribute(t, b, clients, ids, sc.replication)
			hand = append(hand, ms(time.Since(t0)))
		default:
			t.enable(true)
			rpcs, err = handDistribute(t, b, clients, ids, sc.replication)
			t.enable(false)
			handTraced = append(handTraced, ms(time.Since(t0)))
		}
		o.check(err == nil, "traced distribute block %d: %v", i, err)
	}
	spans := t.snapshot()

	sort.Float64s(real)
	o.m["tail.op_p99_ms"] = percentile(real, 99)
	if o.m["tail.aux_p50_ms"], err = f.bootstraps(o, (sc.bootstraps+2)/3); err != nil {
		return nil, err
	}
	_, o.m["storage.stored_bytes_per_user_byte"] = f.cluster.checkStorage(o, f.blocks, sc.replication)
	o.m["netx.server.conn_errors"] = float64(f.cluster.connErrors())
	o.m["netx.cluster.distribute_rpcs_per_block"] = float64(rpcs)
	if len(hand) > 0 && len(handTraced) > 0 {
		o.m["bench.trace_overhead_pct"] = overheadPct(1/median(hand), 1/median(handTraced))
	}
	// Coverage: the time inside the mirror's leaf spans against the real
	// call's time. Near 1 means the spans account for what DistributeBlock
	// does; the root's self time is the glue between the calls.
	byName, _ := selfTimes(spans)
	var leaf time.Duration
	for name, d := range byName {
		if name != "client.distribute" {
			leaf += d
		}
	}
	if len(handTraced) > 0 && len(real) > 0 {
		o.m["trace.write.coverage_ratio"] = ms(leaf) / float64(len(handTraced)) / mean(real)
	}
	traceShares(o.m, "trace.write.", spans, map[string]string{
		"client.distribute":    "client_self_pct",
		"chain.tx_merkle_tree": "tx_merkle_tree_pct",
		"chain.prove":          "prove_pct",
		"chain.encode_body":    "encode_body_pct",
		"core.owners":          "owners_pct",
		"netx.put_header":      "put_header_pct",
		"netx.put_chunk":       "put_chunk_pct",
	})
	return spans, nil
}
