package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/gateway"
	"icistrategy/internal/metrics"
	"icistrategy/internal/workload"
)

// The read workloads: closed-loop wire clients (one per CPU, one request in
// flight each — a gateway connection carries one request at a time) reading
// whole blocks, and every n-th time a transaction proof, through a real
// gateway.Server over a preloaded TCP cluster.
//
//   tcp-read-cold  gateway caches off, uniform block choice: every read
//                  goes to the storage servers.
//   tcp-read-hot   caches hold the whole chain, Zipf(1.1) choice, one
//                  warming pass: no read goes upstream.

// readFixture is everything a read workload runs against.
type readFixture struct {
	sc      scale
	blocks  []*chain.Block
	hashes  []blockcrypto.Hash
	cluster *tcpCluster
	up      *gateway.ClusterUpstream
	traced  *tracedUpstream
	reg     *metrics.Registry
	server  *gateway.Server
	clients []*gateway.Client
}

// newReadFixture generates the chain, starts the cluster, preloads it and
// puts a gateway with the given cache size in front. This is the set-up a
// read workload's setup_s times.
func newReadFixture(sc scale, seed uint64, cacheBytes int64, t *tracer) (f *readFixture, err error) {
	f = &readFixture{sc: sc, reg: metrics.NewRegistry()}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	if f.blocks, err = genBlocks(sc, seed, sc.readBlocks); err != nil {
		return nil, err
	}
	for _, b := range f.blocks {
		f.hashes = append(f.hashes, b.Hash())
	}
	if f.cluster, err = startCluster(sc.servers); err != nil {
		return nil, err
	}
	if err = preload(f.cluster.addrs, sc.replication, f.blocks); err != nil {
		return nil, err
	}
	if f.up, err = gateway.NewClusterUpstream(f.cluster.addrs, sc.replication); err != nil {
		return nil, err
	}
	var up gateway.Upstream = f.up
	if t != nil { // untraced runs read through the bare upstream
		f.traced = &tracedUpstream{Upstream: f.up, t: t}
		up = f.traced
	}
	g, err := gateway.New(gateway.Config{
		Upstream:        up,
		BlockCacheBytes: cacheBytes,
		ChunkCacheBytes: cacheBytes,
		Registry:        f.reg,
	})
	if err != nil {
		return nil, err
	}
	if f.server, err = gateway.NewServer("127.0.0.1:0", g); err != nil {
		return nil, err
	}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		c, err := gateway.DialClient(f.server.Addr())
		if err != nil {
			return nil, err
		}
		f.clients = append(f.clients, c)
	}
	return f, nil
}

func (f *readFixture) close() {
	for _, c := range f.clients {
		_ = c.Close()
	}
	if f.server != nil {
		_ = f.server.Close()
	}
	if f.up != nil {
		f.up.Close()
	}
	if f.cluster != nil {
		f.cluster.close()
	}
}

// readOne issues request number r of a client: a block read, or every
// proofEvery-th time a proof read, checked against what was distributed.
func (f *readFixture) readOne(o *outcome, c *gateway.Client, t *tracer, pick, r int) sample {
	want, hash := f.blocks[pick], f.hashes[pick]
	proof := r%f.sc.proofEvery == f.sc.proofEvery-1
	name := "client.get_block"
	if proof {
		name = "client.get_tx_proof"
	}
	sp := t.begin(name, 0, 0)
	if sp.t != nil {
		f.traced.enter(hash, sp)
	}
	start := time.Now()
	var err error
	if proof {
		tx := want.Txs[r%len(want.Txs)]
		p, perr := c.GetTxProof(hash, tx.ID())
		switch {
		case perr != nil:
			err = perr
		case p.Verify() != nil || p.Header.Hash() != hash || p.Tx.ID() != tx.ID():
			err = fmt.Errorf("proof does not verify against block %s", hash.Short())
		}
	} else {
		got, gerr := c.GetBlock(hash)
		switch {
		case gerr != nil:
			err = gerr
		case got.Hash() != hash || len(got.Txs) != len(want.Txs):
			err = fmt.Errorf("wrong block served for %s", hash.Short())
		}
	}
	dur := time.Since(start)
	if sp.t != nil {
		f.traced.leave(hash)
		sp.end()
	}
	o.attempted++
	if err != nil {
		o.fail("read %d: %v", r, err)
	}
	return sample{dur: dur, aux: proof}
}

// phase runs the closed loop for d and returns every client's samples and
// the n equal windows of the phase with their CPU.
func (f *readFixture) phase(o *outcome, t *tracer, seed uint64, zipfS float64, d time.Duration, n int) ([]sample, []window, error) {
	wins := equalWindows(d, n)
	perClient := make([][]sample, len(f.clients))
	outs := make([]*outcome, len(f.clients))
	var wg sync.WaitGroup
	start := time.Now()
	for ci, c := range f.clients {
		picker, err := workload.NewZipfPicker(len(f.blocks), zipfS, seed+uint64(ci)*7919)
		if err != nil {
			return nil, nil, err
		}
		outs[ci] = newOutcome()
		wg.Add(1)
		go func(ci int, c *gateway.Client) {
			defer wg.Done()
			for r := 0; ; r++ {
				at := time.Since(start)
				if at >= d {
					return
				}
				sm := f.readOne(outs[ci], c, t, picker.Pick(), r)
				sm.at = at
				perClient[ci] = append(perClient[ci], sm)
			}
		}(ci, c)
	}
	prev := cpuTime()
	for i := range wins {
		time.Sleep(wins[i].end - time.Since(start))
		now := cpuTime()
		wins[i].cpu, prev = now-prev, now
	}
	wg.Wait()
	var all []sample
	for ci := range perClient {
		all = append(all, perClient[ci]...)
		o.merge(outs[ci])
	}
	return all, wins, nil
}

// readWindows is how many windows the measured phase of an untraced read
// run has. The clients stop between windows while the reference kernels
// are read.
const readWindows = 10

// measuredPhase runs the closed loop for d in readWindows windows, each
// with the machine's slowdown from the reference readings taken just
// before and just after it. The caller has just taken a reading.
func (f *readFixture) measuredPhase(o *outcome, rt *refTimer, seed uint64, zipfS float64, d time.Duration) ([]sample, []window, error) {
	var samples []sample
	var wins []window
	var offset time.Duration
	for k := 0; k < readWindows; k++ {
		sm, ws, err := f.phase(o, nil, seed+uint64(k)*104729, zipfS, d/readWindows, 1)
		if err != nil {
			return nil, nil, err
		}
		w := ws[0]
		if w.slow, err = rt.since(mixReads); err != nil {
			return nil, nil, err
		}
		for i := range sm {
			sm[i].at += offset
		}
		w.start, w.end = w.start+offset, w.end+offset
		offset = w.end
		samples, wins = append(samples, sm...), append(wins, w)
	}
	return samples, wins, nil
}

// warm reads every block once so that tcp-read-hot starts with full caches
// (and every workload with dialled connections and compiled codecs).
func (f *readFixture) warm(o *outcome, all bool) {
	n := len(f.blocks)
	if !all && n > 32 {
		n = 32
	}
	for i := 0; i < n; i++ {
		f.readOne(o, f.clients[i%len(f.clients)], nil, i, i)
	}
}

// gatewayLayer turns the registry's movement over the traced slices into
// the gateway's workload-derived layer metrics.
func gatewayLayer(m, moved map[string]float64, reads int) {
	hits := moved["ici.gateway.block_cache.hits"] + moved["ici.gateway.chunk_cache.hits"]
	misses := moved["ici.gateway.block_cache.misses"] + moved["ici.gateway.chunk_cache.misses"]
	if hits+misses > 0 {
		m["gateway.cache.hit_rate"] = hits / (hits + misses)
	}
	m["gateway.cache.evictions"] = moved["ici.gateway.block_cache.evictions"] + moved["ici.gateway.chunk_cache.evictions"]
	m["gateway.coalesced"] = moved["ici.gateway.coalesced"]
	rpcs := moved["ici.gateway.batch.rpcs"]
	if rpcs > 0 {
		m["gateway.batch.refs_per_rpc"] = moved["ici.gateway.batch.refs"] / rpcs
	}
	if reads > 0 {
		m["gateway.batch.rpcs_per_read"] = rpcs / float64(reads)
	}
}

type readParams struct {
	cacheBytes int64
	zipfS      float64
	warmAll    bool
}

func readWorkload(cfg runConfig) readParams {
	if cfg.workload == "tcp-read-hot" {
		return readParams{cacheBytes: cfg.sc.hotCacheBytes, zipfS: 1.1, warmAll: true}
	}
	return readParams{}
}

// runReads is the untraced run of a read workload: three set-ups (the
// first is the one measured against), one measured phase.
func runReads(cfg runConfig) (*outcome, error) {
	p := readWorkload(cfg)
	o := newOutcome()
	rt, err := newRefTimer(mixTCPSetup, mixReads)
	if err != nil {
		return nil, err
	}
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if _, err := rt.next(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		f, err := newReadFixture(cfg.sc, cfg.seed, p.cacheBytes, nil)
		if err != nil {
			return nil, err
		}
		d := time.Since(t0)
		slow, err := rt.since(mixTCPSetup)
		if err == nil {
			setups = append(setups, d.Seconds()/slow)
			if i == 0 {
				err = f.measure(cfg, p, o, rt)
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

// measure runs the warm-up and the measured phase of an untraced run and
// fills in the end-to-end metrics.
func (f *readFixture) measure(cfg runConfig, p readParams, o *outcome, rt *refTimer) error {
	f.warm(o, p.warmAll)
	if _, err := rt.next(); err != nil {
		return err
	}
	samples, wins, err := f.measuredPhase(o, rt, cfg.seed, p.zipfS, cfg.measured())
	if err != nil {
		return err
	}
	s := summarize(samples, wins)
	o.m["op_p50_ms"], o.m["ops_per_s"], o.m["cpu_ms_per_op"] = s.p50ms, s.perSec, s.cpuMsPerOp
	o.m["node_storage_fraction"], _ = f.cluster.checkStorage(o, f.blocks, f.sc.replication)
	logf("%s: %d block reads, %d proof reads measured; p99 %.3f ms, proof p50 %.3f ms", cfg.workload, s.n, s.nAux, s.p99ms, s.auxP50ms)
	logRaw(cfg.workload, samples, wins)
	return nil
}

// traceReads is the traced run: one set-up, then untraced and traced
// slices alternating on the same fixture for two thirds of --seconds, so
// that warming and drift of the machine fall on both alike. It fills in
// the workload-derived layer metrics and returns the spans.
func traceReads(cfg runConfig, o *outcome) ([]span, error) {
	p := readWorkload(cfg)
	t := newTracer()
	f, err := newReadFixture(cfg.sc, cfg.seed, p.cacheBytes, t)
	if err != nil {
		return nil, err
	}
	defer f.close()
	f.warm(o, p.warmAll)
	const slices = 6
	var plain, traced, p99s, auxs []float64
	var reads int
	moved := make(map[string]float64)
	for k := 0; k < slices; k++ {
		on := k%2 == 1
		before := f.reg.Snapshot()
		t.enable(on)
		samples, wins, err := f.phase(o, t, cfg.seed+uint64(k), p.zipfS, cfg.measured()*2/3/slices, 5)
		t.enable(false)
		if err != nil {
			return nil, err
		}
		sum := summarize(samples, wins)
		if !on {
			plain, p99s, auxs = append(plain, sum.perSec), append(p99s, sum.p99ms), append(auxs, sum.auxP50ms)
			continue
		}
		traced = append(traced, sum.perSec)
		reads += len(samples)
		for name, v := range f.reg.Snapshot() {
			moved[name] += v - before[name]
		}
	}
	gatewayLayer(o.m, moved, reads)
	o.m["bench.trace_overhead_pct"] = overheadPct(median(plain), median(traced))
	o.m["tail.op_p99_ms"], o.m["tail.aux_p50_ms"] = median(p99s), median(auxs)
	_, o.m["storage.stored_bytes_per_user_byte"] = f.cluster.checkStorage(o, f.blocks, f.sc.replication)
	o.m["netx.server.conn_errors"] = float64(f.cluster.connErrors())
	spans := t.snapshot()
	traceShares(o.m, "trace.read.", spans, map[string]string{
		"client.get_block":     "client_self_pct",
		"client.get_tx_proof":  "client_self_pct",
		"upstream.header":      "header_pct",
		"upstream.parts":       "parts_pct",
		"upstream.owners":      "owners_pct",
		"upstream.fetch_batch": "fetch_batch_pct",
		"upstream.tx_proof":    "tx_proof_pct",
		"upstream.refresh":     "refresh_pct",
	})
	return spans, nil
}

// overheadPct is how much slower the traced phase ran than the untraced
// one, as a percentage of the untraced rate.
func overheadPct(plainPerSec, tracedPerSec float64) float64 {
	if plainPerSec == 0 {
		return 0
	}
	return (plainPerSec - tracedPerSec) / plainPerSec * 100
}

// traceShares reports each span name's self time as a percentage of the
// traced end-to-end time, under prefix+names[span name].
func traceShares(m map[string]float64, prefix string, spans []span, names map[string]string) {
	byName, total := selfTimes(spans)
	m["trace.spans"] = float64(len(spans))
	if total == 0 {
		return
	}
	for name, d := range byName {
		if metric, ok := names[name]; ok {
			m[prefix+metric] += float64(d) / float64(total) * 100
		}
	}
}
