package main

import (
	"fmt"
	"time"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/core"
	"icistrategy/internal/simnet"
	"icistrategy/internal/workload"
)

// sim-lifecycle bypasses netx and gateway entirely: rounds of a fresh
// core.System on the discrete-event simulator, each producing blocks
// through collaborative verification, retrieving every block once per
// cluster, joining one node per cluster, repairing after one removal and
// archiving one block per cluster with Reed-Solomon parity. Rounds repeat
// until --seconds have passed. The primary operation is one block produced
// and committed network-wide; the secondary one a join with its bootstrap.

// simRound is what one round measured.
type simRound struct {
	setup     float64 // seconds, at reference speed when the run has a refTimer
	win       window
	samples   []sample
	events    int   // simulator events executed while producing blocks
	msgs      int64 // messages sent while producing blocks
	wireBytes int64 // bytes sent while producing blocks
	votes     float64
	joinBytes int64 // bytes the joiners received
	joins     int
	fraction  float64 // mean per-node stored bytes ÷ full-chain bytes, after production
	stored    float64 // Σ stored bytes ÷ Σ body bytes, after production
}

// runSimRound builds a System from seed and walks it through the whole
// lifecycle. phaseStart is when the measured phase began, so that samples
// of different rounds share one time base. With a refTimer, whose latest
// reading the caller has just taken, the round's set-up and its window
// carry the machine's slowdown while they ran.
func runSimRound(sc scale, seed uint64, phaseStart time.Time, t *tracer, rt *refTimer, o *outcome) (*simRound, error) {
	r := &simRound{}
	root := t.begin("sim.round", 0, 0)
	defer root.end()
	step := func(name string) open { return t.begin(name, root.sp.ID, root.sp.Req) }

	// Set-up: the network (keys, placement in latency space, clustering)
	// and the round's signed transactions.
	sp := step("core.new_system")
	t0 := time.Now()
	sys, err := core.NewSystem(core.Config{Nodes: sc.simNodes, Clusters: sc.simClusters, Replication: sc.replication, Seed: seed})
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewGenerator(workload.Config{Accounts: 64, PayloadBytes: sc.payload, Seed: seed})
	if err != nil {
		return nil, err
	}
	txs := make([][]*chain.Transaction, sc.simBlocks)
	for i := range txs {
		txs[i] = gen.NextTxs(sc.simTx)
	}
	r.setup = time.Since(t0).Seconds()
	sp.end()
	if rt != nil {
		slow, err := rt.since(mixSigning)
		if err != nil {
			return nil, err
		}
		r.setup /= slow
	}

	r.win.start = time.Since(phaseStart)
	cpu0 := cpuTime()
	net := sys.Network()

	// Produce: distribution, chunk verification, votes, commit certificate.
	var blocks []*chain.Block
	for i := range txs {
		sp = step("core.produce")
		at, t0 := time.Since(phaseStart), time.Now()
		b, err := sys.ProduceBlock(txs[i])
		if err != nil {
			return nil, fmt.Errorf("produce block %d: %w", i, err)
		}
		r.events += net.RunUntilIdle()
		r.samples = append(r.samples, sample{at: at, dur: time.Since(t0)})
		sp.end()
		blocks = append(blocks, b)
		// The paper's invariant: every node committed, and every cluster
		// can reconstruct the block from what its members hold.
		o.check(sys.AllCommitted(b.Hash()), "block %d not committed by every node", i)
		for c := 0; c < sys.NumClusters(); c++ {
			err := sys.ClusterHoldsBlock(c, b.Hash())
			o.check(err == nil, "cluster %d does not hold block %d: %v", c, i, err)
		}
	}
	traffic := net.TotalTraffic()
	r.msgs, r.wireBytes = traffic.MsgsSent, traffic.BytesSent
	r.votes = sys.Registry().Snapshot()["consensus.votes"]
	var stored int64
	nodes := 0
	for c := 0; c < sys.NumClusters(); c++ {
		members, err := sys.ClusterMembers(c)
		if err != nil {
			return nil, err
		}
		for _, id := range members {
			st, err := sys.NodeStorage(id)
			if err != nil {
				return nil, err
			}
			stored += st.TotalBytes()
			nodes++
		}
	}
	total, body := chainBytes(blocks)
	r.fraction = float64(stored) / float64(nodes) / float64(total)
	r.stored = float64(stored) / float64(body)

	// Retrieve every block once per cluster, from the cluster's first member.
	sp = step("core.retrieve")
	for c := 0; c < sys.NumClusters(); c++ {
		for _, b := range blocks {
			if err := simRead(sys, c, b.Hash(), o, "retrieve"); err != nil {
				return nil, err
			}
		}
	}
	sp.end()

	// Join one node per cluster; each bootstraps headers and its chunks.
	for c := 0; c < sys.NumClusters(); c++ {
		sp = step("core.join")
		at, t0 := time.Since(phaseStart), time.Now()
		var joined simnet.NodeID
		var joinErr error = fmt.Errorf("callback never fired")
		if err := sys.JoinCluster(c, func(id simnet.NodeID, err error) { joined, joinErr = id, err }); err != nil {
			return nil, err
		}
		net.RunUntilIdle()
		r.samples = append(r.samples, sample{at: at, dur: time.Since(t0), aux: true})
		sp.end()
		o.check(joinErr == nil, "join cluster %d: %v", c, joinErr)
		if joinErr == nil {
			tr, err := net.Traffic(joined)
			if err != nil {
				return nil, err
			}
			r.joinBytes += tr.BytesRecv
			r.joins++
		}
	}

	// Remove one member of cluster 0 and repair; the invariant must hold
	// again for every block.
	sp = step("core.repair")
	members, err := sys.ClusterMembers(0)
	if err != nil {
		return nil, err
	}
	if err := sys.RemoveNode(members[len(members)/2]); err != nil {
		return nil, err
	}
	lost := -1
	if err := sys.RepairCluster(0, func(l int) { lost = l }); err != nil {
		return nil, err
	}
	net.RunUntilIdle()
	sp.end()
	o.check(lost == 0, "repair of cluster 0 lost %d chunks", lost)
	for i, b := range blocks {
		err := sys.ClusterHoldsBlock(0, b.Hash())
		o.check(err == nil, "cluster 0 does not hold block %d after repair: %v", i, err)
	}

	// Archive the oldest block in every cluster and read it back coded.
	sp = step("core.archive")
	for c := 0; c < sys.NumClusters(); c++ {
		var archErr error = fmt.Errorf("callback never fired")
		if err := sys.ArchiveBlock(c, blocks[0].Hash(), sc.simParity, func(err error) { archErr = err }); err != nil {
			return nil, err
		}
		net.RunUntilIdle()
		o.check(archErr == nil, "archive block 0 in cluster %d: %v", c, archErr)
		if err := simRead(sys, c, blocks[0].Hash(), o, "read archived"); err != nil {
			return nil, err
		}
	}
	sp.end()

	r.win.end = time.Since(phaseStart)
	r.win.cpu = cpuTime() - cpu0
	if rt != nil {
		if r.win.slow, err = rt.since(mixSim); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// simRead retrieves a block through the first live member of cluster c, in
// whichever storage mode the cluster keeps it, and checks the hash.
func simRead(sys *core.System, c int, hash blockcrypto.Hash, o *outcome, what string) error {
	members, err := sys.ClusterMembers(c)
	if err != nil {
		return err
	}
	reader := members[0]
	for _, m := range members {
		if !sys.Network().IsDown(m) {
			reader = m
			break
		}
	}
	node, err := sys.Node(reader)
	if err != nil {
		return err
	}
	var got *chain.Block
	var readErr error = fmt.Errorf("callback never fired")
	node.RetrieveBlockAuto(sys.Network(), hash, func(b *chain.Block, err error) { got, readErr = b, err })
	sys.Network().RunUntilIdle()
	o.check(readErr == nil && got != nil && got.Hash() == hash, "%s %s in cluster %d: %v", what, hash.Short(), c, readErr)
	return nil
}

// simRounds runs rounds on seeds seed, seed+1, ... until d has passed, at
// least two. With a tracer, odd rounds are traced and even ones are not.
func simRounds(cfg runConfig, d time.Duration, t *tracer, rt *refTimer, o *outcome) ([]*simRound, error) {
	var rounds []*simRound
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < d; i++ {
		t.enable(i%2 == 1)
		r, err := runSimRound(cfg.sc, cfg.seed+uint64(i), start, t, rt, o)
		t.enable(false)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
	}
	return rounds, nil
}

// simSummary reduces rounds to a summary with one window per round.
func simSummary(rounds []*simRound) (summary, []float64) {
	var samples []sample
	var wins []window
	var setups []float64
	for _, r := range rounds {
		samples = append(samples, r.samples...)
		wins = append(wins, r.win)
		setups = append(setups, r.setup)
	}
	s := summarize(samples, wins)
	// A round's rate and CPU are per block produced, not per sample: the
	// joins ride along inside the round.
	var rates, cpus []float64
	for _, r := range rounds {
		blocks := 0
		for _, sm := range r.samples {
			if !sm.aux {
				blocks++
			}
		}
		slow := r.win.slow
		if slow == 0 {
			slow = 1
		}
		rates = append(rates, float64(blocks)/(r.win.end-r.win.start).Seconds()*slow)
		cpus = append(cpus, ms(r.win.cpu)/float64(blocks)/slow)
	}
	s.perSec, s.cpuMsPerOp = median(rates), median(cpus)
	return s, setups
}

func runSim(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	rt, err := newRefTimer(mixSigning, mixSim)
	if err != nil {
		return nil, err
	}
	rounds, err := simRounds(cfg, cfg.measured(), nil, rt, o)
	if err != nil {
		return nil, err
	}
	s, setups := simSummary(rounds)
	o.m["setup_s"] = median(setups)
	o.m["op_p50_ms"], o.m["ops_per_s"], o.m["cpu_ms_per_op"] = s.p50ms, s.perSec, s.cpuMsPerOp
	o.m["node_storage_fraction"] = rounds[0].fraction // round 0 runs on the seed itself: exact for a seed
	o.m["peak_rss_mb"] = peakRSSMB()
	logf("sim-lifecycle: %d rounds, %d blocks (p99 %.1f ms), %d joins (p50 %.3f ms) measured", len(rounds), s.n, s.p99ms, s.nAux, s.auxP50ms)
	var slows, rawRates []float64
	for _, r := range rounds {
		slows = append(slows, r.win.slow)
		rawRates = append(rawRates, float64(cfg.sc.simBlocks)/(r.win.end-r.win.start).Seconds())
	}
	logf("sim-lifecycle: as the clock read it: blocks/s per round %.4g; slowdown per round %.2f", rawRates, slows)
	rt.report(cfg.workload)
	return o, nil
}

// traceSim is the traced run: rounds for two thirds of --seconds, traced
// and untraced in turn. Round 0 runs untraced on the seed itself and
// supplies the exact counts.
func traceSim(cfg runConfig, o *outcome) ([]span, error) {
	t := newTracer()
	rounds, err := simRounds(cfg, cfg.measured()*2/3, t, nil, o)
	if err != nil {
		return nil, err
	}
	var plain, traced []*simRound
	for i, r := range rounds {
		if i%2 == 1 {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	r0 := plain[0]
	blocks := float64(cfg.sc.simBlocks)
	o.m["consensus.votes_per_block"] = r0.votes / blocks
	o.m["core.sim.events_per_block"] = float64(r0.events) / blocks
	o.m["core.sim.msgs_per_block"] = float64(r0.msgs) / blocks
	o.m["core.sim.wire_kb_per_block"] = float64(r0.wireBytes) / blocks / 1024
	if r0.joins > 0 {
		o.m["core.sim.bootstrap_kb_per_join"] = float64(r0.joinBytes) / float64(r0.joins) / 1024
	}
	o.m["storage.stored_bytes_per_user_byte"] = r0.stored
	ps, _ := simSummary(plain)
	ts, _ := simSummary(traced)
	o.m["bench.trace_overhead_pct"] = overheadPct(ps.perSec, ts.perSec)
	o.m["tail.op_p99_ms"], o.m["tail.aux_p50_ms"] = ps.p99ms, ps.auxP50ms
	spans := t.snapshot()
	traceShares(o.m, "trace.sim.", spans, map[string]string{
		"sim.round":       "round_self_pct",
		"core.new_system": "new_system_pct",
		"core.produce":    "produce_pct",
		"core.retrieve":   "retrieve_pct",
		"core.join":       "join_pct",
		"core.repair":     "repair_pct",
		"core.archive":    "archive_pct",
	})
	return spans, nil
}
