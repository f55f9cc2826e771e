package experiments

import (
	"fmt"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/core"
	"icistrategy/internal/metrics"
	"icistrategy/internal/simnet"
)

// churnVariants are the three membership-churn schedules E16 sweeps. Each
// stresses a different path through the epoch machinery:
//
//   - graceful: one member cycles leave/rejoin `rate` times with block
//     production interleaved, so every epoch writes history under a
//     different part count. Availability must hold at 100% — handoff and
//     epoch-aware bootstrap are the only movers, repair never runs.
//   - flash-crowd: `rate` brand-new members join in one burst, blocks are
//     written under the grown membership, then the whole crowd departs
//     gracefully again. Availability must also hold at 100%.
//   - correlated: `rate` members crash simultaneously (no handoff) and one
//     repair pass restores what replication allows. Once the crash count
//     reaches the replication factor, chunks whose owners all died are
//     gone — the lost column is the point of the variant.
var churnVariants = []string{"graceful", "flash-crowd", "correlated"}

// churnResult is one measured churn run: a row of E16 plus RetrieveOK,
// which the table does not print and TestE16GracefulChurnGate checks.
type churnResult struct {
	Epochs         int
	PreChurnAvail  float64
	AllAvail       float64
	RetrieveOK     bool
	MovedChunks    int64
	MaxEpochMoved  int64
	EpochMoveBound int64
	HandoffKB      float64
	LostChunks     int64
}

// runChurn executes one (variant, rate) cell on a fresh single-cluster
// system with a private counter registry, so movement deltas are this
// run's alone even when the suite shares a registry elsewhere.
func runChurn(p Params, variant string, rate int) (churnResult, error) {
	var res churnResult
	reg := metrics.NewRegistry()
	sys, err := core.NewSystem(core.Config{
		Nodes:       p.ChurnClusterSize,
		Clusters:    1,
		Replication: p.ChurnReplication,
		Seed:        p.Seed + uint64(rate)*131 + uint64(len(variant))*7,
		Tracer:      p.Tracer,
		Registry:    reg,
	})
	if err != nil {
		return res, err
	}
	gen, err := p.protoGen()
	if err != nil {
		return res, err
	}

	var blocks []blockcrypto.Hash
	produce := func(n int) error {
		for i := 0; i < n; i++ {
			b, perr := sys.ProduceBlock(gen.NextTxs(p.ProtoTxPerBlock))
			if perr != nil {
				return perr
			}
			sys.Network().RunUntilIdle()
			blocks = append(blocks, b.Hash())
		}
		return nil
	}
	// moved counts every chunk transfer the churn machinery performs:
	// graceful handoff pushes, bootstrap fetches of joiners/rejoiners, and
	// repair refetches after crashes.
	moved := func() int64 {
		return reg.Counter("ici.handoff.chunks").Value() +
			reg.Counter("ici.bootstrap.chunk_fetches").Value() +
			reg.Counter("ici.repair.chunk_fetches").Value()
	}
	step := func(before int64) {
		if d := moved() - before; d > res.MaxEpochMoved {
			res.MaxEpochMoved = d
		}
	}

	pre := p.ChurnBlocks / 2
	if pre < 1 {
		pre = 1
	}
	rest := p.ChurnBlocks - pre
	if err := produce(pre); err != nil {
		return res, err
	}
	preHashes := append([]blockcrypto.Hash(nil), blocks...)

	// The incremental-re-clustering bound: rendezvous placement moves about
	// one member's share per membership event, so a single epoch may move at
	// most a few shares (3x slack absorbs placement skew at small scale).
	// Burst variants fold `rate` events into one measured step.
	members, err := sys.ClusterMembers(0)
	if err != nil {
		return res, err
	}
	var total int64
	for _, id := range members {
		n, nerr := sys.Node(id)
		if nerr != nil {
			return res, nerr
		}
		total += n.Store().Stats().ChunkCount
	}
	share := (total + int64(len(members)) - 1) / int64(len(members))
	res.EpochMoveBound = 3 * share
	if variant != "graceful" {
		res.EpochMoveBound *= int64(rate)
	}

	switch variant {
	case "graceful":
		victim := members[len(members)-1]
		seg := rest / (2 * rate)
		if seg < 1 {
			seg = 1
		}
		for e := 0; e < rate; e++ {
			before := moved()
			fired, lerr := false, error(nil)
			if err := sys.LeaveCluster(victim, func(_ int, herr error) { fired, lerr = true, herr }); err != nil {
				return res, err
			}
			sys.Network().RunUntilIdle()
			if !fired || lerr != nil {
				return res, fmt.Errorf("experiments: churn leave (fired=%v): %w", fired, lerr)
			}
			step(before)
			if err := produce(seg); err != nil {
				return res, err
			}
			before = moved()
			fired = false
			if err := sys.RejoinCluster(victim, func(herr error) { fired, lerr = true, herr }); err != nil {
				return res, err
			}
			sys.Network().RunUntilIdle()
			if !fired || lerr != nil {
				return res, fmt.Errorf("experiments: churn rejoin (fired=%v): %w", fired, lerr)
			}
			step(before)
			if err := produce(seg); err != nil {
				return res, err
			}
		}

	case "flash-crowd":
		type joinRes struct {
			id    simnet.NodeID
			err   error
			fired bool
		}
		joins := make([]*joinRes, rate)
		before := moved()
		for e := 0; e < rate; e++ {
			jr := &joinRes{}
			joins[e] = jr
			if err := sys.JoinCluster(0, func(id simnet.NodeID, jerr error) {
				jr.id, jr.err, jr.fired = id, jerr, true
			}); err != nil {
				return res, err
			}
		}
		sys.Network().RunUntilIdle()
		for _, jr := range joins {
			if !jr.fired || jr.err != nil {
				return res, fmt.Errorf("experiments: churn join (fired=%v): %w", jr.fired, jr.err)
			}
		}
		step(before)
		if err := produce(rest / 2); err != nil {
			return res, err
		}
		before = moved()
		for _, jr := range joins {
			fired, lerr := false, error(nil)
			if err := sys.LeaveCluster(jr.id, func(_ int, herr error) { fired, lerr = true, herr }); err != nil {
				return res, err
			}
			sys.Network().RunUntilIdle()
			if !fired || lerr != nil {
				return res, fmt.Errorf("experiments: churn crowd leave (fired=%v): %w", fired, lerr)
			}
		}
		step(before)
		if err := produce(rest - rest/2); err != nil {
			return res, err
		}

	case "correlated":
		k := rate
		if max := len(members) - p.ChurnReplication; k > max {
			k = max
		}
		for i := 0; i < k; i++ {
			if err := sys.RemoveNode(members[1+i]); err != nil {
				return res, err
			}
		}
		before := moved()
		lost := -1
		if err := sys.RepairCluster(0, func(l int) { lost = l }); err != nil {
			return res, err
		}
		sys.Network().RunUntilIdle()
		step(before)
		res.LostChunks = int64(lost)
		if err := produce(rest); err != nil {
			return res, err
		}

	default:
		return res, fmt.Errorf("experiments: unknown churn variant %q", variant)
	}

	res.MovedChunks = moved()
	res.HandoffKB = kb(float64(reg.Counter("ici.handoff.bytes").Value()))
	if res.Epochs, err = sys.ClusterEpoch(0); err != nil {
		return res, err
	}

	avail := func(hashes []blockcrypto.Hash) float64 {
		if len(hashes) == 0 {
			return 1
		}
		held := 0
		for _, h := range hashes {
			if sys.ClusterHoldsBlock(0, h) == nil {
				held++
			}
		}
		return float64(held) / float64(len(hashes))
	}
	res.PreChurnAvail = avail(preHashes)
	res.AllAvail = avail(blocks)

	// End-to-end check on the oldest block: a surviving member must be able
	// to reassemble it through the read path, not just hold its chunks.
	cur, err := sys.ClusterMembers(0)
	if err != nil {
		return res, err
	}
	reader, err := sys.Node(cur[0])
	if err != nil {
		return res, err
	}
	reader.RetrieveBlock(blocks[0], func(b *chain.Block, rerr error) {
		res.RetrieveOK = rerr == nil && b != nil
	})
	sys.Network().RunUntilIdle()
	return res, nil
}

// E16ChurnAvailability is an extension experiment: availability and repair
// bandwidth as a function of churn rate, under graceful departures,
// flash-crowd join/leave bursts, and correlated crashes. Graceful churn
// holds availability at 1.0 with bounded per-epoch movement; correlated
// crashes show where replication runs out.
func E16ChurnAvailability(p Params) (*metrics.Table, error) {
	tbl := metrics.NewTable(
		fmt.Sprintf("E16 (extension): availability and repair bandwidth under churn (cluster %d, r=%d, %d blocks)",
			p.ChurnClusterSize, p.ChurnReplication, p.ChurnBlocks),
		"variant", "rate", "epochs", "pre_avail", "all_avail", "moved_chunks",
		"max_epoch_moved", "epoch_bound", "handoff_KB", "lost_chunks")
	for _, variant := range churnVariants {
		for _, rate := range p.ChurnRates {
			r, err := runChurn(p, variant, rate)
			if err != nil {
				return nil, fmt.Errorf("experiments: churn %s rate %d: %w", variant, rate, err)
			}
			tbl.AddRow(variant, rate, r.Epochs, r.PreChurnAvail, r.AllAvail,
				r.MovedChunks, r.MaxEpochMoved, r.EpochMoveBound, r.HandoffKB, r.LostChunks)
		}
	}
	return tbl, nil
}
