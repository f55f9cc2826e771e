// Package experiments regenerates every table and figure of the paper's
// evaluation (as reconstructed in DESIGN.md): storage scaling, the 25 %
// RapidChain comparison, communication overhead, bootstrap cost,
// verification latency, availability under failures, throughput, and the
// clustering-method ablation. Each experiment returns a metrics.Table whose
// rows are the series the paper plots; cmd/icibench prints and saves them,
// and bench_test.go wraps each in a testing.B benchmark.
package experiments

import (
	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/cluster"
	"icistrategy/internal/core"
	"icistrategy/internal/metrics"
	"icistrategy/internal/simnet"
	"icistrategy/internal/trace"
	"icistrategy/internal/workload"
)

// Params carries the shared configuration of the experiment suite. Zero
// value is not useful; start from Defaults().
type Params struct {
	// Seed drives every random decision in every experiment.
	Seed uint64

	// Storage-model scale (E1-E3, E5, E8) — paper-scale, analytic layer.
	Nodes         int   // network size n
	ClusterSize   int   // ICI cluster size c
	CommitteeSize int   // RapidChain committee size
	Replication   int   // ICI replication factor r
	BlockBody     int64 // block body bytes
	MaxBlocks     int   // chain length for the deepest point

	// Protocol scale (E4, E6, E9, E10) — full message simulation.
	ProtoTxPerBlock   int   // transactions per block in protocol runs
	ProtoPayload      int   // payload bytes per transaction
	ProtoBlocks       int   // blocks per protocol measurement
	ProtoNetworkSizes []int // network sizes for the communication sweep
	ProtoClusterSize  int   // ICI cluster size in protocol runs
	ProtoCommittee    int   // RapidChain committee size in protocol runs
	ProtoClusterSizes []int // cluster sizes for the latency sweep (E6)
	ProtoClusterCount []int // cluster counts for the throughput sweep (E9)

	// Availability (E7).
	AvailTrials int // Monte-Carlo trials per point

	// Churn (E16) — epoch-versioned membership under node churn.
	ChurnClusterSize int   // members in the churned cluster
	ChurnReplication int   // chunk replication under churn
	ChurnBlocks      int   // blocks produced across a churn run
	ChurnRates       []int // churn events per run (sweep)

	// Tracer, when non-nil, is threaded into every protocol-scale system the
	// suite builds, so a whole icibench run can be traced end to end (E14
	// always records into its own private recorder regardless).
	Tracer *trace.Tracer
	// Registry, when non-nil, accumulates the protocol counters of every
	// protocol-scale system across the suite.
	Registry *metrics.Registry
}

// Defaults returns the reconstructed paper configuration: n = 4096 nodes,
// ICI clusters of 64, RapidChain committees of 256 (the RapidChain paper's
// own committee size, rounded to a power of two), 1 MiB blocks.
func Defaults() Params {
	return Params{
		Seed:              42,
		Nodes:             4096,
		ClusterSize:       64,
		CommitteeSize:     256,
		Replication:       1,
		BlockBody:         1 << 20,
		MaxBlocks:         512,
		ProtoTxPerBlock:   512,
		ProtoPayload:      40,
		ProtoBlocks:       5,
		ProtoNetworkSizes: []int{64, 128, 256},
		ProtoClusterSize:  16,
		ProtoCommittee:    32,
		ProtoClusterSizes: []int{4, 8, 16, 32, 64},
		ProtoClusterCount: []int{2, 4, 8, 16},
		AvailTrials:       300,

		ChurnClusterSize: 12,
		ChurnReplication: 2,
		ChurnBlocks:      24,
		ChurnRates:       []int{1, 2, 4},
	}
}

// Quick returns a configuration small enough for unit tests and -short
// benchmark runs while keeping every structural relationship (cluster size
// divides node count, committee size a multiple of cluster size).
func Quick() Params {
	return Params{
		Seed:              42,
		Nodes:             256,
		ClusterSize:       16,
		CommitteeSize:     64,
		Replication:       1,
		BlockBody:         1 << 16,
		MaxBlocks:         32,
		ProtoTxPerBlock:   64,
		ProtoPayload:      16,
		ProtoBlocks:       2,
		ProtoNetworkSizes: []int{32, 64},
		ProtoClusterSize:  8,
		ProtoCommittee:    16,
		ProtoClusterSizes: []int{4, 8, 16},
		ProtoClusterCount: []int{2, 4},
		AvailTrials:       50,

		ChurnClusterSize: 8,
		ChurnReplication: 2,
		ChurnBlocks:      10,
		ChurnRates:       []int{1, 2},
	}
}

// observe threads the suite-wide tracer and registry (if any) into one
// protocol-scale system configuration.
func (p Params) observe(cfg core.Config) core.Config {
	cfg.Tracer = p.Tracer
	cfg.Registry = p.Registry
	return cfg
}

// protoGen builds the transaction generator every protocol-scale experiment
// shares: 64 accounts, the configured payload size, the suite seed.
func (p Params) protoGen() (*workload.Generator, error) {
	return workload.NewGenerator(workload.Config{Accounts: 64, PayloadBytes: p.ProtoPayload, Seed: p.Seed})
}

// assignments builds the ICI cluster partition and RapidChain committee
// partition for a network of n nodes.
func (p Params) assignments(n int) (ici, committees *cluster.Assignment, err error) {
	rng := blockcrypto.NewRNG(p.Seed)
	coords := simnet.RandomCoords(n, 60, rng.Fork("coords"))
	ici, err = cluster.Partition(cluster.BalancedKMeans, coords, n/p.ClusterSize, rng.Fork("ici"))
	if err != nil {
		return nil, nil, err
	}
	committees, err = cluster.Partition(cluster.BalancedKMeans, coords, n/p.CommitteeSize, rng.Fork("committee"))
	if err != nil {
		return nil, nil, err
	}
	return ici, committees, nil
}
