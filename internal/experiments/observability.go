package experiments

import (
	"errors"
	"fmt"

	"icistrategy/internal/chain"
	"icistrategy/internal/core"
	"icistrategy/internal/metrics"
	"icistrategy/internal/simnet"
	"icistrategy/internal/trace"
)

// E14TraceBreakdown runs one fully traced protocol scenario — block
// distribution and verification, a full-block retrieval, a node join with
// bootstrap, an ownership repair, and a coded archival with read-back — and
// reports the per-phase span counts, wire traffic, and latency distilled
// from the trace recorder. It is the observability layer's own regenerable
// artifact: the same breakdown cmd/icibench prints live with -trace.
func E14TraceBreakdown(p Params) (*metrics.Table, error) {
	if len(p.ProtoNetworkSizes) == 0 {
		return nil, errors.New("experiments: ProtoNetworkSizes is empty")
	}
	n := p.ProtoNetworkSizes[0]
	clusters := n / p.ProtoClusterSize
	if clusters < 2 {
		clusters = 2
	}
	ring := trace.NewRing(1 << 18)
	tr := trace.New(ring)
	reg := metrics.NewRegistry()
	sys, err := core.NewSystem(core.Config{
		Nodes:       n,
		Clusters:    clusters,
		Replication: p.Replication,
		Seed:        p.Seed,
		Tracer:      tr,
		Registry:    reg,
	})
	if err != nil {
		return nil, err
	}
	gen, err := p.protoGen()
	if err != nil {
		return nil, err
	}

	blocks := make([]*chain.Block, 0, p.ProtoBlocks)
	for i := 0; i < p.ProtoBlocks; i++ {
		b, err := sys.ProduceBlock(gen.NextTxs(p.ProtoTxPerBlock))
		if err != nil {
			return nil, err
		}
		sys.Network().RunUntilIdle()
		blocks = append(blocks, b)
	}

	members, err := sys.ClusterMembers(0)
	if err != nil {
		return nil, err
	}
	reader, err := sys.Node(members[0])
	if err != nil {
		return nil, err
	}
	var retErr error
	reader.RetrieveBlock(blocks[0].Hash(), func(_ *chain.Block, err error) { retErr = err })
	sys.Network().RunUntilIdle()
	if retErr != nil {
		return nil, fmt.Errorf("traced retrieve: %w", retErr)
	}

	var joinErr error
	if err := sys.JoinCluster(0, func(_ simnet.NodeID, err error) { joinErr = err }); err != nil {
		return nil, err
	}
	sys.Network().RunUntilIdle()
	if joinErr != nil {
		return nil, fmt.Errorf("traced join: %w", joinErr)
	}
	if err := sys.RepairCluster(0, func(int) {}); err != nil {
		return nil, err
	}
	sys.Network().RunUntilIdle()

	var archErr error
	if err := sys.ArchiveBlock(1, blocks[len(blocks)-1].Hash(), 1, func(err error) { archErr = err }); err != nil {
		return nil, err
	}
	sys.Network().RunUntilIdle()
	if archErr != nil {
		return nil, fmt.Errorf("traced archive: %w", archErr)
	}
	members1, err := sys.ClusterMembers(1)
	if err != nil {
		return nil, err
	}
	codedReader, err := sys.Node(members1[0])
	if err != nil {
		return nil, err
	}
	codedReader.RetrieveBlock(blocks[len(blocks)-1].Hash(), func(_ *chain.Block, err error) { retErr = err })
	sys.Network().RunUntilIdle()
	if retErr != nil {
		return nil, fmt.Errorf("traced coded retrieve: %w", retErr)
	}

	tbl := TraceSummaryTable(
		fmt.Sprintf("E14: per-phase trace breakdown (n=%d, %d clusters, %d blocks)", n, clusters, p.ProtoBlocks),
		ring.Events())
	if tbl.NumRows() == 0 {
		return nil, errors.New("experiments: traced run recorded no events")
	}
	return tbl, nil
}

// TraceSummaryTable renders trace events as the per-phase breakdown table
// the E-series (and cmd flags) print: one row per protocol, with span and
// wire counts, byte volumes, and span latency.
func TraceSummaryTable(title string, events []trace.Event) *metrics.Table {
	tbl := metrics.NewTable(title,
		"phase", "spans", "points", "errs", "wire_msgs", "wire_KB", "payload_KB", "mean_ms", "max_ms")
	for _, ps := range trace.Summarize(events) {
		tbl.AddRow(ps.Proto, ps.Spans, ps.Points, ps.Errs, ps.WireMsgs,
			kb(float64(ps.WireBytes)), kb(float64(ps.Bytes)),
			float64(ps.MeanLatency.Microseconds())/1000,
			float64(ps.MaxLatency.Microseconds())/1000)
	}
	return tbl
}
