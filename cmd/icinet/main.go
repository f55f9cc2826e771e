// Command icinet runs the ICIStrategy storage layout over REAL TCP. It has
// two modes:
//
// Demo (default): starts one storage server per cluster member on
// localhost, distributes a chain of blocks with the same rendezvous
// placement the simulator uses, kills a server, and demonstrates a
// degraded, Merkle-verified read — the "it's not just a simulator" proof
// for the storage protocol.
//
// Serve (-serve, must be the first argument): runs ONE long-lived cluster
// member for the integration harness (cmd/icicontest): it binds a listen
// address, prints a readiness line on stdout, streams structured logfmt
// events on stderr, optionally re-syncs its chunks from peers at startup
// (crash recovery / joining), and shuts down gracefully on SIGTERM. See
// serve.go for the full harness contract.
//
// Usage:
//
//	icinet [-members 8] [-replication 2] [-blocks 5] [-tx 100] [-seed 42]
//	       [-listen 127.0.0.1:0] [-trace summary|tree] [-metrics FILE|-]
//	       [-pprof ADDR]
//	icinet -serve [-listen ADDR] [-members A,B,C] [-replication R]
//	       [-state DIR] [-resync auto|join|restart|none] [-chaos]
package main

import (
	"flag"
	"fmt"
	"os"

	"icistrategy/internal/chain"
	"icistrategy/internal/experiments"
	"icistrategy/internal/metrics"
	"icistrategy/internal/netx"
	"icistrategy/internal/obs"
	"icistrategy/internal/trace"
	"icistrategy/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "icinet:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) > 0 && (args[0] == "-serve" || args[0] == "--serve") {
		return runServe(args[1:])
	}
	fs := flag.NewFlagSet("icinet", flag.ContinueOnError)
	members := fs.Int("members", 8, "cluster size (one TCP server per member)")
	replication := fs.Int("replication", 2, "replication factor")
	blocks := fs.Int("blocks", 5, "blocks to distribute")
	txPerBlock := fs.Int("tx", 100, "transactions per block")
	seed := fs.Uint64("seed", 42, "workload seed")
	listen := fs.String("listen", "127.0.0.1:0", "listen address each demo server binds (port 0: ephemeral)")
	obsf := obs.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := obsf.Setup(); err != nil {
		return err
	}

	// Start one real TCP server per cluster member.
	servers := make([]*netx.Server, *members)
	addrs := make([]string, *members)
	for i := range servers {
		s, err := netx.NewServer(*listen)
		if err != nil {
			// The member index plus netx's own addr context pins down
			// WHICH of the N servers failed, not just that one did.
			return fmt.Errorf("start member %d of %d: %w", i, *members, err)
		}
		defer s.Close()
		s.SetTracer(obsf.Tracer())
		servers[i] = s
		addrs[i] = s.Addr()
	}
	fmt.Printf("started %d TCP storage servers (cluster members)\n", *members)

	cl, err := netx.NewCluster(addrs, *replication)
	if err != nil {
		return err
	}
	defer cl.Close()
	cl.SetTracer(obsf.Tracer())

	gen, err := workload.NewGenerator(workload.Config{Accounts: 200, PayloadBytes: 40, Seed: *seed})
	if err != nil {
		return err
	}
	builder, err := workload.NewChainBuilder(gen, 10_000)
	if err != nil {
		return err
	}

	var chainBlocks []*chain.Block
	var totalBody int64
	for i := 0; i < *blocks; i++ {
		b, err := builder.NextBlock(*txPerBlock)
		if err != nil {
			return err
		}
		if err := cl.DistributeBlock(b); err != nil {
			return fmt.Errorf("distribute block %d: %w", i, err)
		}
		totalBody += int64(b.BodySize())
		chainBlocks = append(chainBlocks, b)
	}
	fmt.Printf("distributed %d blocks (%s of body data) over TCP\n",
		*blocks, metrics.HumanBytes(float64(totalBody)))

	// Per-server storage: nobody holds the whole chain.
	tbl := metrics.NewTable("per-server storage", "server", "headers", "chunks", "bytes", "of chain")
	for i, s := range servers {
		st := s.Stats()
		tbl.AddRow(addrs[i], st.HeaderCount, st.ChunkCount,
			metrics.HumanBytes(float64(st.TotalBytes())),
			fmt.Sprintf("%.1f%%", 100*float64(st.ChunkBytes)/float64(totalBody)))
	}
	fmt.Println()
	fmt.Println(tbl.String())

	// Verified read of a historical block.
	target := chainBlocks[len(chainBlocks)/2]
	got, err := cl.RetrieveBlock(target.Header)
	if err != nil {
		return err
	}
	fmt.Printf("retrieved block %d over TCP: %d txs, Merkle root verified\n",
		got.Header.Height, len(got.Txs))

	// Kill one server; with r>=2 the read still completes.
	if *replication >= 2 {
		fmt.Printf("\nkilling server %s ...\n", addrs[1])
		if err := servers[1].Close(); err != nil {
			return err
		}
		got, err := cl.RetrieveBlock(target.Header)
		if err != nil {
			return fmt.Errorf("degraded read: %w", err)
		}
		fmt.Printf("degraded read OK: block %d reassembled from surviving replicas\n",
			got.Header.Height)
	}

	fmt.Println()
	return obsf.Finish(os.Stdout, func(events []trace.Event) string {
		return experiments.TraceSummaryTable("per-phase trace breakdown (TCP)", events).String()
	})
}
