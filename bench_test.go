// Package icistrategy's root benchmark harness: one testing.B per
// simulator experiment (E1-E12 and E16, see EXPERIMENTS.md). Benchmarks
// run the Quick configuration so `go test -bench=.` completes in seconds;
// pass -paperscale to run the full reconstructed paper configuration
// (n=4096, 1 MiB blocks — minutes, matches cmd/icibench's default output).
package icistrategy

import (
	"flag"
	"testing"

	"icistrategy/internal/experiments"
)

var paperScale = flag.Bool("paperscale", false, "run benchmarks at the full paper configuration")

func params() experiments.Params {
	if *paperScale {
		return experiments.Defaults()
	}
	return experiments.Quick()
}

// benchExperiment runs one experiment per iteration and fails the benchmark
// on any error or empty table.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	p := params()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl, err := e.Run(p)
		if err != nil {
			b.Fatal(err)
		}
		if tbl.NumRows() == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkE1StorageVsChainLength(b *testing.B)  { benchExperiment(b, "E1") }
func BenchmarkE2StorageVsNetworkSize(b *testing.B)  { benchExperiment(b, "E2") }
func BenchmarkE3StorageSummary(b *testing.B)        { benchExperiment(b, "E3") }
func BenchmarkE4CommunicationOverhead(b *testing.B) { benchExperiment(b, "E4") }
func BenchmarkE5BootstrapCost(b *testing.B)         { benchExperiment(b, "E5") }
func BenchmarkE6VerificationLatency(b *testing.B)   { benchExperiment(b, "E6") }
func BenchmarkE7Availability(b *testing.B)          { benchExperiment(b, "E7") }
func BenchmarkE8BootstrapSavings(b *testing.B)      { benchExperiment(b, "E8") }
func BenchmarkE9Throughput(b *testing.B)            { benchExperiment(b, "E9") }
func BenchmarkE10ClusteringAblation(b *testing.B)   { benchExperiment(b, "E10") }
func BenchmarkE11ArchivalTradeoff(b *testing.B)     { benchExperiment(b, "E11") }
func BenchmarkE12RepairCost(b *testing.B)           { benchExperiment(b, "E12") }
func BenchmarkE16ChurnAvailability(b *testing.B)    { benchExperiment(b, "E16") }
