package experiments

import "icistrategy/internal/metrics"

// Experiment names one regenerable paper artifact.
type Experiment struct {
	// ID is the experiment identifier used in DESIGN.md and EXPERIMENTS.md.
	// IDs are stable names with gaps (no E13, no E15), never renumbered.
	ID string
	// Name is a short human-readable description.
	Name string
	// Run executes the experiment and returns its table.
	Run func(Params) (*metrics.Table, error)
}

// All returns every experiment in the suite, in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Name: "per-node storage vs chain length", Run: E1StorageVsChainLength},
		{ID: "E2", Name: "per-node storage vs network size", Run: E2StorageVsNetworkSize},
		{ID: "E3", Name: "storage summary (25% headline)", Run: E3StorageSummary},
		{ID: "E4", Name: "communication overhead per block", Run: E4CommunicationOverhead},
		{ID: "E5", Name: "bootstrap cost vs chain length", Run: E5BootstrapCost},
		{ID: "E6", Name: "collaborative verification latency", Run: E6VerificationLatency},
		{ID: "E7", Name: "availability under node failures", Run: E7Availability},
		{ID: "E8", Name: "bootstrap savings ratios", Run: E8BootstrapSavings},
		{ID: "E9", Name: "throughput vs cluster count", Run: E9Throughput},
		{ID: "E10", Name: "clustering method ablation", Run: E10ClusteringAblation},
		{ID: "E11", Name: "coded archival tradeoff (extension)", Run: E11ArchivalTradeoff},
		{ID: "E12", Name: "repair cost after departure (extension)", Run: E12RepairCost},
		{ID: "E14", Name: "per-phase trace breakdown (extension)", Run: E14TraceBreakdown},
		{ID: "E16", Name: "availability and repair bandwidth under churn (extension)", Run: E16ChurnAvailability},
	}
}

// ByID returns the experiment with the given ID, or false.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
