package analyzers_test

import (
	"testing"

	"icistrategy/internal/analysis/analysistest"
	"icistrategy/internal/analysis/analyzers"
)

// The counter fixture reproduces the PR-3 metrics.Counter race (atomic
// writes, plain reads) and the post-migration variant (atomic.Int64
// assigned wholesale).
func TestAtomicMix(t *testing.T) {
	analysistest.Run(t, "testdata", analyzers.AtomicMix, "counter")
}
