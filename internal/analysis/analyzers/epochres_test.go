package analyzers_test

import (
	"testing"

	"icistrategy/internal/analysis/analysistest"
	"icistrategy/internal/analysis/analyzers"
)

// The epochstore fixture reproduces the PR-8 stale-placement bug: a read
// path ranking owners over a bare member slice, next to the shapes that go
// through the epoch type (and the type's own methods) and stay silent.
func TestEpochRes(t *testing.T) {
	analysistest.Run(t, "testdata", analyzers.EpochRes, "epochstore")
}
