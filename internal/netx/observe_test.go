package netx

import (
	"testing"

	"icistrategy/internal/trace"
)

// TestClusterTracing drives a distribute + retrieve over real TCP with a
// tracer installed and checks that both ends record their spans: the
// cluster-level phase spans, one child span per client round-trip with real
// wire bytes, and one serve point per handled request on the servers.
func TestClusterTracing(t *testing.T) {
	ring := trace.NewRing(4096)
	tr := trace.New(ring)

	servers, addrs := startServers(t, 4)
	for _, s := range servers {
		s.SetTracer(tr)
	}
	cl, err := NewCluster(addrs, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetTracer(tr)

	b := testBlocks(t, 1, 24)[0]
	if err := cl.DistributeBlock(b); err != nil {
		t.Fatal(err)
	}
	got, err := cl.RetrieveBlock(b.Header)
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash() != b.Hash() {
		t.Fatal("retrieved block mismatch")
	}
	// A server records its serve point after the reply has left, so the
	// client can be back before the point is in the ring. Close joins every
	// connection goroutine: after it, all points are recorded.
	cl.Close()
	for _, s := range servers {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}

	events := ring.Events()
	byName := make(map[string]int)
	roots := make(map[string]trace.SpanID)
	var rpcBytes int64
	for _, e := range events {
		byName[e.Name]++
		if e.Parent == 0 && !e.Point {
			roots[e.Name] = e.ID
		}
		if e.Proto == "netx" && !e.Point {
			rpcBytes += e.Bytes
			if e.Parent == 0 {
				t.Errorf("round-trip span %q has no parent phase", e.Name)
			}
		}
	}
	if roots["distribute-block"] == 0 || roots["retrieve-block"] == 0 {
		t.Fatalf("missing phase root spans; recorded names: %v", byName)
	}
	// 4 put-header round-trips, 2 replicas × parts put-chunks, ≥1
	// get-chunk-batch.
	if byName["put-header"] != 4 {
		t.Errorf("put-header spans = %d, want 4", byName["put-header"])
	}
	if byName["put-chunk"] == 0 || byName["get-chunk-batch"] == 0 {
		t.Errorf("missing round-trip spans: %v", byName)
	}
	if rpcBytes == 0 {
		t.Error("round-trip spans carry no wire bytes")
	}
	// Server-side points mirror the client round-trips.
	if byName["serve:put-header"] != 4 || byName["serve:put-chunk"] != byName["put-chunk"] {
		t.Errorf("server points do not mirror client round-trips: %v", byName)
	}
}

// TestCachedClientDoesNotKeepAnEndedParent is the regression test for a
// traced operation leaving its parent span on the cluster's cached
// connections: a later call through the cache (CurrentMap here; maxHeight
// and transfer's source reads alike) was recorded under the
// distribute-block span that had already ended.
func TestCachedClientDoesNotKeepAnEndedParent(t *testing.T) {
	ring := trace.NewRing(4096)
	_, addrs := startServers(t, 4)
	cl, err := NewCluster(addrs, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetTracer(trace.New(ring))

	if err := cl.DistributeBlock(testBlocks(t, 1, 24)[0]); err != nil {
		t.Fatal(err)
	}
	var distribute trace.SpanID
	for _, e := range ring.Events() {
		if e.Name == "distribute-block" {
			distribute = e.ID
		}
	}
	if distribute == 0 {
		t.Fatal("no distribute-block span recorded")
	}
	cl.CurrentMap()
	for _, e := range ring.Events() {
		if e.Name == "get-cluster-map" && e.Parent == distribute {
			t.Errorf("get-cluster-map after DistributeBlock returned is recorded under its ended span %d", distribute)
		}
	}
}
