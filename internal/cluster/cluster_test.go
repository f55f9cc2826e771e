package cluster

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/simnet"
)

func testCoords(n int, seed uint64) []simnet.Coord {
	return simnet.RandomCoords(n, 60, blockcrypto.NewRNG(seed))
}

func TestPartitionErrors(t *testing.T) {
	rng := blockcrypto.NewRNG(1)
	if _, err := Partition(KMeans, nil, 1, rng); err == nil {
		t.Fatal("empty node set accepted")
	}
	coords := testCoords(10, 1)
	for _, k := range []int{0, -1, 11} {
		if _, err := Partition(KMeans, coords, k, rng); err == nil {
			t.Fatalf("k=%d accepted", k)
		}
	}
	if _, err := Partition(Method(99), coords, 2, rng); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestAllMethodsProduceValidPartitions(t *testing.T) {
	methods := []Method{KMeans, BalancedKMeans, RandomPartition, HashPartition}
	sizes := []struct{ n, k int }{
		{1, 1}, {2, 2}, {10, 3}, {100, 7}, {128, 16}, {257, 8},
	}
	for _, m := range methods {
		for _, sz := range sizes {
			t.Run(fmt.Sprintf("%v/n=%d,k=%d", m, sz.n, sz.k), func(t *testing.T) {
				if sz.k > sz.n {
					t.Skip("k > n")
				}
				coords := testCoords(sz.n, 42)
				a, err := Partition(m, coords, sz.k, blockcrypto.NewRNG(7))
				if err != nil {
					t.Fatal(err)
				}
				if err := a.Validate(); err != nil {
					t.Fatalf("invalid assignment: %v", err)
				}
				if a.NumClusters() != sz.k {
					t.Fatalf("NumClusters() = %d, want %d", a.NumClusters(), sz.k)
				}
				for c := 0; c < sz.k; c++ {
					if a.Size(c) == 0 {
						t.Fatalf("cluster %d is empty", c)
					}
				}
			})
		}
	}
}

func TestBalancedKMeansBalance(t *testing.T) {
	coords := testCoords(1000, 9)
	a, err := Partition(BalancedKMeans, coords, 16, blockcrypto.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	q := Evaluate(a, coords)
	if q.SizeImbalance > 1 {
		t.Fatalf("balanced k-means imbalance = %d, want <= 1", q.SizeImbalance)
	}
}

// balancedKMeansFull is the balanced variant as it ran before it stopped at
// its cycle: all maxKMeansIterations iterations, no early exit. It is the
// reference TestBalancedKMeansStopsAtItsCycle holds the cycle exit to.
func balancedKMeansFull(coords []simnet.Coord, k int, rng *blockcrypto.RNG) *Assignment {
	centers := kmeansPlusPlusInit(coords, k, rng)
	var clusterOf []int
	for iter := 0; iter < maxKMeansIterations; iter++ {
		clusterOf = assignBalanced(coords, centers)
		centers = recomputeCenters(coords, clusterOf, k, centers)
	}
	a := buildAssignment(clusterOf, k)
	a.Centers = centers
	return a
}

// TestBalancedKMeansStopsAtItsCycle requires the balanced variant to return
// exactly what the full loop reaches — every node's cluster and every center
// to the last bit — on the simulator's shape and around it, and to get there
// in fewer iterations on the simulator's shape, where the full loop never
// settles on a fixed point.
func TestBalancedKMeansStopsAtItsCycle(t *testing.T) {
	for _, sz := range []struct{ n, k int }{{256, 16}, {256, 8}, {64, 4}, {24, 3}, {1024, 16}, {4096, 64}} {
		if raceEnabled && sz.n*sz.k > 1<<16 {
			continue
		}
		for seed := uint64(1); seed <= 4; seed++ {
			coords := testCoords(sz.n, 100+seed)
			want := balancedKMeansFull(coords, sz.k, blockcrypto.NewRNG(seed))
			got, err := Partition(BalancedKMeans, coords, sz.k, blockcrypto.NewRNG(seed))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.ClusterOf, want.ClusterOf) || !slices.Equal(got.Centers, want.Centers) {
				t.Errorf("n=%d k=%d seed %d: the cycle exit returned another partition than %d full iterations", sz.n, sz.k, seed, maxKMeansIterations)
			}
			if sz.n == 256 && sz.k == 16 {
				_, _, iters := balancedLloyd(coords, kmeansPlusPlusInit(coords, sz.k, blockcrypto.NewRNG(seed)))
				if iters >= maxKMeansIterations {
					t.Errorf("n=%d k=%d seed %d: ran all %d iterations", sz.n, sz.k, seed, iters)
				}
			}
		}
	}
}

func TestRandomPartitionBalance(t *testing.T) {
	coords := testCoords(1003, 9)
	a, err := Partition(RandomPartition, coords, 10, blockcrypto.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if q := Evaluate(a, coords); q.SizeImbalance > 1 {
		t.Fatalf("random partition imbalance = %d, want <= 1", q.SizeImbalance)
	}
}

func TestKMeansBeatsRandomOnClusteredTopology(t *testing.T) {
	// On a topology with 8 real regions, latency-aware clustering must
	// produce tighter clusters than a random partition.
	rng := blockcrypto.NewRNG(5)
	coords := simnet.ClusteredCoords(400, 8, 200, 2.0, rng)
	km, err := Partition(BalancedKMeans, coords, 8, blockcrypto.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := Partition(RandomPartition, coords, 8, blockcrypto.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	qKM, qRnd := Evaluate(km, coords), Evaluate(rnd, coords)
	if qKM.MeanIntraDistance >= qRnd.MeanIntraDistance {
		t.Fatalf("kmeans intra distance %.1f >= random %.1f", qKM.MeanIntraDistance, qRnd.MeanIntraDistance)
	}
	if qKM.Silhouette <= qRnd.Silhouette {
		t.Fatalf("kmeans silhouette %.3f <= random %.3f", qKM.Silhouette, qRnd.Silhouette)
	}
}

func TestPartitionDeterministic(t *testing.T) {
	coords := testCoords(200, 13)
	for _, m := range []Method{KMeans, BalancedKMeans, RandomPartition, HashPartition} {
		a1, err := Partition(m, coords, 5, blockcrypto.NewRNG(21))
		if err != nil {
			t.Fatal(err)
		}
		a2, err := Partition(m, coords, 5, blockcrypto.NewRNG(21))
		if err != nil {
			t.Fatal(err)
		}
		for i := range a1.ClusterOf {
			if a1.ClusterOf[i] != a2.ClusterOf[i] {
				t.Fatalf("%v: node %d assigned to %d then %d", m, i, a1.ClusterOf[i], a2.ClusterOf[i])
			}
		}
	}
}

func TestHashPartitionStableUnderReruns(t *testing.T) {
	a1 := hashPartition(100, 7)
	a2 := hashPartition(100, 7)
	for i := range a1.ClusterOf {
		if a1.ClusterOf[i] != a2.ClusterOf[i] {
			t.Fatal("hash partition not deterministic")
		}
	}
}

func TestPartitionPropertyValid(t *testing.T) {
	f := func(nRaw, kRaw uint8, seed uint64) bool {
		n := int(nRaw%200) + 1
		k := int(kRaw)%n + 1
		coords := testCoords(n, seed)
		for _, m := range []Method{KMeans, BalancedKMeans, RandomPartition, HashPartition} {
			a, err := Partition(m, coords, k, blockcrypto.NewRNG(seed))
			if err != nil {
				return false
			}
			if a.Validate() != nil {
				return false
			}
			for c := 0; c < k; c++ {
				if a.Size(c) == 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluateSingletonClusters(t *testing.T) {
	coords := testCoords(3, 1)
	a, err := Partition(RandomPartition, coords, 3, blockcrypto.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	q := Evaluate(a, coords)
	if q.MeanIntraDistance != 0 || q.MaxIntraDistance != 0 {
		t.Fatalf("singleton clusters should have zero intra distance: %+v", q)
	}
	if q.Silhouette != 0 {
		t.Fatalf("all-singleton silhouette = %v, want 0", q.Silhouette)
	}
}

func TestEvaluateSingleCluster(t *testing.T) {
	coords := testCoords(10, 2)
	a, err := Partition(RandomPartition, coords, 1, blockcrypto.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if q := Evaluate(a, coords); q.Silhouette != 0 {
		t.Fatalf("single-cluster silhouette = %v, want 0", q.Silhouette)
	}
}

func TestSilhouetteIdealSeparation(t *testing.T) {
	// Two tight, far-apart groups: silhouette should approach 1 when the
	// partition matches the groups.
	coords := make([]simnet.Coord, 0, 20)
	for i := 0; i < 10; i++ {
		coords = append(coords, simnet.Coord{X: float64(i) * 0.01, Y: 0})
	}
	for i := 0; i < 10; i++ {
		coords = append(coords, simnet.Coord{X: 1000 + float64(i)*0.01, Y: 0})
	}
	clusterOf := make([]int, 20)
	for i := 10; i < 20; i++ {
		clusterOf[i] = 1
	}
	a := buildAssignment(clusterOf, 2)
	q := Evaluate(a, coords)
	if q.Silhouette < 0.99 {
		t.Fatalf("ideal partition silhouette = %v, want ~1", q.Silhouette)
	}
}

func TestMethodString(t *testing.T) {
	for m, want := range map[Method]string{
		KMeans:          "kmeans",
		BalancedKMeans:  "balanced-kmeans",
		RandomPartition: "random",
		HashPartition:   "hash",
		Method(42):      "method(42)",
	} {
		if got := m.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", int(m), got, want)
		}
	}
}

func BenchmarkBalancedKMeans1000x16(b *testing.B) {
	coords := testCoords(1000, 17)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Partition(BalancedKMeans, coords, 16, blockcrypto.NewRNG(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
