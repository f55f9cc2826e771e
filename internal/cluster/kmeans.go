package cluster

import (
	"math"
	"slices"
	"sort"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/simnet"
)

// maxKMeansIterations bounds Lloyd iterations; k-means on a few thousand
// points converges in far fewer.
const maxKMeansIterations = 100

// kmeans runs k-means++ initialization followed by Lloyd iterations. With
// balanced=true each iteration assigns nodes to centers under a hard
// capacity of ceil(n/k), processing nodes in order of how much they prefer
// their best center (a greedy balanced k-means that keeps cluster sizes
// within one of each other).
func kmeans(coords []simnet.Coord, k int, rng *blockcrypto.RNG, balanced bool) (*Assignment, error) {
	n := len(coords)
	centers := kmeansPlusPlusInit(coords, k, rng)
	if balanced {
		clusterOf, centers, _ := balancedLloyd(coords, centers)
		a := buildAssignment(clusterOf, k)
		a.Centers = centers
		return a, nil
	}
	clusterOf := make([]int, n)
	for iter := 0; iter < maxKMeansIterations; iter++ {
		next := assignNearest(coords, centers)
		changed := false
		for i := range next {
			if next[i] != clusterOf[i] {
				changed = true
				break
			}
		}
		clusterOf = next
		centers = recomputeCenters(coords, clusterOf, k, centers)
		if !changed && iter > 0 {
			break
		}
	}
	// Unbalanced k-means can strand a center with no members; give each
	// empty cluster the point farthest from its current center so every
	// cluster is non-empty (required: each cluster must hold all data).
	for c := 0; c < k; c++ {
		if countOf(clusterOf, c) > 0 {
			continue
		}
		far, farDist := -1, -1.0
		for i := range coords {
			if countOf(clusterOf, clusterOf[i]) <= 1 {
				continue
			}
			d := coords[i].Distance(centers[clusterOf[i]])
			if d > farDist {
				far, farDist = i, d
			}
		}
		if far >= 0 {
			clusterOf[far] = c
		}
	}
	a := buildAssignment(clusterOf, k)
	a.Centers = centers
	return a, nil
}

// balancedLloyd runs the balanced variant's Lloyd iterations from centers and
// returns the assignment and centers the maxKMeansIterations-th iteration
// reaches, with the number of iterations it ran to find them. Every cluster is
// filled to its capacity (n >= k), so the centers are a function of the
// assignment and each iteration a function of the previous assignment: the
// first assignment that repeats an earlier one closes a cycle that the
// remaining iterations would only walk round, and the last one is read off
// it. On the simulator's shape the assignment cycles instead of settling, so
// a fixed-point test alone never fires.
func balancedLloyd(coords, centers []simnet.Coord) ([]int, []simnet.Coord, int) {
	k := len(centers)
	history := make([][]int, 0, maxKMeansIterations)
	seen := map[uint64][]int{} // assignment hash -> iterations that produced it
	for iter := 0; iter < maxKMeansIterations; iter++ {
		next := assignBalanced(coords, centers)
		h := hashAssignment(next)
		for _, i := range seen[h] {
			if slices.Equal(history[i], next) {
				last := history[i+(maxKMeansIterations-1-i)%(iter-i)]
				return last, recomputeCenters(coords, last, k, centers), iter + 1
			}
		}
		seen[h] = append(seen[h], iter)
		history = append(history, next)
		centers = recomputeCenters(coords, next, k, centers)
	}
	return history[len(history)-1], centers, maxKMeansIterations
}

// hashAssignment is FNV-1a over an assignment's cluster indexes.
func hashAssignment(clusterOf []int) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range clusterOf {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

func countOf(clusterOf []int, c int) int {
	n := 0
	for _, v := range clusterOf {
		if v == c {
			n++
		}
	}
	return n
}

// kmeansPlusPlusInit picks k initial centers with D² weighting.
func kmeansPlusPlusInit(coords []simnet.Coord, k int, rng *blockcrypto.RNG) []simnet.Coord {
	centers := make([]simnet.Coord, 0, k)
	centers = append(centers, coords[rng.Intn(len(coords))])
	dist2 := make([]float64, len(coords))
	for len(centers) < k {
		var total float64
		for i, c := range coords {
			d := c.Distance(centers[len(centers)-1])
			d2 := d * d
			if len(centers) == 1 || d2 < dist2[i] {
				dist2[i] = d2
			}
			total += dist2[i]
		}
		if total == 0 {
			// All remaining points coincide with centers; duplicate one.
			centers = append(centers, coords[rng.Intn(len(coords))])
			continue
		}
		target := rng.Float64() * total
		var acc float64
		pick := len(coords) - 1
		for i, d2 := range dist2 {
			acc += d2
			if acc >= target {
				pick = i
				break
			}
		}
		centers = append(centers, coords[pick])
	}
	return centers
}

func assignNearest(coords []simnet.Coord, centers []simnet.Coord) []int {
	out := make([]int, len(coords))
	for i, c := range coords {
		best, bestD := 0, math.Inf(1)
		for j, ctr := range centers {
			if d := c.Distance(ctr); d < bestD {
				best, bestD = j, d
			}
		}
		out[i] = best
	}
	return out
}

// assignBalanced assigns points to centers with exact per-cluster
// capacities: floor(n/k) everywhere plus one extra seat for the first n%k
// clusters, so cluster sizes always differ by at most one. Points are
// processed in descending "regret" order — the gap between their best and
// second-best center — so the points that care the most choose first.
func assignBalanced(coords []simnet.Coord, centers []simnet.Coord) []int {
	n, k := len(coords), len(centers)
	capacity := make([]int, k)
	for j := range capacity {
		capacity[j] = n / k
		if j < n%k {
			capacity[j]++
		}
	}
	type cand struct {
		node   int
		regret float64
	}
	cands := make([]cand, n)
	for i, c := range coords {
		best, second := math.Inf(1), math.Inf(1)
		for _, ctr := range centers {
			d := c.Distance(ctr)
			if d < best {
				second = best
				best = d
			} else if d < second {
				second = d
			}
		}
		reg := second - best
		if math.IsInf(reg, 1) {
			reg = 0
		}
		cands[i] = cand{node: i, regret: reg}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].regret != cands[b].regret {
			return cands[a].regret > cands[b].regret
		}
		return cands[a].node < cands[b].node
	})
	counts := make([]int, k)
	out := make([]int, n)
	for _, cd := range cands {
		best, bestD := -1, math.Inf(1)
		for j, ctr := range centers {
			if counts[j] >= capacity[j] {
				continue
			}
			if d := coords[cd.node].Distance(ctr); d < bestD {
				best, bestD = j, d
			}
		}
		out[cd.node] = best
		counts[best]++
	}
	return out
}

func recomputeCenters(coords []simnet.Coord, clusterOf []int, k int, prev []simnet.Coord) []simnet.Coord {
	sums := make([]simnet.Coord, k)
	counts := make([]int, k)
	for i, c := range clusterOf {
		sums[c].X += coords[i].X
		sums[c].Y += coords[i].Y
		counts[c]++
	}
	out := make([]simnet.Coord, k)
	for c := range out {
		if counts[c] == 0 {
			out[c] = prev[c]
			continue
		}
		out[c] = simnet.Coord{X: sums[c].X / float64(counts[c]), Y: sums[c].Y / float64(counts[c])}
	}
	return out
}
