package core

import (
	"errors"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/simnet"
)

func ids(n int) []simnet.NodeID {
	out := make([]simnet.NodeID, n)
	for i := range out {
		out[i] = simnet.NodeID(i * 7) // non-contiguous IDs on purpose
	}
	return out
}

func TestOwnersValidation(t *testing.T) {
	if _, err := Owners(1, nil, 0, 1); err == nil {
		t.Fatal("empty membership accepted")
	}
	members := ids(4)
	for _, r := range []int{0, -1, 5} {
		if _, err := Owners(1, members, 0, r); err == nil {
			t.Fatalf("r=%d accepted", r)
		}
	}
}

func TestOwnersDeterministicAndDistinct(t *testing.T) {
	members := ids(16)
	for r := 1; r <= 4; r++ {
		for idx := 0; idx < 16; idx++ {
			a, err := Owners(42, members, idx, r)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := Owners(42, members, idx, r)
			if len(a) != r {
				t.Fatalf("got %d owners, want %d", len(a), r)
			}
			seen := map[simnet.NodeID]bool{}
			for i := range a {
				if a[i] != b[i] {
					t.Fatal("Owners not deterministic")
				}
				if seen[a[i]] {
					t.Fatal("duplicate owner")
				}
				seen[a[i]] = true
			}
		}
	}
}

// ownersBySort is the reference TestOwnersMatchesSortReference holds
// Owners to: the same selection, with sort.Slice ordering the first r.
func ownersBySort(blockSeed uint64, members []simnet.NodeID, chunkIdx, r int) []simnet.NodeID {
	type scored struct {
		id    simnet.NodeID
		score uint64
	}
	best := make([]scored, 0, r)
	for _, m := range members {
		s := rendezvousScore(blockSeed, chunkIdx, m)
		if len(best) < r {
			best = append(best, scored{id: m, score: s})
			sort.Slice(best, func(i, j int) bool { return best[i].score > best[j].score })
			continue
		}
		if s > best[r-1].score {
			best[r-1] = scored{id: m, score: s}
			for i := r - 1; i > 0 && best[i].score > best[i-1].score; i-- {
				best[i], best[i-1] = best[i-1], best[i]
			}
		}
	}
	out := make([]simnet.NodeID, r)
	for i, b := range best {
		out[i] = b.id
	}
	return out
}

// TestOwnersMatchesSortReference: the owners and their order are what the
// sort.Slice version chose, over random seeds, member sets (in any order,
// with repeated IDs too) and every r.
func TestOwnersMatchesSortReference(t *testing.T) {
	rng := blockcrypto.NewRNG(4646)
	for trial := 0; trial < 400; trial++ {
		members := make([]simnet.NodeID, 1+rng.Intn(70))
		span := 1 + rng.Intn(1000)
		for i := range members {
			members[i] = simnet.NodeID(rng.Intn(span))
		}
		seed := rng.Uint64()
		for r := 1; r <= len(members); r++ {
			idx := rng.Intn(64)
			got, err := Owners(seed, members, idx, r)
			if err != nil {
				t.Fatal(err)
			}
			if want := ownersBySort(seed, members, idx, r); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, chunk %d, r=%d over %v: owners %v, sort.Slice chose %v", seed, idx, r, members, got, want)
			}
		}
	}
}

func TestOwnersBalanced(t *testing.T) {
	// Over many blocks, ownership load must be near-uniform.
	members := ids(20)
	counts := map[simnet.NodeID]int{}
	blocks, parts := 200, 20
	for b := 0; b < blocks; b++ {
		for idx := 0; idx < parts; idx++ {
			owners, err := Owners(uint64(b)*977+13, members, idx, 1)
			if err != nil {
				t.Fatal(err)
			}
			counts[owners[0]]++
		}
	}
	mean := float64(blocks*parts) / 20 // 200 each
	for id, c := range counts {
		if float64(c) < 0.7*mean || float64(c) > 1.3*mean {
			t.Fatalf("node %d owns %d chunks, mean %.0f: unbalanced", id, c, mean)
		}
	}
}

func TestOwnersMinimalDisruption(t *testing.T) {
	// Removing one member must only reassign the chunks that member owned.
	members := ids(12)
	removed := members[5]
	rest := make([]simnet.NodeID, 0, 11)
	for _, m := range members {
		if m != removed {
			rest = append(rest, m)
		}
	}
	moved, kept := 0, 0
	for b := uint64(0); b < 50; b++ {
		for idx := 0; idx < 12; idx++ {
			before, err := Owners(b, members, idx, 1)
			if err != nil {
				t.Fatal(err)
			}
			after, err := Owners(b, rest, idx, 1)
			if err != nil {
				t.Fatal(err)
			}
			if before[0] == removed {
				moved++
				continue
			}
			if before[0] != after[0] {
				t.Fatalf("block %d chunk %d moved from %d to %d although owner survived",
					b, idx, before[0], after[0])
			}
			kept++
		}
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate test: moved=%d kept=%d", moved, kept)
	}
}

func TestIsOwnerAgreesWithOwners(t *testing.T) {
	members := ids(9)
	for idx := 0; idx < 9; idx++ {
		owners, err := Owners(7, members, idx, 3)
		if err != nil {
			t.Fatal(err)
		}
		ownerSet := map[simnet.NodeID]bool{}
		for _, o := range owners {
			ownerSet[o] = true
		}
		for _, m := range members {
			got, err := IsOwner(7, members, idx, 3, m)
			if err != nil {
				t.Fatal(err)
			}
			if got != ownerSet[m] {
				t.Fatalf("IsOwner(%d) = %v, Owners says %v", m, got, ownerSet[m])
			}
		}
	}
}

func TestSplitCounts(t *testing.T) {
	cases := []struct {
		total, parts int
		want         []int
	}{
		{10, 2, []int{5, 5}},
		{10, 3, []int{4, 3, 3}},
		{2, 4, []int{1, 1, 0, 0}},
		{0, 3, []int{0, 0, 0}},
		{7, 1, []int{7}},
	}
	for _, tc := range cases {
		got, err := SplitCounts(tc.total, tc.parts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(tc.want) {
			t.Fatalf("SplitCounts(%d,%d) = %v", tc.total, tc.parts, got)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("SplitCounts(%d,%d) = %v, want %v", tc.total, tc.parts, got, tc.want)
			}
		}
	}
	if _, err := SplitCounts(5, 0); err == nil {
		t.Fatal("parts=0 accepted")
	}
}

func TestSplitCountsProperties(t *testing.T) {
	f := func(totalRaw, partsRaw uint16) bool {
		total := int(totalRaw)
		parts := int(partsRaw%256) + 1
		counts, err := SplitCounts(total, parts)
		if err != nil {
			return false
		}
		sum, maxC, minC := 0, 0, int(^uint(0)>>1)
		for _, c := range counts {
			sum += c
			if c > maxC {
				maxC = c
			}
			if c < minC {
				minC = c
			}
		}
		return sum == total && maxC-minC <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChunkRange(t *testing.T) {
	// Ranges must tile [0, total) exactly, in order and in SplitCounts' sizes.
	for _, tc := range [][2]int{{103, 7}, {96, 8}, {3, 8}, {0, 4}, {5, 1}} {
		total, parts := tc[0], tc[1]
		counts, _ := SplitCounts(total, parts)
		prevEnd := 0
		for idx := 0; idx < parts; idx++ {
			start, end, err := ChunkRange(total, parts, idx)
			if err != nil {
				t.Fatal(err)
			}
			if start != prevEnd || end-start != counts[idx] {
				t.Fatalf("chunk %d of %d over %d items is [%d,%d), want %d items from %d", idx, parts, total, start, end, counts[idx], prevEnd)
			}
			prevEnd = end
		}
		if prevEnd != total {
			t.Fatalf("ranges end at %d, want %d", prevEnd, total)
		}
	}
	if _, _, err := ChunkRange(10, 0, 0); !errors.Is(err, ErrBadParts) {
		t.Fatalf("zero parts: %v", err)
	}
	if _, _, err := ChunkRange(10, 3, 3); err == nil {
		t.Fatal("out-of-range chunk index accepted")
	}
	if _, _, err := ChunkRange(10, 3, -1); err == nil {
		t.Fatal("negative chunk index accepted")
	}
}

func BenchmarkOwners64(b *testing.B) {
	members := ids(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Owners(uint64(i), members, i%64, 2); err != nil {
			b.Fatal(err)
		}
	}
}
