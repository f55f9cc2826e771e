package core

import (
	"testing"

	"icistrategy/internal/simnet"
)

// moduloOwner is the naive placement alternative DESIGN.md argues against:
// chunk i of a block goes to members[(seed+i) mod c]. Cheap, balanced —
// and maximally disruptive under membership change.
func moduloOwner(seed uint64, members []simnet.NodeID, chunkIdx int) simnet.NodeID {
	return members[(seed+uint64(chunkIdx))%uint64(len(members))]
}

// TestPlacementDisruptionAblation quantifies the design choice: when one
// member leaves, rendezvous placement moves only that member's chunks
// (~1/c of all chunks), while modulo placement reshuffles almost
// everything — which would turn every departure into a cluster-wide
// re-replication storm.
func TestPlacementDisruptionAblation(t *testing.T) {
	const c, blocks = 20, 100
	members := ids(c)
	removed := members[c/2]
	rest := others(removed, members)

	var rendezvousMoved, moduloMoved, total int
	for b := 0; b < blocks; b++ {
		seed := uint64(b)*2654435761 + 7
		for idx := 0; idx < c; idx++ {
			total++
			before, err := Owners(seed, members, idx, 1)
			if err != nil {
				t.Fatal(err)
			}
			after, err := Owners(seed, rest, idx, 1)
			if err != nil {
				t.Fatal(err)
			}
			if before[0] != after[0] {
				rendezvousMoved++
			}
			if moduloOwner(seed, members, idx) != moduloOwner(seed, rest, idx) {
				moduloMoved++
			}
		}
	}
	rendezvousFrac := float64(rendezvousMoved) / float64(total)
	moduloFrac := float64(moduloMoved) / float64(total)
	// Rendezvous: expected 1/c = 5% of chunks move. Modulo: ~(c-1)/c move.
	if rendezvousFrac > 0.10 {
		t.Fatalf("rendezvous moved %.1f%% of chunks, expected ~5%%", 100*rendezvousFrac)
	}
	if moduloFrac < 0.5 {
		t.Fatalf("modulo moved only %.1f%% — ablation baseline broken", 100*moduloFrac)
	}
	if moduloFrac < 5*rendezvousFrac {
		t.Fatalf("ablation gap too small: rendezvous %.1f%% vs modulo %.1f%%",
			100*rendezvousFrac, 100*moduloFrac)
	}
	t.Logf("departure moves %.1f%% of chunks under rendezvous vs %.1f%% under modulo placement",
		100*rendezvousFrac, 100*moduloFrac)
}

// TestJoinDisruptionBounded mirrors the ablation for joins: adding a member
// must steal ~1/(c+1) of the chunks, never more.
func TestJoinDisruptionBounded(t *testing.T) {
	const c, blocks = 20, 100
	members := ids(c)
	joined := simnet.NodeID(9999)
	grown := append(append([]simnet.NodeID(nil), members...), joined)

	moved, total := 0, 0
	for b := 0; b < blocks; b++ {
		seed := uint64(b)*971 + 3
		for idx := 0; idx < c; idx++ {
			total++
			before, err := Owners(seed, members, idx, 1)
			if err != nil {
				t.Fatal(err)
			}
			after, err := Owners(seed, grown, idx, 1)
			if err != nil {
				t.Fatal(err)
			}
			if before[0] != after[0] {
				moved++
				// The only legal move target is the newcomer.
				if after[0] != joined {
					t.Fatalf("block %d chunk %d moved to %d, not the newcomer", b, idx, after[0])
				}
			}
		}
	}
	frac := float64(moved) / float64(total)
	if frac > 0.10 {
		t.Fatalf("join moved %.1f%% of chunks, expected ~%.1f%%", 100*frac, 100.0/float64(c+1))
	}
}

func BenchmarkRankedMembers64(b *testing.B) {
	members := ids(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RankedMembers(uint64(i), members, i%64); err != nil {
			b.Fatal(err)
		}
	}
}
