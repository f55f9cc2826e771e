package netx

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"icistrategy/internal/chain"
	"icistrategy/internal/core"
	"icistrategy/internal/simnet"
	"icistrategy/internal/storage"
	"icistrategy/internal/workload"
)

// TestSimAndTCPStoreTheSameChunks is the sim-vs-TCP differential (ROADMAP
// item 2's acceptance, first half): the same seeded blocks go through a
// one-cluster core.System on the simulator (leader splits, owners verify,
// vote and persist) and through Cluster.DistributeBlock over loopback
// servers (client splits, servers verify and store). Both drivers call the
// same split and the same group check and place with the same rendezvous
// hashing, so every member must end up holding the same (block, index) set,
// each chunk with the same bytes, part count, position and proofs, and the
// same ChunkBytes. The proofs each store rebuilds from what it keeps are
// the ones the split made.
//
// The third case is a block of fewer transactions than members: SplitCounts
// then yields empty trailing groups, and both drivers store those as
// four-byte chunks (an empty sub-body) rather than refusing the block.
func TestSimAndTCPStoreTheSameChunks(t *testing.T) {
	const n, r = 5, 2
	for _, tc := range []struct {
		name        string
		seed        uint64
		blocks, txs int
	}{
		{"seed 7", 7, 3, 37},
		{"seed 1009", 1009, 3, 37},
		{"fewer transactions than members", 7, 2, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, produce := twoDrivers(t, n, r, tc.seed, tc.txs)
			servers, addrs := startServers(t, n)
			cl, err := NewCluster(addrs, r)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			blocks := produce(cl, tc.blocks)

			members, err := sys.ClusterMembers(0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(members, memberIDs(n)) {
				t.Fatalf("simulator members %v, want identities 0..%d as netx.NewCluster assigns them", members, n-1)
			}
			if held, want := requireSameStores(t, sys, servers, blocks), tc.blocks*n*r; held != want {
				t.Fatalf("compared %d chunks, want %d (every chunk on %d members)", held, want, r)
			}
			for _, b := range blocks {
				if err := sys.ClusterHoldsBlock(0, b.Hash()); err != nil {
					t.Errorf("simulator: %v", err)
				}
				if got, err := cl.RetrieveBlock(b.Header); err != nil || got.Hash() != b.Hash() {
					t.Errorf("TCP read of block %d: %v", b.Header.Height, err)
				}
			}
		})
	}
}

// TestSimAndTCPMoveTheSameChunks is the churn half of the differential: the
// same seeded blocks and the same membership changes go through a
// one-cluster core.System (JoinCluster, LeaveCluster, RejoinCluster) and
// through a Cluster over loopback servers (BootstrapNewMember and
// PublishEpoch, RetireMember, RejoinMember). Both plan every change by
// core's one rule, so after each step every member — the departed one
// included — holds the same chunks with the same bytes on both drivers, and
// every member of the current epoch holds every chunk it owns under the map.
func TestSimAndTCPMoveTheSameChunks(t *testing.T) {
	const n, r = 5, 2
	sys, produce := twoDrivers(t, n, r, 7, 37)
	servers, addrs := startServers(t, n+1)
	five, err := NewCluster(addrs[:n], r)
	if err != nil {
		t.Fatal(err)
	}
	defer five.Close()
	six, err := NewCluster(addrs, r)
	if err != nil {
		t.Fatal(err)
	}
	defer six.Close()
	blocks := produce(five, 3)

	// settle drives the simulator until the churn step's callback fired and
	// then compares the drivers.
	settle := func(step string, simErr *error, tcpMoved int, tcpErr error) {
		t.Helper()
		sys.Network().RunUntilIdle()
		if *simErr != nil || tcpErr != nil || tcpMoved == 0 {
			t.Fatalf("%s: simulator %v; TCP moved %d chunks, %v", step, *simErr, tcpMoved, tcpErr)
		}
		m := six.CurrentMap()
		if seq, _ := sys.ClusterEpoch(0); seq != m.Current().Seq {
			t.Fatalf("%s: simulator at epoch %d, TCP map at %d", step, seq, m.Current().Seq)
		}
		requireSameStores(t, sys, servers, blocks)
		for _, id := range m.Current().Members {
			requireOwned(t, addrs[id], id, m, blocks, r)
		}
	}

	simErr := errors.New("pending")
	if err := sys.JoinCluster(0, func(id simnet.NodeID, err error) {
		if simErr = err; err == nil && id != n {
			simErr = fmt.Errorf("joined as %d, want %d", id, n)
		}
	}); err != nil {
		t.Fatal(err)
	}
	moved, err := five.BootstrapNewMember(addrs[n])
	if err == nil {
		_, err = five.PublishEpoch(memberIDs(n+1), addrs)
	}
	settle("join", &simErr, moved, err)

	blocks = append(blocks, produce(six, 2)...)
	simErr = errors.New("pending")
	if err := sys.LeaveCluster(n, func(err error) { simErr = err }); err != nil {
		t.Fatal(err)
	}
	moved, err = six.RetireMember(addrs[n])
	settle("leave", &simErr, moved, err)

	// A writer takes its membership from the map: one over the members that
	// stay writes under the shrunk epoch.
	staying, err := NewCluster(addrs[:n], r)
	if err != nil {
		t.Fatal(err)
	}
	defer staying.Close()
	blocks = append(blocks, produce(staying, 2)...)
	simErr = errors.New("pending")
	if err := sys.RejoinCluster(n, func(err error) { simErr = err }); err != nil {
		t.Fatal(err)
	}
	moved, err = six.RejoinMember(addrs[n])
	settle("rejoin", &simErr, moved, err)
}

// TestSimAndTCPMoveTheSameChunksOnAMiddleLeave: member 1 of five leaves —
// LeaveCluster on the simulator, RetireMember over TCP — and two blocks are
// then written on the simulator and through a Cluster built over the four
// members that stay. Both drivers place those blocks over identities 0, 2,
// 3 and 4, so every member holds the same chunks on both, and every member
// of the current epoch the chunks the map gives it. A TCP writer that
// numbered the four by their position placed them over 0, 1, 2 and 3.
func TestSimAndTCPMoveTheSameChunksOnAMiddleLeave(t *testing.T) {
	const n, r = 5, 2
	sys, produce := twoDrivers(t, n, r, 7, 37)
	servers, addrs := startServers(t, n)
	full, err := NewCluster(addrs, r)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	blocks := produce(full, 3)

	simErr := errors.New("pending")
	if err := sys.LeaveCluster(1, func(err error) { simErr = err }); err != nil {
		t.Fatal(err)
	}
	moved, err := full.RetireMember(addrs[1])
	sys.Network().RunUntilIdle()
	if simErr != nil || err != nil || moved == 0 {
		t.Fatalf("leave: simulator %v; TCP moved %d chunks, %v", simErr, moved, err)
	}
	staying, err := NewCluster(slices.Delete(slices.Clone(addrs), 1, 2), r)
	if err != nil {
		t.Fatal(err)
	}
	defer staying.Close()
	blocks = append(blocks, produce(staying, 2)...)

	m := staying.Map()
	if seq, _ := sys.ClusterEpoch(0); seq != m.Current().Seq {
		t.Fatalf("simulator at epoch %d, TCP map at %d", seq, m.Current().Seq)
	}
	requireSameStores(t, sys, servers, blocks)
	for _, id := range m.Current().Members {
		requireOwned(t, addrs[id], id, m, blocks, r)
	}
}

// twoDrivers returns a one-cluster simulator of n members and a function
// that produces count blocks of txs transactions on it — each committed on
// the simulator — and distributes the same blocks through a TCP cluster.
func twoDrivers(t *testing.T, n, r int, seed uint64, txs int) (*core.System, func(cl *Cluster, count int) []*chain.Block) {
	t.Helper()
	sys, err := core.NewSystem(core.Config{Nodes: n, Clusters: 1, Replication: r, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(workload.Config{Accounts: 40, PayloadBytes: 20, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return sys, func(cl *Cluster, count int) []*chain.Block {
		t.Helper()
		var blocks []*chain.Block
		for i := 0; i < count; i++ {
			b, err := sys.ProduceBlock(gen.NextTxs(txs))
			if err != nil {
				t.Fatal(err)
			}
			sys.Network().RunUntilIdle()
			if !sys.AllCommitted(b.Hash()) {
				t.Fatalf("block at height %d did not commit on the simulator", b.Header.Height)
			}
			if err := cl.DistributeBlock(b); err != nil {
				t.Fatalf("block at height %d over TCP: %v", b.Header.Height, err)
			}
			blocks = append(blocks, b)
		}
		return blocks
	}
}

// requireSameStores checks that simulator node i and servers[i] hold the
// same chunks of blocks, each with the same bytes, part count, position and
// proofs — rebuilt by each store, and the ones core.SplitBlock made — and
// the same ChunkBytes and SidecarBytes; it returns how many chunks it
// compared.
func requireSameStores(t *testing.T, sys *core.System, servers []*Server, blocks []*chain.Block) int {
	t.Helper()
	held := 0
	split := make([][]core.Group, len(blocks))
	for i, s := range servers {
		node, err := sys.Node(simnet.NodeID(i))
		if err != nil {
			t.Fatal(err)
		}
		tcp := readState(t, s.Addr(), blocks)
		if sim := node.Store().Stats(); sim.ChunkBytes != tcp.Stats.ChunkBytes || sim.ChunkCount != tcp.Stats.ChunkCount || sim.ChunkBytes != s.Stats().ChunkBytes {
			t.Errorf("member %d: simulator holds %d chunks in %d bytes, TCP server %d in %d", i, sim.ChunkCount, sim.ChunkBytes, tcp.Stats.ChunkCount, tcp.Stats.ChunkBytes)
		} else if sim.SidecarBytes != s.Stats().SidecarBytes {
			t.Errorf("member %d: simulator keeps %d sidecar bytes, TCP server %d", i, sim.SidecarBytes, s.Stats().SidecarBytes)
		}
		for bi, b := range blocks {
			idxs := node.Store().ChunksForBlock(b.Hash())
			served := tcp.Chunks[bi].Chunks
			if len(idxs) != len(served) {
				t.Errorf("member %d block %d: simulator holds chunks %v, TCP server %d chunks", i, bi, idxs, len(served))
				continue
			}
			for k, idx := range idxs {
				sim := storedChunk(t, node.Store(), storage.ChunkID{Block: b.Hash(), Index: idx})
				got := served[k]
				if got.Index != idx || got.Parts != sim.Parts || got.TxStart != sim.TxStart ||
					!bytes.Equal(got.Data, sim.Data) || !sameProofs(got.Proofs, sim.Proofs) {
					t.Errorf("member %d block %d chunk %d: simulator stores parts=%d txStart=%d %d bytes %d proofs, TCP server index=%d parts=%d txStart=%d %d bytes %d proofs",
						i, bi, idx, sim.Parts, sim.TxStart, len(sim.Data), len(sim.Proofs),
						got.Index, got.Parts, got.TxStart, len(got.Data), len(got.Proofs))
				}
				if split[bi] == nil {
					var err error
					if split[bi], err = core.SplitBlock(b, sim.Parts); err != nil {
						t.Fatal(err)
					}
				}
				if !sameProofs(sim.Proofs, split[bi][idx].Proofs) {
					t.Errorf("member %d block %d chunk %d: the stores rebuild other proofs than the split made", i, bi, idx)
				}
				held++
			}
		}
	}
	return held
}

// sameProofs compares proof lists, an empty one equal to a nil one (a
// decoded empty group carries nil, a split one an empty slice).
func sameProofs(a, b []chain.Proof) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// storedChunk reads chunk id of st back with the proofs the store rebuilds
// for it, as a member serves it.
func storedChunk(t *testing.T, st *storage.Store, id storage.ChunkID) storage.Chunk {
	t.Helper()
	var chk storage.Chunk
	if err := st.LendChunk(id, true, func(c storage.Chunk) {
		chk = c
		chk.Data = append([]byte(nil), c.Data...)
	}); err != nil {
		t.Fatal(err)
	}
	return chk
}
