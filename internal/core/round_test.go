package core

import (
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"icistrategy/internal/chain"
	"icistrategy/internal/simnet"
)

// TestRoundScheduleWithEveryTargetDown runs a whole-block retrieval and an
// inclusion query against a cluster whose every other member is down. Both
// go through the one broadcast round: maxFetchAttempts rounds to every
// member, at 0 s, 30 s and 90 s as the timeout doubles, then one failure
// at 210 s when the last round times out, with two rounds asked again.
func TestRoundScheduleWithEveryTargetDown(t *testing.T) {
	cases := []struct {
		name, kind, retries string
		want                error
		start               func(t *testing.T, net *simnet.Network, n *Node, b *chain.Block, done func(error))
	}{
		{"retrieve", getBlockChunksMsg{}.kind(), "ici.retrieve.retries", ErrRetrieveFailed,
			func(_ *testing.T, net *simnet.Network, n *Node, b *chain.Block, done func(error)) {
				n.RetrieveBlock(b.Hash(), func(_ *chain.Block, err error) { done(err) })
			}},
		{"txquery", getTxProofMsg{}.kind(), "ici.txquery.retries", ErrTxNotFound,
			func(t *testing.T, net *simnet.Network, n *Node, b *chain.Block, done func(error)) {
				for _, tx := range b.Txs {
					if _, held := StoredTxProof(n.store, b.Hash(), tx.ID()); !held {
						n.QueryTxProof(b.Hash(), tx.ID(), func(_ TxProof, err error) { done(err) })
						return
					}
				}
				t.Fatal("the reader holds every transaction of the block")
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, gen := buildSystem(t, Config{Nodes: 12, Clusters: 2, Replication: 2, Seed: 98})
			b := produceAndSettle(t, sys, gen, 1, 12)[0]
			members, _ := sys.ClusterMembers(0)
			reader := sys.nodes[members[0]]
			for _, m := range members[1:] {
				if err := sys.FailNode(m); err != nil {
					t.Fatal(err)
				}
			}
			net := sys.Network()
			net.EnableTrace()
			t0 := net.Now()
			var calls []time.Duration
			var gotErr error
			tc.start(t, net, reader, b, func(err error) {
				calls = append(calls, net.Now()-t0)
				gotErr = err
			})
			net.RunUntilIdle()

			if len(calls) != 1 || calls[0] != 210*time.Second || !errors.Is(gotErr, tc.want) {
				t.Fatalf("callback fired at %v with %v, want once at 3m30s with %v", calls, gotErr, tc.want)
			}
			rounds := map[time.Duration]int{}
			for _, line := range strings.Split(net.TraceString(), "\n") {
				f := strings.Fields(line) // <ns> <op> <from>-><to> <kind> <size>
				if len(f) != 5 || f[1] != "send" || f[3] != tc.kind ||
					!strings.HasPrefix(f[2], strconv.Itoa(int(reader.id))+"->") {
					continue
				}
				ns, err := strconv.ParseInt(f[0], 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				rounds[time.Duration(ns)-t0]++
			}
			want := map[time.Duration]int{0: len(members) - 1, 30 * time.Second: len(members) - 1, 90 * time.Second: len(members) - 1}
			if len(rounds) != maxFetchAttempts {
				t.Fatalf("requests sent at %v, want %v", rounds, want)
			}
			for at, n := range want {
				if rounds[at] != n {
					t.Fatalf("requests sent at %v, want %v", rounds, want)
				}
			}
			if got := sys.Registry().Counter(tc.retries).Value(); got != 2 {
				t.Fatalf("%s = %d, want 2", tc.retries, got)
			}
		})
	}
}

// TestReplacedBootstrapCannotEndItsSuccessor starts a node's bootstrap and
// replaces it with a second one before the first ends, as a node removed
// mid-bootstrap and rejoined does. The second asks a sponsor that is down,
// so it must fail alone, once, when its own last round times out 210 s
// after it started; the first's callback never fires. Neither a late
// answer to the first (its sponsor is live) nor the first's last timeout
// (its sponsor is down too) may end the second.
func TestReplacedBootstrapCannotEndItsSuccessor(t *testing.T) {
	for _, tc := range []struct {
		name        string
		firstIsLive bool
		replaceAt   time.Duration
	}{
		{"late answer to the first", true, 0},
		{"last timeout of the first", false, time.Minute},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, gen := buildSystem(t, Config{Nodes: 12, Clusters: 2, Replication: 2, Seed: 98})
			produceAndSettle(t, sys, gen, 2, 12)
			members, _ := sys.ClusterMembers(0)
			n, live, dead := sys.nodes[members[0]], members[1], members[2]
			if err := sys.FailNode(dead); err != nil {
				t.Fatal(err)
			}
			first := dead
			if tc.firstIsLive {
				first = live
			}
			net := sys.Network()
			t0 := net.Now()
			var calls []string
			n.Bootstrap(first, func(err error) { calls = append(calls, "first") })
			var at time.Duration
			var gotErr error
			net.After(tc.replaceAt, func() {
				n.Bootstrap(dead, func(err error) {
					calls = append(calls, "second")
					at, gotErr = net.Now()-t0, err
				})
			})
			net.RunUntilIdle()

			want := tc.replaceAt + 210*time.Second
			if len(calls) != 1 || calls[0] != "second" || at != want || !errors.Is(gotErr, ErrBootstrapFailed) {
				t.Fatalf("callbacks %v, the second's at %v with %v; want the second's alone, at %v with %v",
					calls, at, gotErr, want, ErrBootstrapFailed)
			}
			if n.Bootstrapping() {
				t.Fatal("the node is still bootstrapping")
			}
		})
	}
}
