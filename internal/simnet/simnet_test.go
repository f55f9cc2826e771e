package simnet

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"icistrategy/internal/blockcrypto"
)

// collectNet builds a network of n nodes that record every delivery.
func collectNet(t *testing.T, n int, model LatencyModel) (*Network, *[]Message) {
	t.Helper()
	net := New(model)
	var got []Message
	for i := 0; i < n; i++ {
		if err := net.AddNode(NodeID(i), HandlerFunc(func(_ *Network, m Message) {
			got = append(got, m)
		}), Coord{X: float64(i), Y: 0}); err != nil {
			t.Fatal(err)
		}
	}
	return net, &got
}

func TestAddNodeDuplicate(t *testing.T) {
	net := New(ConstantLatency(0))
	if err := net.AddNode(1, nil, Coord{}); err != nil {
		t.Fatal(err)
	}
	if err := net.AddNode(1, nil, Coord{}); err == nil {
		t.Fatal("duplicate node accepted")
	}
}

func TestSendDelivers(t *testing.T) {
	net, got := collectNet(t, 2, ConstantLatency(time.Millisecond))
	if err := net.Send(Message{From: 0, To: 1, Kind: "ping", Size: 100}); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 0 {
		t.Fatal("message delivered before Run")
	}
	net.RunUntilIdle()
	if len(*got) != 1 || (*got)[0].Kind != "ping" {
		t.Fatalf("deliveries = %v", *got)
	}
	if net.Now() != time.Millisecond {
		t.Fatalf("Now() = %v, want 1ms", net.Now())
	}
}

func TestSendUnknownNodes(t *testing.T) {
	net, _ := collectNet(t, 1, ConstantLatency(0))
	if err := net.Send(Message{From: 9, To: 0}); err == nil {
		t.Fatal("unknown sender accepted")
	}
	if err := net.Send(Message{From: 0, To: 9}); err == nil {
		t.Fatal("unknown receiver accepted")
	}
}

func TestVirtualTimeOrdering(t *testing.T) {
	net := New(ConstantLatency(0))
	var order []int
	net.After(30*time.Millisecond, func() { order = append(order, 3) })
	net.After(10*time.Millisecond, func() { order = append(order, 1) })
	net.After(20*time.Millisecond, func() { order = append(order, 2) })
	net.RunUntilIdle()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("execution order = %v", order)
	}
}

func TestEqualTimestampsFIFO(t *testing.T) {
	net := New(ConstantLatency(0))
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		net.After(5*time.Millisecond, func() { order = append(order, i) })
	}
	net.RunUntilIdle()
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestNestedSchedulingAdvancesTime(t *testing.T) {
	net, got := collectNet(t, 3, ConstantLatency(2*time.Millisecond))
	// Node 1 forwards to node 2 on receipt.
	if err := net.SetHandler(1, HandlerFunc(func(n *Network, m Message) {
		if err := n.Send(Message{From: 1, To: 2, Kind: "fwd", Size: m.Size}); err != nil {
			t.Errorf("forward: %v", err)
		}
	})); err != nil {
		t.Fatal(err)
	}
	if err := net.Send(Message{From: 0, To: 1, Kind: "orig", Size: 10}); err != nil {
		t.Fatal(err)
	}
	net.RunUntilIdle()
	if len(*got) != 1 || (*got)[0].Kind != "fwd" {
		t.Fatalf("deliveries = %v", *got)
	}
	if net.Now() != 4*time.Millisecond {
		t.Fatalf("Now() = %v, want 4ms (two hops)", net.Now())
	}
}

func TestRunUntilLimit(t *testing.T) {
	net := New(ConstantLatency(0))
	fired := 0
	net.After(time.Millisecond, func() { fired++ })
	net.After(time.Hour, func() { fired++ })
	net.Run(time.Second)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if net.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", net.Pending())
	}
}

func TestDownNodeDropsAndCannotSend(t *testing.T) {
	net, got := collectNet(t, 2, ConstantLatency(time.Millisecond))
	if err := net.SetDown(1, true); err != nil {
		t.Fatal(err)
	}
	if err := net.Send(Message{From: 0, To: 1, Kind: "x", Size: 5}); err != nil {
		t.Fatal(err) // send succeeds; delivery is dropped
	}
	net.RunUntilIdle()
	if len(*got) != 0 {
		t.Fatal("message delivered to a down node")
	}
	if net.DroppedCount() != 1 {
		t.Fatalf("DroppedCount() = %d, want 1", net.DroppedCount())
	}
	if err := net.Send(Message{From: 1, To: 0}); err == nil {
		t.Fatal("down node was allowed to send")
	}
	// Recovery restores delivery.
	if err := net.SetDown(1, false); err != nil {
		t.Fatal(err)
	}
	if err := net.Send(Message{From: 0, To: 1, Kind: "x", Size: 5}); err != nil {
		t.Fatal(err)
	}
	net.RunUntilIdle()
	if len(*got) != 1 {
		t.Fatal("message not delivered after recovery")
	}
}

func TestFailureMidFlight(t *testing.T) {
	// A node that fails while a message is in flight must not receive it.
	net, got := collectNet(t, 2, ConstantLatency(10*time.Millisecond))
	if err := net.Send(Message{From: 0, To: 1, Kind: "x", Size: 5}); err != nil {
		t.Fatal(err)
	}
	net.After(time.Millisecond, func() {
		if err := net.SetDown(1, true); err != nil {
			t.Error(err)
		}
	})
	net.RunUntilIdle()
	if len(*got) != 0 {
		t.Fatal("in-flight message delivered to failed node")
	}
}

func TestTrafficAccounting(t *testing.T) {
	net, _ := collectNet(t, 3, ConstantLatency(0))
	sends := []struct {
		from, to NodeID
		size     int
	}{{0, 1, 100}, {0, 2, 50}, {1, 2, 25}}
	for _, s := range sends {
		if err := net.Send(Message{From: s.from, To: s.to, Kind: "data", Size: s.size}); err != nil {
			t.Fatal(err)
		}
	}
	net.RunUntilIdle()
	t0, _ := net.Traffic(0)
	if t0.BytesSent != 150 || t0.MsgsSent != 2 || t0.BytesRecv != 0 {
		t.Fatalf("node 0 traffic = %+v", t0)
	}
	t2, _ := net.Traffic(2)
	if t2.BytesRecv != 75 || t2.MsgsRecv != 2 {
		t.Fatalf("node 2 traffic = %+v", t2)
	}
	total := net.TotalTraffic()
	if total.BytesSent != 175 || total.BytesRecv != 175 {
		t.Fatalf("total traffic = %+v", total)
	}
	kd := net.KindTraffic("data")
	if kd.Messages != 3 || kd.Bytes != 175 {
		t.Fatalf("kind traffic = %+v", kd)
	}
	if len(net.Kinds()) != 1 {
		t.Fatalf("Kinds() = %v", net.Kinds())
	}
	net.ResetTraffic()
	if net.TotalTraffic() != (TrafficStats{}) {
		t.Fatal("ResetTraffic left residue")
	}
	if net.KindTraffic("data") != (KindStats{}) {
		t.Fatal("ResetTraffic left kind residue")
	}
}

func TestDeterministicTraces(t *testing.T) {
	run := func() (time.Duration, int64) {
		model := NewLinkModel(77)
		net := New(model)
		rng := blockcrypto.NewRNG(42)
		coords := RandomCoords(20, 60, rng)
		for i, c := range coords {
			id := NodeID(i)
			if err := net.AddNode(id, HandlerFunc(func(n *Network, m Message) {
				if m.Size > 1 {
					next := NodeID((uint64(m.To) + 1) % 20)
					_ = n.Send(Message{From: m.To, To: next, Kind: "relay", Size: m.Size / 2})
				}
			}), c); err != nil {
				t.Fatal(err)
			}
		}
		if err := net.Send(Message{From: 0, To: 1, Kind: "relay", Size: 1 << 16}); err != nil {
			t.Fatal(err)
		}
		net.RunUntilIdle()
		return net.Now(), net.TotalTraffic().BytesSent
	}
	t1, b1 := run()
	t2, b2 := run()
	if t1 != t2 || b1 != b2 {
		t.Fatalf("identical seeds diverged: (%v,%d) vs (%v,%d)", t1, b1, t2, b2)
	}
}

func TestLinkModelComponents(t *testing.T) {
	m := &LinkModel{Base: 10 * time.Millisecond, Bandwidth: 1000} // 1000 B/s
	a, b := Coord{0, 0}, Coord{3, 4}                              // distance 5 ms
	got := m.Latency(a, b, 500)                                   // 500 B at 1000 B/s = 500 ms
	want := 10*time.Millisecond + 5*time.Millisecond + 500*time.Millisecond
	if got != want {
		t.Fatalf("Latency = %v, want %v", got, want)
	}
}

func TestLinkModelZeroValue(t *testing.T) {
	var m LinkModel
	if got := m.Latency(Coord{}, Coord{}, 1<<20); got != 0 {
		t.Fatalf("zero-value LinkModel latency = %v, want 0", got)
	}
}

func TestCoordDistance(t *testing.T) {
	if d := (Coord{0, 0}).Distance(Coord{3, 4}); d != 5 {
		t.Fatalf("Distance = %v, want 5", d)
	}
	if d := (Coord{1, 1}).Distance(Coord{1, 1}); d != 0 {
		t.Fatalf("Distance = %v, want 0", d)
	}
}

func TestRandomCoordsInBounds(t *testing.T) {
	rng := blockcrypto.NewRNG(1)
	coords := RandomCoords(100, 60, rng)
	if len(coords) != 100 {
		t.Fatalf("got %d coords", len(coords))
	}
	for _, c := range coords {
		if c.X < 0 || c.X >= 60 || c.Y < 0 || c.Y >= 60 {
			t.Fatalf("coord %v out of bounds", c)
		}
	}
}

func TestClusteredCoordsCloserWithinRegion(t *testing.T) {
	rng := blockcrypto.NewRNG(3)
	coords := ClusteredCoords(200, 4, 60, 1.0, rng)
	// Nodes i and i+4 share a center; i and i+1 generally do not.
	var same, diff float64
	for i := 0; i+5 < len(coords); i += 4 {
		same += coords[i].Distance(coords[i+4])
		diff += coords[i].Distance(coords[i+1])
	}
	if same >= diff {
		t.Fatalf("same-region mean distance %v >= cross-region %v", same, diff)
	}
}

func TestSetHandlerUnknown(t *testing.T) {
	net := New(ConstantLatency(0))
	if err := net.SetHandler(5, nil); err == nil {
		t.Fatal("SetHandler on unknown node succeeded")
	}
	if _, err := net.Coordinate(5); err == nil {
		t.Fatal("Coordinate on unknown node succeeded")
	}
	if _, err := net.Traffic(5); err == nil {
		t.Fatal("Traffic on unknown node succeeded")
	}
	if err := net.SetDown(5, true); err == nil {
		t.Fatal("SetDown on unknown node succeeded")
	}
}

// BenchmarkSendDeliver measures the engine hot path at three network
// scales: 100 nodes, and the paper-scale and beyond-paper-scale node counts
// the experiment sweeps use. Each round queues 1024 sends before draining
// them, so every push and pop works a heap 1024 keys deep. ReportAllocs
// keeps the slab's zero visible; TestAllocsPerSendDeliver pins it.
func BenchmarkSendDeliver(b *testing.B) {
	for _, n := range []int{100, 4096, 16384} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			net := New(ConstantLatency(time.Millisecond))
			for i := 0; i < n; i++ {
				if err := net.AddNode(NodeID(i), HandlerFunc(func(*Network, Message) {}), Coord{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := net.Send(Message{From: NodeID(i % n), To: NodeID((i + 1) % n), Kind: "bench/msg", Size: 100}); err != nil {
					b.Fatal(err)
				}
				if i%1024 == 1023 {
					net.RunUntilIdle()
				}
			}
			net.RunUntilIdle()
		})
	}
}

// TestAllocsPerSendDeliver pins the event slab: once the free list, the
// heap and the kind table are warm, a full send→deliver cycle allocates
// nothing, and it does not grow the slab: a Step that stops releasing
// events grows it by one per cycle, and the slab's doubling hides that from
// the allocation count.
func TestAllocsPerSendDeliver(t *testing.T) {
	net := New(ConstantLatency(time.Millisecond))
	const n = 64
	for i := 0; i < n; i++ {
		if err := net.AddNode(NodeID(i), HandlerFunc(func(*Network, Message) {}), Coord{}); err != nil {
			t.Fatal(err)
		}
	}
	// Warm-up: fill the event pool, record the kind, and pre-grow the heap.
	for i := 0; i < 256; i++ {
		if err := net.Send(Message{From: NodeID(i % n), To: NodeID((i + 1) % n), Kind: "alloc/probe", Size: 64}); err != nil {
			t.Fatal(err)
		}
	}
	net.RunUntilIdle()
	warm := len(net.pool)
	i := 0
	avg := testing.AllocsPerRun(500, func() {
		if err := net.Send(Message{From: NodeID(i % n), To: NodeID((i + 1) % n), Kind: "alloc/probe", Size: 64}); err != nil {
			t.Fatal(err)
		}
		i++
		net.RunUntilIdle()
	})
	if avg != 0 {
		t.Fatalf("send→deliver costs %.2f allocs, want 0", avg)
	}
	if grown := len(net.pool) - warm; grown != 0 {
		t.Fatalf("the event slab grew by %d slots over 500 send→deliver cycles: events are not released", grown)
	}
}

// TestSparseNodeIDs: far-outlying IDs behave exactly like small sequential
// ones.
func TestSparseNodeIDs(t *testing.T) {
	net := New(ConstantLatency(time.Millisecond))
	var got []Message
	collect := HandlerFunc(func(_ *Network, m Message) { got = append(got, m) })
	sparseID := NodeID(1 << 40)
	for _, id := range []NodeID{0, 1, sparseID} {
		if err := net.AddNode(id, collect, Coord{X: float64(id % 97)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.AddNode(sparseID, collect, Coord{}); err == nil {
		t.Fatal("duplicate sparse node accepted")
	}
	if net.NumNodes() != 3 {
		t.Fatalf("NumNodes() = %d, want 3", net.NumNodes())
	}
	if err := net.Send(Message{From: 0, To: sparseID, Kind: "up", Size: 10}); err != nil {
		t.Fatal(err)
	}
	if err := net.Send(Message{From: sparseID, To: 1, Kind: "down", Size: 20}); err != nil {
		t.Fatal(err)
	}
	net.RunUntilIdle()
	if len(got) != 2 {
		t.Fatalf("deliveries = %v", got)
	}
	tr, err := net.Traffic(sparseID)
	if err != nil {
		t.Fatal(err)
	}
	if tr.BytesSent != 20 || tr.BytesRecv != 10 {
		t.Fatalf("sparse traffic = %+v", tr)
	}
	total := net.TotalTraffic()
	if total.BytesSent != 30 || total.BytesRecv != 30 {
		t.Fatalf("total = %+v", total)
	}
	if err := net.SetDown(sparseID, true); err != nil {
		t.Fatal(err)
	}
	if !net.IsDown(sparseID) {
		t.Fatal("sparse node not down")
	}
	if _, err := net.Coordinate(sparseID); err != nil {
		t.Fatal(err)
	}
}

// TestKindsSortedAndDeterministic pins the stats-snapshot determinism
// audit: Kinds() emits in sorted order, two identically seeded runs render
// identical per-kind reports, and kinds zeroed by ResetTraffic drop out.
func TestKindsSortedAndDeterministic(t *testing.T) {
	render := func() string {
		net := New(NewLinkModel(7))
		rng := blockcrypto.NewRNG(42)
		for i := 0; i < 8; i++ {
			if err := net.AddNode(NodeID(i), HandlerFunc(func(*Network, Message) {}), Coord{X: rng.Float64()}); err != nil {
				t.Fatal(err)
			}
		}
		kinds := []string{"zeta/msg", "alpha/msg", "mid/msg"}
		for i := 0; i < 64; i++ {
			m := Message{From: NodeID(i % 8), To: NodeID((i + 3) % 8), Kind: kinds[rng.Intn(len(kinds))], Size: 1 + rng.Intn(100)}
			if err := net.Send(m); err != nil {
				t.Fatal(err)
			}
		}
		net.RunUntilIdle()
		var b strings.Builder
		for _, k := range net.Kinds() {
			ks := net.KindTraffic(k)
			fmt.Fprintf(&b, "%s %d %d\n", k, ks.Messages, ks.Bytes)
		}
		return b.String()
	}
	r1, r2 := render(), render()
	if r1 != r2 {
		t.Fatalf("seeded kind reports diverged:\n%s\nvs\n%s", r1, r2)
	}
	lines := strings.Split(strings.TrimSpace(r1), "\n")
	if len(lines) != 3 {
		t.Fatalf("expected 3 kinds, got %q", r1)
	}
	if !sort.StringsAreSorted([]string{strings.Fields(lines[0])[0], strings.Fields(lines[1])[0], strings.Fields(lines[2])[0]}) {
		t.Fatalf("Kinds() not sorted: %q", r1)
	}

	// Zeroed kinds disappear until observed again.
	net := New(ConstantLatency(0))
	if err := net.AddNode(0, HandlerFunc(func(*Network, Message) {}), Coord{}); err != nil {
		t.Fatal(err)
	}
	if err := net.AddNode(1, HandlerFunc(func(*Network, Message) {}), Coord{}); err != nil {
		t.Fatal(err)
	}
	if err := net.Send(Message{From: 0, To: 1, Kind: "gone", Size: 1}); err != nil {
		t.Fatal(err)
	}
	net.RunUntilIdle()
	net.ResetTraffic()
	if len(net.Kinds()) != 0 {
		t.Fatalf("Kinds() after ResetTraffic = %v", net.Kinds())
	}
}

// TestEngineGoldenSchedule pins the engine's schedule for one seeded
// workload: a complete 4-ary-tree flood over 256 nodes with one ack per
// delivery. The constants were read at commit 1a6587c, the last to carry
// the frozen pre-overhaul engine, where TestBaselineDifferential showed
// both engines agreeing on every one of them. A change that moves any of
// them has changed event ordering, latency sampling or traffic accounting.
func TestEngineGoldenSchedule(t *testing.T) {
	const (
		n         = 256
		floodSize = 4096
		ackSize   = 64

		wantEvents = 510
		wantNow    = 288445461 * time.Nanosecond
	)
	wantTraffic := TrafficStats{BytesSent: 1060800, BytesRecv: 1060800, MsgsSent: 510, MsgsRecv: 510}
	wantKinds := map[string]KindStats{
		"diff/flood": {Messages: 255, Bytes: 1044480},
		"diff/ack":   {Messages: 255, Bytes: 16320},
	}

	coords := RandomCoords(n, 60, blockcrypto.NewRNG(9))
	net := New(NewLinkModel(17))
	for i := 0; i < n; i++ {
		i := i
		err := net.AddNode(NodeID(i), HandlerFunc(func(nw *Network, m Message) {
			if m.Kind != "diff/flood" {
				return
			}
			for c := 4*i + 1; c <= 4*i+4 && c < n; c++ {
				_ = nw.Send(Message{From: NodeID(i), To: NodeID(c), Kind: "diff/flood", Size: floodSize})
			}
			_ = nw.Send(Message{From: NodeID(i), To: m.From, Kind: "diff/ack", Size: ackSize})
		}), coords[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	for c := 1; c <= 4; c++ {
		if err := net.Send(Message{From: 0, To: NodeID(c), Kind: "diff/flood", Size: floodSize}); err != nil {
			t.Fatal(err)
		}
	}
	if events := net.RunUntilIdle(); events != wantEvents {
		t.Fatalf("executed %d events, want %d", events, wantEvents)
	}
	if net.Now() != wantNow {
		t.Fatalf("final virtual time %v, want %v", net.Now(), wantNow)
	}
	if net.TotalTraffic() != wantTraffic {
		t.Fatalf("traffic %+v, want %+v", net.TotalTraffic(), wantTraffic)
	}
	if net.DeliveredCount() != wantEvents {
		t.Fatalf("delivered %d, want %d", net.DeliveredCount(), wantEvents)
	}
	for k, want := range wantKinds {
		if net.KindTraffic(k) != want {
			t.Fatalf("kind %s: %+v, want %+v", k, net.KindTraffic(k), want)
		}
	}
}

func TestUplinkSerialization(t *testing.T) {
	net := New(ConstantLatency(0))
	var arrivals []time.Duration
	for i := 0; i < 4; i++ {
		if err := net.AddNode(NodeID(i), HandlerFunc(func(n *Network, m Message) {
			arrivals = append(arrivals, n.Now())
		}), Coord{}); err != nil {
			t.Fatal(err)
		}
	}
	net.SetUplinkBandwidth(1000) // 1000 B/s
	// Three 500-byte messages from node 0: transmissions serialize at
	// 0.5 s each, so arrivals land at 0.5, 1.0, 1.5 s.
	for i := 1; i <= 3; i++ {
		if err := net.Send(Message{From: 0, To: NodeID(i), Size: 500}); err != nil {
			t.Fatal(err)
		}
	}
	net.RunUntilIdle()
	want := []time.Duration{500 * time.Millisecond, time.Second, 1500 * time.Millisecond}
	if len(arrivals) != 3 {
		t.Fatalf("got %d arrivals", len(arrivals))
	}
	for i := range want {
		if arrivals[i] != want[i] {
			t.Fatalf("arrival %d at %v, want %v", i, arrivals[i], want[i])
		}
	}
	// Different senders do not serialize against each other.
	net2 := New(ConstantLatency(0))
	var n2arrivals []time.Duration
	for i := 0; i < 3; i++ {
		if err := net2.AddNode(NodeID(i), HandlerFunc(func(n *Network, m Message) {
			n2arrivals = append(n2arrivals, n.Now())
		}), Coord{}); err != nil {
			t.Fatal(err)
		}
	}
	net2.SetUplinkBandwidth(1000)
	if err := net2.Send(Message{From: 0, To: 2, Size: 500}); err != nil {
		t.Fatal(err)
	}
	if err := net2.Send(Message{From: 1, To: 2, Size: 500}); err != nil {
		t.Fatal(err)
	}
	net2.RunUntilIdle()
	if len(n2arrivals) != 2 || n2arrivals[0] != 500*time.Millisecond || n2arrivals[1] != 500*time.Millisecond {
		t.Fatalf("independent senders serialized: %v", n2arrivals)
	}
}

func TestPartitionDropsCrossTraffic(t *testing.T) {
	net, got := collectNet(t, 4, ConstantLatency(time.Millisecond))
	net.Partition([]NodeID{0, 1}, []NodeID{2, 3})
	// Within-group delivery works; cross-group is dropped.
	if err := net.Send(Message{From: 0, To: 1, Kind: "in", Size: 1}); err != nil {
		t.Fatal(err)
	}
	if err := net.Send(Message{From: 0, To: 2, Kind: "cross", Size: 1}); err != nil {
		t.Fatal(err)
	}
	net.RunUntilIdle()
	if len(*got) != 1 || (*got)[0].Kind != "in" {
		t.Fatalf("deliveries = %v", *got)
	}
	if net.DroppedCount() != 1 {
		t.Fatalf("DroppedCount() = %d", net.DroppedCount())
	}
	// Healing restores connectivity.
	net.Heal()
	if err := net.Send(Message{From: 0, To: 2, Kind: "cross", Size: 1}); err != nil {
		t.Fatal(err)
	}
	net.RunUntilIdle()
	if len(*got) != 2 {
		t.Fatal("cross-group message lost after Heal")
	}
}

func TestPartitionUngroupedNodesUnaffected(t *testing.T) {
	net, got := collectNet(t, 3, ConstantLatency(0))
	net.Partition([]NodeID{0}, []NodeID{1})
	// Node 2 is in no group: reachable by everyone.
	if err := net.Send(Message{From: 0, To: 2, Size: 1}); err != nil {
		t.Fatal(err)
	}
	if err := net.Send(Message{From: 1, To: 2, Size: 1}); err != nil {
		t.Fatal(err)
	}
	net.RunUntilIdle()
	if len(*got) != 2 {
		t.Fatalf("ungrouped node missed messages: %d", len(*got))
	}
}

func TestPartitionMidFlight(t *testing.T) {
	// A partition raised while a message is in flight drops it: the
	// network models a cut link, not a sender-side check.
	net, got := collectNet(t, 2, ConstantLatency(10*time.Millisecond))
	if err := net.Send(Message{From: 0, To: 1, Size: 1}); err != nil {
		t.Fatal(err)
	}
	net.After(time.Millisecond, func() {
		net.Partition([]NodeID{0}, []NodeID{1})
	})
	net.RunUntilIdle()
	if len(*got) != 0 {
		t.Fatal("in-flight message crossed a fresh partition")
	}
}

// TestScheduleMatchesReferenceQueue runs one seeded schedule on a Network
// and on a linear-scan reference queue, and requires both to execute the
// same events at the same virtual times. Every event's children (how many,
// callback or message, and the callback's delay) are a pure function of its
// id, with many equal timestamps and zero-delay children scheduled from
// inside handlers; the run is cut with Run(until) and resumed, under an
// instant network and under the experiments' link model.
func TestScheduleMatchesReferenceQueue(t *testing.T) {
	const (
		nodes = 16
		roots = 16
		limit = 1 << 18 // ids at or above it are never scheduled
	)
	type child struct {
		id    int
		send  bool
		to    NodeID
		size  int
		delay time.Duration // callbacks only: a message's delay is its latency
	}
	delays := []time.Duration{0, 0, 0, time.Millisecond, time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond, 13 * time.Millisecond}
	children := func(id int) []child {
		h := uint64(id)*0x9e3779b97f4a7c15 + 0x5851f42d4c957f2d
		h ^= h >> 29
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 32
		var out []child
		for j := 0; j < int(h%5); j++ {
			c := child{id: 4*id + roots + j}
			if c.id >= limit {
				break
			}
			r := h >> (8 + 7*j)
			c.send = r&1 == 1
			c.to = NodeID(r >> 1 % nodes)
			c.size = int(r>>5%64) * 100
			c.delay = delays[r>>3%uint64(len(delays))]
			out = append(out, c)
		}
		return out
	}
	type ran struct {
		id int
		at time.Duration
	}
	coords := RandomCoords(nodes, 60, blockcrypto.NewRNG(5))
	// reference executes the schedule on an unordered slice, taking the
	// minimum (at, seq) at every step.
	reference := func(model LatencyModel) []ran {
		type pending struct {
			at  time.Duration
			seq int
			id  int
		}
		var queue []pending
		var out []ran
		seq := 0
		add := func(at time.Duration, id int) {
			seq++
			queue = append(queue, pending{at, seq, id})
		}
		for id := 0; id < roots; id++ {
			add(0, id)
		}
		for len(queue) > 0 {
			m := 0
			for i, p := range queue {
				if p.at < queue[m].at || p.at == queue[m].at && p.seq < queue[m].seq {
					m = i
				}
			}
			e := queue[m]
			queue = append(queue[:m], queue[m+1:]...)
			out = append(out, ran{e.id, e.at})
			for _, c := range children(e.id) {
				if c.send {
					add(e.at+model.Latency(coords[e.id%nodes], coords[c.to], c.size), c.id)
				} else {
					add(e.at+c.delay, c.id)
				}
			}
		}
		return out
	}
	network := func(t *testing.T, model LatencyModel, cuts []time.Duration, want []ran) []ran {
		net := New(model)
		var out []ran
		var run func(id int)
		run = func(id int) {
			out = append(out, ran{id, net.Now()})
			for _, c := range children(id) {
				if !c.send {
					id := c.id
					net.After(c.delay, func() { run(id) })
					continue
				}
				m := Message{From: NodeID(id % nodes), To: c.to, Kind: "ref", Size: c.size, Payload: c.id}
				if err := net.Send(m); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < nodes; i++ {
			h := HandlerFunc(func(_ *Network, m Message) { run(m.Payload.(int)) })
			if err := net.AddNode(NodeID(i), h, coords[i]); err != nil {
				t.Fatal(err)
			}
		}
		for id := 0; id < roots; id++ {
			id := id
			net.After(0, func() { run(id) })
		}
		for _, cut := range cuts {
			net.Run(cut)
			due := 0
			for due < len(want) && want[due].at <= cut {
				due++
			}
			if len(out) != due || net.Pending() == 0 {
				t.Fatalf("Run(%v) executed %d events with %d pending, want %d executed and some pending", cut, len(out), net.Pending(), due)
			}
		}
		net.RunUntilIdle()
		return out
	}
	for _, tc := range []struct {
		name  string
		model func() LatencyModel
		cuts  []time.Duration
	}{
		{"instant", func() LatencyModel { return ConstantLatency(0) }, []time.Duration{2 * time.Millisecond, 13 * time.Millisecond, 20 * time.Millisecond}},
		{"link", func() LatencyModel { return NewLinkModel(23) }, []time.Duration{40 * time.Millisecond, 90 * time.Millisecond, 150 * time.Millisecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := reference(tc.model())
			if len(want) < 1000 {
				t.Fatalf("the schedule runs only %d events", len(want))
			}
			got := network(t, tc.model(), tc.cuts, want)
			if len(got) != len(want) {
				t.Fatalf("network ran %d events, reference %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("event %d: network ran %+v, reference %+v", i, got[i], want[i])
				}
			}
		})
	}
}
