// Package simnet is a deterministic discrete-event network simulator.
//
// Nodes are registered with message handlers and 2-D coordinates in latency
// space; Send schedules a delivery event after a latency computed from the
// link model, and Run drains the event queue in virtual-time order. All
// randomness flows from a seeded RNG, so identical seeds produce identical
// traces. The simulator also keeps complete traffic accounting (bytes and
// message counts per node and per message kind), which is what the
// communication-overhead experiments measure.
//
// The event engine is one binary min-heap of (at, seq) keys over a slab of
// recycled event slots (see DESIGN.md "Event engine"): events run in
// virtual-time order, ties in the order they were scheduled, and a
// send→deliver cycle performs zero allocations at steady state. Nodes and
// per-kind traffic live in plain maps.
package simnet

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"icistrategy/internal/trace"
)

// NodeID identifies a simulated node.
type NodeID uint64

// Simulation errors.
var (
	ErrUnknownNode   = errors.New("simnet: unknown node")
	ErrDuplicateNode = errors.New("simnet: node already registered")
	ErrNodeDown      = errors.New("simnet: node is down")
)

// Message is one network message. Size is the wire size in bytes used for
// bandwidth/latency accounting; Payload carries the in-memory content
// (never serialized — this is a simulator, not a codec).
type Message struct {
	From    NodeID
	To      NodeID
	Kind    string
	Size    int
	Payload any
	// Span is the trace-span context this message belongs to: the wire
	// event it produces, and any spans the receiver opens while handling
	// it, hang under this span. Zero means untraced.
	Span trace.SpanID
}

// Handler consumes messages delivered to a node.
type Handler interface {
	HandleMessage(net *Network, msg Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(net *Network, msg Message)

// HandleMessage calls f.
func (f HandlerFunc) HandleMessage(net *Network, msg Message) { f(net, msg) }

var _ Handler = HandlerFunc(nil)

// TrafficStats is the per-node traffic accounting snapshot.
type TrafficStats struct {
	BytesSent int64
	BytesRecv int64
	MsgsSent  int64
	MsgsRecv  int64
}

// KindStats aggregates traffic by message kind across the whole network.
type KindStats struct {
	Messages int64
	Bytes    int64
}

type nodeState struct {
	handler   Handler
	coord     Coord
	down      bool
	traffic   TrafficStats
	busyUntil time.Duration // uplink serialization horizon
}

// event is one scheduled simulator action: a delivery (scheduled by Send)
// or, when fn is set, a user callback (After, crash scripts). Events live in
// the network's flat pool slab and are addressed by index, never by
// pointer: Step releases every executed event back onto the free list and
// the schedulers reuse the slots, so the steady-state hot path allocates
// nothing and the slab only ever grows to the peak queue depth.
type event struct {
	sentAt time.Duration // delivery: virtual send time, for wire spans
	msg    Message       // delivery
	fn     func()        // callback; nil means the event is a delivery
	next   uint32        // free-list link (index into the pool slab)
}

// noEvent is the nil of pool indices (free-list terminator).
const noEvent = ^uint32(0)

// key is one slot of the event heap: the (at, seq) order key next to the
// event's index in the pool slab. seq is issued once per scheduled event,
// so no two keys are equal and the heap's minimum is always unique.
type key struct {
	at   time.Duration
	seq  uint64 // FIFO tie-break for equal timestamps
	slot uint32
}

func (a key) less(b key) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Network is the simulator. Create one with New; the zero value is not
// usable. Network is not safe for concurrent use: the simulation is
// single-threaded by design so that runs are reproducible.
type Network struct {
	now   time.Duration
	seq   uint64  // last issued tie-break
	queue []key   // binary min-heap of pending events by (at, seq)
	pool  []event // slab backing every queued event, addressed by index
	free  uint32  // head of the recycled-slot list (noEvent when empty)

	nodes   map[NodeID]*nodeState
	kinds   map[string]*KindStats
	latency LatencyModel

	delivered int64
	dropped   int64
	// uplinkBps, when positive, serializes each sender's outgoing
	// messages at this many bytes per second: a node with one access link
	// cannot transmit two large messages at once. The per-link latency
	// model is applied on top.
	uplinkBps float64
	// partition, when non-nil, maps nodes to partition groups; messages
	// between different groups are dropped at delivery time.
	partition map[NodeID]int
	// faults, when non-nil, injects message loss, duplication, reordering
	// and corruption (see faults.go).
	faults *faultState
	// tracing/trace record the event trace when EnableTrace was called.
	tracing bool
	trace   []TraceEvent
	// tracer, when non-nil, records one structured wire event per message
	// delivery (and per drop), parented under the message's Span context.
	tracer *trace.Tracer
}

// SetTracer attaches a structured tracer; every message delivery then emits
// a "net" wire event under the message's span context. The tracer's clock
// is pointed at the network's virtual clock, so recorded timestamps are
// deterministic for a fixed seed.
func (n *Network) SetTracer(tr *trace.Tracer) {
	n.tracer = tr
	tr.SetClock(n.Now)
}

// Tracer returns the attached structured tracer (nil when tracing is off —
// a valid disabled tracer).
func (n *Network) Tracer() *trace.Tracer { return n.tracer }

// Partition splits the network: each slice of ids becomes one group, and
// messages crossing group boundaries are silently dropped (counted as
// dropped). Nodes in no group can talk to everyone. Call Heal to remove
// the partition.
func (n *Network) Partition(groups ...[]NodeID) {
	n.partition = make(map[NodeID]int)
	for g, ids := range groups {
		for _, id := range ids {
			n.partition[id] = g + 1
		}
	}
}

// Heal removes any partition.
func (n *Network) Heal() { n.partition = nil }

// reachable reports whether a message from a to b crosses a partition.
func (n *Network) reachable(a, b NodeID) bool {
	if n.partition == nil {
		return true
	}
	ga, gb := n.partition[a], n.partition[b]
	if ga == 0 || gb == 0 {
		return true
	}
	return ga == gb
}

// SetUplinkBandwidth enables sender-side uplink serialization at the given
// bytes per second (0 disables it). Enable it for experiments where a
// single node fanning out large payloads is the bottleneck — e.g. a block
// producer unicasting a block to many cluster leaders.
func (n *Network) SetUplinkBandwidth(bytesPerSec float64) {
	n.uplinkBps = bytesPerSec
}

// New creates an empty network using the given latency model.
func New(model LatencyModel) *Network {
	return &Network{
		latency: model,
		nodes:   make(map[NodeID]*nodeState),
		kinds:   make(map[string]*KindStats),
		free:    noEvent,
	}
}

// Now returns the current virtual time.
func (n *Network) Now() time.Duration { return n.now }

// AddNode registers a node with its handler and latency-space coordinate.
func (n *Network) AddNode(id NodeID, handler Handler, coord Coord) error {
	if n.nodes[id] != nil {
		return fmt.Errorf("%w: %d", ErrDuplicateNode, id)
	}
	n.nodes[id] = &nodeState{handler: handler, coord: coord}
	return nil
}

// SetHandler replaces a node's handler (used when a node restarts with new
// state).
func (n *Network) SetHandler(id NodeID, handler Handler) error {
	st := n.nodes[id]
	if st == nil {
		return fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	st.handler = handler
	return nil
}

// Coordinate returns the node's latency-space coordinate.
func (n *Network) Coordinate(id NodeID) (Coord, error) {
	st := n.nodes[id]
	if st == nil {
		return Coord{}, fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	return st.coord, nil
}

// NumNodes returns the number of registered nodes (up or down).
func (n *Network) NumNodes() int { return len(n.nodes) }

// SetDown marks a node as failed (true) or recovered (false). Messages to a
// down node are dropped; a down node cannot send.
func (n *Network) SetDown(id NodeID, down bool) error {
	st := n.nodes[id]
	if st == nil {
		return fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	st.down = down
	return nil
}

// IsDown reports whether the node is currently failed.
func (n *Network) IsDown(id NodeID) bool {
	st := n.nodes[id]
	return st != nil && st.down
}

// Send schedules delivery of msg after the link latency. Sending accounts
// the bytes immediately (the sender pays the uplink even if the receiver is
// down when the message lands).
func (n *Network) Send(msg Message) error {
	src := n.nodes[msg.From]
	if src == nil {
		return fmt.Errorf("send from %w: %d", ErrUnknownNode, msg.From)
	}
	if src.down {
		return fmt.Errorf("send: %w: %d", ErrNodeDown, msg.From)
	}
	dst := n.nodes[msg.To]
	if dst == nil {
		return fmt.Errorf("send to %w: %d", ErrUnknownNode, msg.To)
	}
	src.traffic.BytesSent += int64(msg.Size)
	src.traffic.MsgsSent++
	ks := n.kinds[msg.Kind]
	if ks == nil {
		ks = &KindStats{}
		n.kinds[msg.Kind] = ks
	}
	ks.Messages++
	ks.Bytes += int64(msg.Size)

	n.traceMsg("send", msg)

	delay := n.latency.Latency(src.coord, dst.coord, msg.Size)
	if delay < 0 {
		delay = 0
	}
	depart := n.now
	if n.uplinkBps > 0 {
		if src.busyUntil > depart {
			depart = src.busyUntil
		}
		txTime := time.Duration(float64(msg.Size) / n.uplinkBps * float64(time.Second))
		depart += txTime
		src.busyUntil = depart
	}
	// Chaos layer: the sender has paid its uplink by now; whatever the
	// fault model does happens on the wire. Guarded here so the fault-free
	// hot path never pays applyFaults' Message copies.
	var extra, dupExtra time.Duration
	var dup bool
	if n.faults != nil {
		var dropped bool
		msg, extra, dup, dupExtra, dropped = n.applyFaults(msg)
		if dropped {
			n.spanEvent(msg, n.now, "lost")
			return nil
		}
	}
	sentAt := n.now
	n.schedule(depart+delay+extra, event{msg: msg, sentAt: sentAt})
	if dup {
		n.schedule(depart+delay+dupExtra, event{msg: msg, sentAt: sentAt})
	}
	return nil
}

// deliver lands one message on its receiver (the second half of Send,
// shared with fault-injected duplicate copies). sentAt is the virtual time
// the sender handed the message to the network, kept for the wire-event
// span so transit time is visible in traces.
func (n *Network) deliver(msg Message, sentAt time.Duration) {
	st := n.nodes[msg.To]
	if st == nil || st.down || st.handler == nil || !n.reachable(msg.From, msg.To) {
		n.dropped++
		n.traceMsg("drop", msg)
		n.spanEvent(msg, sentAt, "dropped")
		return
	}
	st.traffic.BytesRecv += int64(msg.Size)
	st.traffic.MsgsRecv++
	n.delivered++
	n.traceMsg("recv", msg)
	n.spanEvent(msg, sentAt, "")
	st.handler.HandleMessage(n, msg)
}

// spanEvent records one "net" wire event for a message under its span
// context, spanning send→deliver in virtual time.
func (n *Network) spanEvent(msg Message, sentAt time.Duration, errStr string) {
	if !n.tracer.Enabled() {
		return
	}
	n.tracer.Emit(trace.Event{
		Parent: msg.Span,
		Name:   msg.Kind,
		Proto:  "net",
		Node:   int64(msg.To),
		Start:  sentAt,
		End:    n.now,
		Bytes:  int64(msg.Size),
		Err:    errStr,
		Point:  true,
	})
}

// After schedules fn, which must not be nil, to run after d of virtual
// time.
func (n *Network) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	n.schedule(n.now+d, event{fn: fn})
}

// schedule stores e in a recycled pool slot (or grows the slab by one) and
// queues it at virtual time at, after every event already queued for the
// same instant.
func (n *Network) schedule(at time.Duration, e event) {
	i := n.free
	if i != noEvent {
		n.free = n.pool[i].next
		n.pool[i] = e
	} else {
		i = uint32(len(n.pool))
		n.pool = append(n.pool, e)
	}
	n.seq++
	n.push(key{at: at, seq: n.seq, slot: i})
}

// releaseEvent zeroes the slot (dropping any payload/closure reference so
// the pool never pins handler state) and pushes it onto the free list.
func (n *Network) releaseEvent(i uint32) {
	n.pool[i] = event{next: n.free}
	n.free = i
}

// push adds k to the heap and sifts it up past every parent it precedes.
// Not container/heap: its Push boxes every key, one allocation an event.
func (n *Network) push(k key) {
	q := append(n.queue, k)
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q[i].less(q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	n.queue = q
}

// pop removes and returns the heap's minimum: the last key moves to the
// root and sifts down past every child that precedes it. The queue must be
// non-empty.
func (n *Network) pop() key {
	q := n.queue
	top, last := q[0], len(q)-1
	q[0] = q[last]
	q = q[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(q) {
			break
		}
		if c+1 < len(q) && q[c+1].less(q[c]) {
			c++
		}
		if !q[c].less(q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	n.queue = q
	return top
}

// Step executes the next pending event, returning false when the queue is
// empty.
func (n *Network) Step() bool {
	if len(n.queue) == 0 {
		return false
	}
	k := n.pop()
	if k.at > n.now {
		n.now = k.at
	}
	// Copy what the action needs and recycle the slot before running it,
	// so the work it schedules reuses the slot immediately.
	e := &n.pool[k.slot]
	if fn := e.fn; fn != nil {
		n.releaseEvent(k.slot)
		fn()
		return true
	}
	msg, sentAt := e.msg, e.sentAt
	n.releaseEvent(k.slot)
	n.deliver(msg, sentAt)
	return true
}

// Run drains events until the queue is empty or virtual time would exceed
// until (0 means no limit). It returns the number of events executed.
func (n *Network) Run(until time.Duration) int {
	executed := 0
	for len(n.queue) > 0 {
		if until > 0 && n.queue[0].at > until {
			break
		}
		n.Step()
		executed++
	}
	return executed
}

// RunUntilIdle drains the entire event queue.
func (n *Network) RunUntilIdle() int { return n.Run(0) }

// Pending returns the number of queued events.
func (n *Network) Pending() int { return len(n.queue) }

// Traffic returns the traffic snapshot for one node.
func (n *Network) Traffic(id NodeID) (TrafficStats, error) {
	st := n.nodes[id]
	if st == nil {
		return TrafficStats{}, fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	return st.traffic, nil
}

// TotalTraffic sums traffic across all nodes.
func (n *Network) TotalTraffic() TrafficStats {
	var t TrafficStats
	for _, st := range n.nodes {
		t.BytesSent += st.traffic.BytesSent
		t.BytesRecv += st.traffic.BytesRecv
		t.MsgsSent += st.traffic.MsgsSent
		t.MsgsRecv += st.traffic.MsgsRecv
	}
	return t
}

// KindTraffic returns a copy of the per-kind aggregate for kind.
func (n *Network) KindTraffic(kind string) KindStats {
	if ks := n.kinds[kind]; ks != nil {
		return *ks
	}
	return KindStats{}
}

// Kinds returns all message kinds with traffic observed since the last
// ResetTraffic, sorted so that iteration-driven reports render identically
// across runs.
func (n *Network) Kinds() []string {
	out := make([]string, 0, len(n.kinds))
	for k, ks := range n.kinds {
		if ks.Messages != 0 {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// DeliveredCount and DroppedCount expose delivery accounting for tests and
// experiment sanity checks.
func (n *Network) DeliveredCount() int64 { return n.delivered }

// DroppedCount returns the number of messages dropped because the receiver
// was down at delivery time.
func (n *Network) DroppedCount() int64 { return n.dropped }

// ResetTraffic zeroes all traffic accounting (per-node and per-kind) while
// leaving topology and time untouched. Experiments use it to measure a
// single phase. Zeroed kinds drop out of Kinds until seen again.
func (n *Network) ResetTraffic() {
	for _, st := range n.nodes {
		st.traffic = TrafficStats{}
	}
	for _, ks := range n.kinds {
		*ks = KindStats{}
	}
	n.delivered = 0
	n.dropped = 0
	if n.faults != nil {
		n.faults.stats = FaultStats{}
	}
}
