// Package trace is the structured protocol-tracing layer of the repo: a
// span/event API that every ICI protocol path (distribution, verification,
// retrieval, bootstrap, repair, coded archival), the consensus vote rounds,
// the discrete-event simulator, and the real-TCP layer emit into.
//
// A Span covers one logical operation (one block's distribution, one
// retrieval) and may have children: the span context (a SpanID) rides on
// simnet messages, so a block's whole fan-out — chunk sends, verify spans
// on members, votes, the commit broadcast — hangs under one root and can be
// read as a single tree. Point events record instantaneous facts (a vote
// counted, a share stored) inside the same tree.
//
// Tracing is opt-in and built to cost nothing when off: the zero Span is a
// valid no-op, every Tracer method is nil-receiver-safe, and instrumented
// code guards its span construction behind Enabled(). The Ring recorder
// (ring.go) keeps the last N events under a single short-critical-section
// mutex, so concurrent emitters (the TCP layer) stay race-free while the
// single-threaded simulator pays only the uncontended lock.
//
// Determinism: span IDs are assigned in emission order and timestamps come
// from the tracer's clock. With the simulator's virtual clock, two runs of
// the same seeded simulation produce byte-identical event sequences — the
// property the determinism tests pin.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// SpanID identifies one span in a trace. 0 means "no span" (a root, or a
// disabled tracer) and is never assigned.
type SpanID uint64

// Event is one recorded trace record: a completed span, or a point event
// (Point true, End == Start).
type Event struct {
	// ID is the event's own span ID; Parent links it into the tree (0 for
	// roots).
	ID     SpanID
	Parent SpanID
	// Name is the operation, e.g. "retrieve" or "ici/chunk".
	Name string
	// Proto is the protocol-family label phases aggregate by: "distribute",
	// "verify", "retrieve", "bootstrap", "repair", "archive", "consensus",
	// "net", "netx".
	Proto string
	// Node is the emitting node's ID, or -1 when no node applies.
	Node int64
	// Start and End are clock readings (virtual time in the simulator,
	// wall time since setup on the TCP path).
	Start, End time.Duration
	// Bytes annotates the event with a payload size (wire bytes for message
	// events, body bytes for protocol ops).
	Bytes int64
	// Err is the outcome annotation: empty for success.
	Err string
	// Point marks an instantaneous event.
	Point bool
}

// Recorder consumes completed events. Implementations must be safe for
// concurrent use.
type Recorder interface {
	Record(Event)
}

// Tracer mints spans and forwards completed events to its recorder. A nil
// *Tracer is a valid, disabled tracer: every method is nil-receiver-safe
// and Start returns the no-op zero Span, so instrumented code needs no
// branching beyond what the method calls already do.
type Tracer struct {
	rec    Recorder
	nextID atomic.Uint64
	// clock is read at span start/end. Stored atomically so a System can
	// re-point an already-shared tracer at its virtual clock.
	clock atomic.Value // func() time.Duration
}

// New creates a tracer emitting into rec. A nil rec yields a disabled
// tracer (identical to a nil *Tracer). Its clock reads 0 until SetClock
// installs one.
func New(rec Recorder) *Tracer {
	if rec == nil {
		return nil
	}
	t := &Tracer{rec: rec}
	t.clock.Store(func() time.Duration { return 0 })
	return t
}

// SetClock replaces the tracer's time source. The discrete-event simulator
// installs its virtual clock here so span timestamps are deterministic; a
// command's -trace tracer gets wall time since setup (obs.Setup).
func (t *Tracer) SetClock(clock func() time.Duration) {
	if t == nil || clock == nil {
		return
	}
	t.clock.Store(clock)
}

// Enabled reports whether spans will be recorded.
func (t *Tracer) Enabled() bool { return t != nil && t.rec != nil }

func (t *Tracer) now() time.Duration {
	return t.clock.Load().(func() time.Duration)()
}

// Start opens a span under parent (0 for a root). On a disabled tracer it
// returns the zero Span, whose every method is a no-op.
func (t *Tracer) Start(parent SpanID, proto, name string, node int64) Span {
	if !t.Enabled() {
		return Span{}
	}
	return Span{
		tr:     t,
		id:     SpanID(t.nextID.Add(1)),
		parent: parent,
		proto:  proto,
		name:   name,
		node:   node,
		start:  t.now(),
	}
}

// Point records an instantaneous event under parent.
func (t *Tracer) Point(parent SpanID, proto, name string, node int64, bytes int64, err string) {
	if !t.Enabled() {
		return
	}
	now := t.now()
	t.rec.Record(Event{
		ID:     SpanID(t.nextID.Add(1)),
		Parent: parent,
		Name:   name,
		Proto:  proto,
		Node:   node,
		Start:  now,
		End:    now,
		Bytes:  bytes,
		Err:    err,
		Point:  true,
	})
}

// Emit records a fully-formed event, assigning its ID. The simulator uses
// it for message-delivery events whose start time predates the call.
func (t *Tracer) Emit(e Event) {
	if !t.Enabled() {
		return
	}
	e.ID = SpanID(t.nextID.Add(1))
	t.rec.Record(e)
}

// Span is one in-flight operation. The zero Span (from a disabled tracer)
// is valid: every method is a no-op and Context returns 0.
type Span struct {
	tr     *Tracer
	id     SpanID
	parent SpanID
	proto  string
	name   string
	node   int64
	start  time.Duration
	bytes  int64
	err    string
	ended  bool
}

// Active reports whether the span will record anything.
func (s *Span) Active() bool { return s.tr != nil && !s.ended }

// Context returns the span's ID for propagation (onto messages, to child
// spans); 0 when disabled.
func (s *Span) Context() SpanID { return s.id }

// AddBytes accumulates payload bytes onto the span.
func (s *Span) AddBytes(n int64) {
	if s.tr != nil {
		s.bytes += n
	}
}

// SetErr annotates the span's outcome; a nil error clears it.
func (s *Span) SetErr(err error) {
	if s.tr == nil {
		return
	}
	if err == nil {
		s.err = ""
	} else {
		s.err = err.Error()
	}
}

// End completes the span and records it. End is idempotent — protocol
// callbacks with multiple terminal paths can all call it safely.
func (s *Span) End() {
	if s.tr == nil || s.ended {
		return
	}
	s.ended = true
	s.tr.rec.Record(Event{
		ID:     s.id,
		Parent: s.parent,
		Name:   s.name,
		Proto:  s.proto,
		Node:   s.node,
		Start:  s.start,
		End:    s.tr.now(),
		Bytes:  s.bytes,
		Err:    s.err,
	})
}

// --- aggregation -------------------------------------------------------------

// PhaseStats is the per-protocol-phase rollup Summarize produces: how many
// spans and point events a phase recorded, the wire traffic attributed to
// its trees, and the span-latency profile.
type PhaseStats struct {
	Proto string
	// Spans counts completed (non-point, non-wire) spans of this phase.
	Spans int
	// Points counts instantaneous events of this phase.
	Points int
	// Bytes sums the Bytes annotation of the phase's own spans and points.
	Bytes int64
	// WireMsgs / WireBytes count "net"-proto message events whose span tree
	// roots in this phase — the communication the phase actually caused.
	WireMsgs  int
	WireBytes int64
	// Errs counts events with a non-empty Err.
	Errs int
	// MeanLatency / MaxLatency profile the phase's span durations.
	MeanLatency time.Duration
	MaxLatency  time.Duration
}

// Summarize rolls events up into one PhaseStats per Proto label, with wire
// traffic ("net"/"netx" message events) attributed to the protocol phase
// their span tree hangs under. Phases are returned sorted by name. Events
// whose parents were evicted from a wrapped ring attribute to their own
// proto.
func Summarize(events []Event) []PhaseStats {
	proto := make(map[SpanID]string, len(events))
	parent := make(map[SpanID]SpanID, len(events))
	for _, e := range events {
		proto[e.ID] = e.Proto
		parent[e.ID] = e.Parent
	}
	// phaseOf resolves a wire event to the nearest ancestor with a
	// non-wire proto label.
	phaseOf := func(e Event) string {
		p := e.Parent
		for hops := 0; hops < 64 && p != 0; hops++ {
			if pr, ok := proto[p]; ok && pr != "net" && pr != "netx" {
				return pr
			}
			p = parent[p]
		}
		return e.Proto
	}
	acc := make(map[string]*PhaseStats)
	get := func(name string) *PhaseStats {
		ps, ok := acc[name]
		if !ok {
			ps = &PhaseStats{Proto: name}
			acc[name] = ps
		}
		return ps
	}
	var latSum = make(map[string]time.Duration)
	for _, e := range events {
		if e.Proto == "net" || e.Proto == "netx" {
			ps := get(phaseOf(e))
			ps.WireMsgs++
			ps.WireBytes += e.Bytes
			if e.Err != "" {
				ps.Errs++
			}
			continue
		}
		ps := get(e.Proto)
		if e.Err != "" {
			ps.Errs++
		}
		ps.Bytes += e.Bytes
		if e.Point {
			ps.Points++
			continue
		}
		ps.Spans++
		d := e.End - e.Start
		latSum[e.Proto] += d
		if d > ps.MaxLatency {
			ps.MaxLatency = d
		}
	}
	out := make([]PhaseStats, 0, len(acc))
	for name, ps := range acc {
		if ps.Spans > 0 {
			ps.MeanLatency = latSum[name] / time.Duration(ps.Spans)
		}
		out = append(out, *ps)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Proto < out[j].Proto })
	return out
}

// Tree renders events as an indented span forest in start order — the
// human-readable trace dump -trace prints under -verbose. Wire ("net")
// events collapse into a per-parent message count to keep dumps readable.
func Tree(events []Event) string {
	children := make(map[SpanID][]Event)
	known := make(map[SpanID]bool, len(events))
	for _, e := range events {
		if !e.Point || e.Proto != "net" {
			known[e.ID] = true
		}
	}
	wireCount := make(map[SpanID]int)
	wireBytes := make(map[SpanID]int64)
	var roots []Event
	for _, e := range events {
		if e.Proto == "net" {
			wireCount[e.Parent]++
			wireBytes[e.Parent] += e.Bytes
			continue
		}
		if e.Parent != 0 && known[e.Parent] {
			children[e.Parent] = append(children[e.Parent], e)
		} else {
			roots = append(roots, e)
		}
	}
	byStart := func(evs []Event) {
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].Start != evs[j].Start {
				return evs[i].Start < evs[j].Start
			}
			return evs[i].ID < evs[j].ID
		})
	}
	byStart(roots)
	var b strings.Builder
	var render func(e Event, depth int)
	render = func(e Event, depth int) {
		fmt.Fprintf(&b, "%s%s/%s node=%d", strings.Repeat("  ", depth), e.Proto, e.Name, e.Node)
		if e.Point {
			fmt.Fprintf(&b, " @%v", e.Start)
		} else {
			fmt.Fprintf(&b, " %v..%v (%v)", e.Start, e.End, e.End-e.Start)
		}
		if e.Bytes > 0 {
			fmt.Fprintf(&b, " %dB", e.Bytes)
		}
		if e.Err != "" {
			fmt.Fprintf(&b, " err=%q", e.Err)
		}
		if wc := wireCount[e.ID]; wc > 0 {
			fmt.Fprintf(&b, " wire=%d msgs/%dB", wc, wireBytes[e.ID])
		}
		b.WriteByte('\n')
		kids := children[e.ID]
		byStart(kids)
		for _, k := range kids {
			render(k, depth+1)
		}
	}
	for _, r := range roots {
		render(r, 0)
	}
	return b.String()
}
