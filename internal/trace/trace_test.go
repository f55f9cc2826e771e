package trace

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock returns a settable deterministic clock for tests.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) fn() func() time.Duration { return func() time.Duration { return c.now } }

func TestDisabledTracerIsNoOp(t *testing.T) {
	var tr *Tracer // nil tracer: fully disabled
	if tr.Enabled() {
		t.Fatal("nil tracer reports Enabled")
	}
	sp := tr.Start(0, "retrieve", "retrieve", 3)
	if sp.Active() {
		t.Fatal("span from nil tracer is active")
	}
	if sp.Context() != 0 {
		t.Fatalf("span from nil tracer has context %d", sp.Context())
	}
	// None of these may panic.
	sp.AddBytes(100)
	sp.SetErr(fmt.Errorf("boom"))
	sp.End()
	sp.End()
	tr.Point(0, "retrieve", "x", 1, 0, "")
	tr.Emit(Event{Name: "x"})
	tr.SetClock(func() time.Duration { return 0 })

	if got := New(nil); got != nil {
		t.Fatal("New(nil) should return a nil (disabled) tracer")
	}
}

func TestSpanLifecycle(t *testing.T) {
	ring := NewRing(16)
	tr := New(ring)
	clk := &fakeClock{}
	tr.SetClock(clk.fn())

	root := tr.Start(0, "distribute", "produce", 0)
	clk.now = 5 * time.Millisecond
	child := tr.Start(root.Context(), "verify", "chunk", 2)
	child.AddBytes(128)
	child.SetErr(fmt.Errorf("bad proof"))
	clk.now = 7 * time.Millisecond
	child.End()
	child.End() // idempotent
	root.AddBytes(1000)
	clk.now = 9 * time.Millisecond
	root.End()

	evs := ring.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	// Children end before parents, so the child is recorded first.
	c, r := evs[0], evs[1]
	if c.Parent != r.ID {
		t.Fatalf("child parent %d != root id %d", c.Parent, r.ID)
	}
	if c.Name != "chunk" || c.Proto != "verify" || c.Node != 2 {
		t.Fatalf("child labels wrong: %+v", c)
	}
	if c.Bytes != 128 || c.Err != "bad proof" {
		t.Fatalf("child annotations wrong: %+v", c)
	}
	if c.Start != 5*time.Millisecond || c.End != 7*time.Millisecond {
		t.Fatalf("child times wrong: %+v", c)
	}
	if r.Start != 0 || r.End != 9*time.Millisecond || r.Bytes != 1000 {
		t.Fatalf("root wrong: %+v", r)
	}
}

func TestPointEvent(t *testing.T) {
	ring := NewRing(4)
	tr := New(ring)
	clk := &fakeClock{now: 3 * time.Second}
	tr.SetClock(clk.fn())
	tr.Point(7, "consensus", "vote", 5, 64, "")
	evs := ring.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events", len(evs))
	}
	e := evs[0]
	if !e.Point || e.Parent != 7 || e.Start != e.End || e.Start != 3*time.Second || e.Bytes != 64 {
		t.Fatalf("point event wrong: %+v", e)
	}
}

func TestRingWraparound(t *testing.T) {
	ring := NewRing(4)
	for i := 0; i < 10; i++ {
		ring.Record(Event{ID: SpanID(i + 1)})
	}
	if got := ring.Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	evs := ring.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, e := range evs {
		want := SpanID(7 + i) // oldest retained is the 7th record
		if e.ID != want {
			t.Fatalf("event %d has ID %d, want %d (oldest-first order)", i, e.ID, want)
		}
	}

	ring.Reset()
	if ring.Total() != 0 || len(ring.Events()) != 0 {
		t.Fatal("Reset did not clear the ring")
	}

	// Capacity is clamped to at least one slot.
	tiny := NewRing(0)
	tiny.Record(Event{ID: 1})
	tiny.Record(Event{ID: 2})
	if evs := tiny.Events(); len(evs) != 1 || evs[0].ID != 2 {
		t.Fatalf("clamped ring wrong: %+v", evs)
	}
}

func TestConcurrentEmission(t *testing.T) {
	// Hammer one tracer+ring from many goroutines; run under -race this
	// validates the recorder's locking and the atomic ID allocation.
	ring := NewRing(256)
	tr := New(ring)
	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sp := tr.Start(0, "netx", "req", int64(w))
				sp.AddBytes(int64(i))
				sp.End()
				tr.Point(sp.Context(), "netx", "resp", int64(w), 1, "")
			}
		}(w)
	}
	wg.Wait()
	if got := ring.Total(); got != workers*perWorker*2 {
		t.Fatalf("Total = %d, want %d", got, workers*perWorker*2)
	}
	seen := make(map[SpanID]bool)
	for _, e := range ring.Events() {
		if e.ID == 0 {
			t.Fatal("recorded event with zero ID")
		}
		if seen[e.ID] {
			t.Fatalf("duplicate span ID %d", e.ID)
		}
		seen[e.ID] = true
	}
}

func TestSummarize(t *testing.T) {
	evs := []Event{
		{ID: 1, Name: "produce", Proto: "distribute", Node: 0, Start: 0, End: 10 * time.Millisecond, Bytes: 500},
		{ID: 2, Parent: 1, Name: "ici/chunk", Proto: "net", Node: 1, Bytes: 200},
		{ID: 3, Parent: 2, Name: "verify", Proto: "verify", Node: 1, Start: 2 * time.Millisecond, End: 4 * time.Millisecond},
		{ID: 4, Parent: 3, Name: "vote", Proto: "consensus", Node: 1, Point: true},
		{ID: 5, Parent: 1, Name: "ici/vote", Proto: "net", Node: 0, Bytes: 64, Err: "dropped"},
		{ID: 6, Name: "retrieve", Proto: "retrieve", Node: 2, Start: 0, End: 30 * time.Millisecond, Err: "timeout"},
	}
	phases := Summarize(evs)
	find := func(name string) PhaseStats {
		for _, p := range phases {
			if p.Proto == name {
				return p
			}
		}
		t.Fatalf("phase %q missing from %+v", name, phases)
		return PhaseStats{}
	}
	d := find("distribute")
	if d.Spans != 1 || d.Bytes != 500 {
		t.Fatalf("distribute: %+v", d)
	}
	// Both wire events hang under the distribute root (one directly, one via
	// nothing between), so they attribute there.
	if d.WireMsgs != 2 || d.WireBytes != 264 || d.Errs != 1 {
		t.Fatalf("distribute wire attribution: %+v", d)
	}
	v := find("verify")
	if v.Spans != 1 || v.MeanLatency != 2*time.Millisecond || v.MaxLatency != 2*time.Millisecond {
		t.Fatalf("verify: %+v", v)
	}
	c := find("consensus")
	if c.Points != 1 || c.Spans != 0 {
		t.Fatalf("consensus: %+v", c)
	}
	r := find("retrieve")
	if r.Errs != 1 || r.MeanLatency != 30*time.Millisecond {
		t.Fatalf("retrieve: %+v", r)
	}
	// Sorted by name.
	for i := 1; i < len(phases); i++ {
		if phases[i-1].Proto > phases[i].Proto {
			t.Fatalf("phases not sorted: %+v", phases)
		}
	}
}

func TestSummarizeOrphanWireEvent(t *testing.T) {
	// A wire event whose ancestors were evicted from the ring attributes to
	// its own proto instead of being lost.
	evs := []Event{{ID: 9, Parent: 4, Name: "ici/chunk", Proto: "net", Bytes: 10}}
	phases := Summarize(evs)
	if len(phases) != 1 || phases[0].Proto != "net" || phases[0].WireMsgs != 1 {
		t.Fatalf("orphan wire event: %+v", phases)
	}
}

func TestTreeRendering(t *testing.T) {
	evs := []Event{
		{ID: 3, Parent: 1, Name: "verify", Proto: "verify", Node: 1, Start: 2 * time.Millisecond, End: 4 * time.Millisecond},
		{ID: 1, Name: "produce", Proto: "distribute", Node: 0, Start: 0, End: 10 * time.Millisecond, Bytes: 500},
		{ID: 2, Parent: 1, Name: "ici/chunk", Proto: "net", Node: 1, Bytes: 200},
		{ID: 4, Parent: 3, Name: "vote", Proto: "consensus", Node: 1, Point: true, Start: 3 * time.Millisecond, End: 3 * time.Millisecond},
	}
	out := Tree(evs)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "distribute/produce") {
		t.Fatalf("root line: %q", lines[0])
	}
	if !strings.Contains(lines[0], "wire=1 msgs/200B") {
		t.Fatalf("wire rollup missing: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "  verify/verify") {
		t.Fatalf("child indentation: %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "    consensus/vote") || !strings.Contains(lines[2], "@3ms") {
		t.Fatalf("point rendering: %q", lines[2])
	}
}

func TestTreeOrphanBecomesRoot(t *testing.T) {
	evs := []Event{{ID: 5, Parent: 2, Name: "verify", Proto: "verify", Node: 1}}
	out := Tree(evs)
	if !strings.HasPrefix(out, "verify/verify") {
		t.Fatalf("orphan should render as root:\n%s", out)
	}
}
