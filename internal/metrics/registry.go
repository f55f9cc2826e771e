package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Registry names and enumerates metrics so every component dumps a
// consistent snapshot instead of ad-hoc struct fields. Names are dotted
// paths by convention ("ici.retrieve.rounds", "consensus.votes"); Counter
// is get-or-create, so independent instrumentation sites sharing a name
// share the counter.
//
// Registry is safe for concurrent use, and the Counters it hands out are
// atomic.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{counters: make(map[string]*Counter)}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a throwaway counter so uninstrumented call sites need no
// nil checks.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &Counter{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Snapshot returns every counter value keyed by name — the stable map the
// JSON dump and experiment tables are built from.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.counters))
	for n, c := range r.counters {
		out[n] = float64(c.Value())
	}
	return out
}

// JSON renders the snapshot as a deterministic (name-sorted) expvar-style
// JSON object — what the -metrics flag dumps.
func (r *Registry) JSON() string {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("{\n")
	for i, n := range names {
		if i > 0 {
			b.WriteString(",\n")
		}
		fmt.Fprintf(&b, "  %q: %s", n, trimFloat(snap[n]))
	}
	b.WriteString("\n}\n")
	return b.String()
}
