package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/gateway"
	"icistrategy/internal/netx"
)

// Spans are recorded from the benchmark's own files, around each call it
// makes into a layer: kept in memory while the traced phase runs, written
// to bench/out/trace-<workload>.json when the run ends. The traced phase
// never feeds an end-to-end number.

// span is one recorded call. Start and End are nanoseconds since the
// tracer was created; Req is shared by every span of one client request.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
}

type tracer struct {
	t0     time.Time
	on     atomic.Bool
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open is a span that has started and not ended. The zero value (tracing
// off) is valid and records nothing.
type open struct {
	t  *tracer
	sp span
}

// begin starts a span; parent 0 makes it a root, whose ID is also its
// request ID.
func (t *tracer) begin(name string, parent, req uint64) open {
	if t == nil || !t.on.Load() {
		return open{}
	}
	id := t.nextID.Add(1)
	if parent == 0 {
		req = id
	}
	return open{t: t, sp: span{Name: name, Start: int64(time.Since(t.t0)), ID: id, Parent: parent, Req: req}}
}

func (o open) end() {
	if o.t == nil {
		return
	}
	o.sp.End = int64(time.Since(o.t.t0))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.sp)
	o.t.mu.Unlock()
}

// enable switches recording; a nil tracer stays off.
func (t *tracer) enable(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeTrace stores the spans of one workload's traced phase.
func writeTrace(workload string, seed uint64, spans []span) (string, error) {
	dir := filepath.Join(benchDir(), "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, nil
}

// selfTimes attributes every instant of every root span to exactly one
// name: the child span running at that instant (the one that started last,
// when several overlap — parallel fetches to several peers), or the root's
// own name when none is. The shares therefore sum to the traced end-to-end
// time, and a layer's self time is its span minus what its children cover.
// It returns time per name and the total root time.
func selfTimes(spans []span) (byName map[string]time.Duration, total time.Duration) {
	byName = make(map[string]time.Duration)
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, root := range spans {
		if root.Parent != 0 {
			continue
		}
		total += time.Duration(root.End - root.Start)
		kids := children[root.ID]
		cuts := []int64{root.Start, root.End}
		for _, k := range kids {
			cuts = append(cuts, clamp(k.Start, root.Start, root.End), clamp(k.End, root.Start, root.End))
		}
		sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
		for i := 0; i+1 < len(cuts); i++ {
			lo, hi := cuts[i], cuts[i+1]
			if lo == hi {
				continue
			}
			name, latest := root.Name, int64(-1)
			for _, k := range kids {
				if k.Start <= lo && k.End >= hi && k.Start > latest {
					name, latest = k.Name, k.Start
				}
			}
			byName[name] += time.Duration(hi - lo)
		}
	}
	return byName, total
}

func clamp(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// tracedUpstream wraps the gateway's upstream (a public interface) and
// records a span around each call the gateway makes into the storage
// cluster. The gateway serves a request on its own goroutine, so the span
// of the client call that caused an upstream call is found by block hash:
// clients announce the block they are about to read with enter.
type tracedUpstream struct {
	gateway.Upstream
	t        *tracer
	inflight sync.Map // blockcrypto.Hash -> open (the client call's span)
}

func (u *tracedUpstream) enter(block blockcrypto.Hash, o open) { u.inflight.Store(block, o) }
func (u *tracedUpstream) leave(block blockcrypto.Hash)         { u.inflight.Delete(block) }

func (u *tracedUpstream) begin(name string, block blockcrypto.Hash) open {
	if !u.t.on.Load() {
		return open{}
	}
	if v, ok := u.inflight.Load(block); ok {
		parent := v.(open).sp
		return u.t.begin(name, parent.ID, parent.Req)
	}
	return open{} // a request that ended already (its coalesced twin left first)
}

func (u *tracedUpstream) Parts(block blockcrypto.Hash) (int, error) {
	defer u.begin("upstream.parts", block).end()
	return u.Upstream.Parts(block)
}

func (u *tracedUpstream) Owners(block blockcrypto.Hash, idx int) ([]int, error) {
	defer u.begin("upstream.owners", block).end()
	return u.Upstream.Owners(block, idx)
}

func (u *tracedUpstream) Refresh() bool {
	// Refresh carries no block; it only runs after a failed read, which the
	// benchmark's workloads never cause, so it is recorded as its own root.
	defer u.t.begin("upstream.refresh", 0, 0).end()
	return u.Upstream.Refresh()
}

func (u *tracedUpstream) Header(block blockcrypto.Hash) (chain.Header, error) {
	defer u.begin("upstream.header", block).end()
	return u.Upstream.Header(block)
}

func (u *tracedUpstream) FetchBatch(peer int, refs []netx.ChunkRef) (*netx.ChunkBatchResp, error) {
	if len(refs) > 0 {
		defer u.begin("upstream.fetch_batch", refs[0].Block).end()
	}
	return u.Upstream.FetchBatch(peer, refs)
}

func (u *tracedUpstream) TxProof(peer int, block, txID blockcrypto.Hash) (*netx.TxProofResp, error) {
	defer u.begin("upstream.tx_proof", block).end()
	return u.Upstream.TxProof(peer, block, txID)
}
