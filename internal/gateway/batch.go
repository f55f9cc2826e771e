package gateway

import (
	"slices"
	"sync"

	"icistrategy/internal/metrics"
	"icistrategy/internal/netx"
)

// batcher coalesces chunk wants for the same peer into shared round trips:
// while one GetChunkBatch RPC is in flight to a peer, every want that
// arrives for that peer accumulates and rides the next RPC together —
// cross-request batching with no timers, so an idle gateway adds zero
// latency and a busy one amortizes round trips across requests.
type batcher struct {
	up    Upstream
	rpcs  *metrics.Counter // ici.gateway.batch.rpcs
	refs  *metrics.Counter // ici.gateway.batch.refs
	mu    sync.Mutex
	peers map[int]*peerQueue
}

type peerQueue struct {
	mu       sync.Mutex
	pending  []*want
	inflight bool
}

// want is one Fetch call: the refs one caller asks of one peer and the
// answer to them, nil when the round trip failed. All of it rides one RPC.
type want struct {
	refs []netx.ChunkRef
	resp *netx.ChunkBatchResp
	done chan struct{} // closed once resp is set
}

func newBatcher(up Upstream, rpcs, refs *metrics.Counter) *batcher {
	return &batcher{up: up, rpcs: rpcs, refs: refs, peers: make(map[int]*peerQueue)}
}

func (b *batcher) queue(peer int) *peerQueue {
	b.mu.Lock()
	defer b.mu.Unlock()
	q, ok := b.peers[peer]
	if !ok {
		q = &peerQueue{}
		b.peers[peer] = q
	}
	return q
}

// Fetch asks peer for refs and returns its answer to them, position for
// position, or nil when the round trip failed, sharing wire round trips with
// every concurrent Fetch to the same peer: each is handed its own stretch of
// the one response, to read and not to change. Nothing is deduplicated: a
// block is gathered by one reader at a time, a chunk asked for once per plan.
//
// With no RPC in flight to the peer the caller's own goroutine makes the
// round trip — an idle gateway starts no goroutine for it; what queued up
// behind that RPC is left to a drainer.
func (b *batcher) Fetch(peer int, refs []netx.ChunkRef) *netx.ChunkBatchResp {
	w := &want{refs: refs, done: make(chan struct{})}
	q := b.queue(peer)
	q.mu.Lock()
	q.pending = append(q.pending, w)
	lead := !q.inflight
	q.inflight = true
	q.mu.Unlock()
	if lead && b.roundTrip(peer, q) {
		// One drainer per peer: only the holder of the inflight flag starts
		// it, every queued Fetch blocks on its want until the drainer
		// answers it, and the drainer exits once pending empties
		// (TestBatcherSharesRoundTrips).
		go b.drain(peer, q)
	}
	<-w.done
	return w.resp
}

// drain issues batched RPCs for peer until no wants remain.
func (b *batcher) drain(peer int, q *peerQueue) {
	for b.roundTrip(peer, q) {
	}
}

// roundTrip answers every want queued for peer with one RPC and reports
// whether more queued up while it was in flight; when none did it gives up
// the inflight flag, which guarantees one RPC per peer at a time.
func (b *batcher) roundTrip(peer int, q *peerQueue) bool {
	q.mu.Lock()
	wants := q.pending
	q.pending = nil
	q.mu.Unlock()

	refs := slices.Clip(wants[0].refs) // the first append copies: the slice is its caller's
	for _, w := range wants[1:] {
		refs = append(refs, w.refs...)
	}
	b.rpcs.Inc()
	b.refs.Add(int64(len(refs)))
	resp, err := b.up.FetchBatch(peer, refs)
	at := 0
	for _, w := range wants {
		if err == nil {
			w.resp = &netx.ChunkBatchResp{Found: resp.Found[at : at+len(w.refs)], Chunks: resp.Chunks[at : at+len(w.refs)]}
		}
		at += len(w.refs)
		close(w.done)
	}

	q.mu.Lock()
	defer q.mu.Unlock()
	q.inflight = len(q.pending) > 0
	return q.inflight
}
