package gateway

import (
	"sync"

	"icistrategy/internal/metrics"
	"icistrategy/internal/netx"
)

// chunkResult is one answer delivered to a batch subscriber.
type chunkResult struct {
	chunk *netx.ChunkResp // nil when the peer does not hold the chunk
	err   error           // transport failure talking to the peer
}

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

// want is one Fetch call: the refs one caller asks of one peer, answered
// position for position. All of it rides one RPC.
type want struct {
	refs []netx.ChunkRef
	res  []chunkResult
	done chan struct{} // closed once res is filled
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

// Fetch asks peer for refs and answers position for position, sharing wire
// round trips with every concurrent Fetch to the same peer. A ref wanted by
// several callers is deduplicated onto one wire slot and fanned back out:
// they are handed the same *netx.ChunkResp, to read and not to change.
//
// With no RPC in flight to the peer the caller's own goroutine makes the
// round trip — an idle gateway starts no goroutine for it; what queued up
// behind that RPC is left to a drainer.
func (b *batcher) Fetch(peer int, refs []netx.ChunkRef) []chunkResult {
	w := &want{refs: refs, res: make([]chunkResult, len(refs)), done: make(chan struct{})}
	q := b.queue(peer)
	q.mu.Lock()
	q.pending = append(q.pending, w)
	lead := !q.inflight
	q.inflight = true
	q.mu.Unlock()
	if lead && b.roundTrip(peer, q) {
		//icilint:allow goroleak(single drainer per peer; every queued Fetch blocks on its want until the drainer answers it, and the drainer exits once pending empties)
		go b.drain(peer, q)
	}
	<-w.done
	return w.res
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

	refs := wants[0].refs
	var slot map[netx.ChunkRef]int // wire position of a ref, when several wants share the RPC
	if len(wants) > 1 {
		slot = make(map[netx.ChunkRef]int)
		refs = nil
		for _, w := range wants {
			for _, ref := range w.refs {
				if _, ok := slot[ref]; !ok {
					slot[ref] = len(refs)
					refs = append(refs, ref)
				}
			}
		}
	}
	b.rpcs.Inc()
	b.refs.Add(int64(len(refs)))
	resp, err := b.up.FetchBatch(peer, refs)
	for _, w := range wants {
		for i, ref := range w.refs {
			at := i
			if slot != nil {
				at = slot[ref]
			}
			switch {
			case err != nil:
				w.res[i].err = err
			case resp.Found[at]:
				w.res[i].chunk = &resp.Chunks[at]
			}
		}
		close(w.done)
	}

	q.mu.Lock()
	defer q.mu.Unlock()
	q.inflight = len(q.pending) > 0
	return q.inflight
}
