package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/erasure"
	"icistrategy/internal/simnet"
	"icistrategy/internal/storage"
	"icistrategy/internal/trace"
)

// RetrieveBlock reassembles a full historical block from the chunks held by
// this node's cluster. cb is invoked exactly once, with the verified block
// or an error. This is the read path a light client or application would
// use against an ICIStrategy cluster.
func (n *Node) RetrieveBlock(net *simnet.Network, block blockcrypto.Hash, cb func(*chain.Block, error)) {
	n.retrieveBlock(net, block, n.rxSpan, cb)
}

// retrieveBlock is RetrieveBlock under an explicit parent span (archival
// retrieves blocks from inside its own span).
func (n *Node) retrieveBlock(net *simnet.Network, block blockcrypto.Hash, parent trace.SpanID, cb func(*chain.Block, error)) {
	if !n.store.HasHeader(block) {
		cb(nil, fmt.Errorf("%w: %s", ErrUnknownBlock, block.Short()))
		return
	}
	n.pc.retrievals.Inc()
	n.startRetrieve(net, &fetchState{
		block:   block,
		onBlock: cb,
		span:    n.tr.Start(parent, "retrieve", "retrieve", int64(n.id)),
	})
}

// startRetrieve runs a whole-block fetch, live or archived (shares ride the
// same request/response pair as live chunks): seed it with the chunks this
// node holds itself, then ask the cluster for the rest. A local chunk that
// fails its digest check (bit rot, torn write) or does not decode must not
// be silently skipped: it is counted, and the remote fetch re-establishes
// it from the other owners.
func (n *Node) startRetrieve(net *simnet.Network, st *fetchState) {
	n.nextReq++
	req := n.nextReq
	n.fetches[req] = st
	st.chunks = make(map[int]retrievedChunk)
	st.timeout = fetchTimeout
	chunks, bad := n.heldChunks(st.block)
	n.metrics.LocalChunkErrors.Add(int64(bad))
	st.merge(chunks)
	if !n.tryFinishRetrieve(req, st) {
		n.broadcastFetch(net, req, st)
	}
}

// merge adds one member's chunks of the block to the fetch, first copy of
// each index wins. A chunk in the other storage mode — a member answering
// from before or after archival — is skipped. A live retrieval learns the
// block's part count from the chunks themselves.
func (st *fetchState) merge(chunks []retrievedChunk) {
	for _, c := range chunks {
		if c.Coded != (st.codedK > 0) {
			continue
		}
		if !c.Coded {
			st.parts = c.Parts
		}
		if _, have := st.chunks[c.Index]; !have {
			st.chunks[c.Index] = c
		}
	}
}

// broadcastFetch issues one round of cluster-wide chunk requests for a
// retrieval and arms its timeout. Timed-out rounds are retried with doubled
// timeout up to maxFetchAttempts; a round every member answered without
// completing the block is definitive and fails immediately.
func (n *Node) broadcastFetch(net *simnet.Network, req uint64, st *fetchState) {
	st.attempts++
	st.waiting = 0
	// Ask the union of the current members and the block's placement-epoch
	// members: before a migration completes, pre-churn chunks still live
	// on the epoch the block was written under, and asking only the
	// current membership would miss them.
	targets := others(n.id, n.cluster.Current().Members)
	if hdr, err := n.store.Header(st.block); err == nil {
		targets = n.cluster.fetchMembers(hdr.Height, n.id)
	}
	st.responded = make(map[simnet.NodeID]bool, len(targets))
	n.pc.retrieveRounds.Inc()
	for _, m := range targets {
		st.waiting++
		_ = net.Send(simnet.Message{
			From: n.id, To: m, Kind: KindGetBlockChunks,
			Size: reqOverhead, Span: st.span.Context(),
			Payload: getBlockChunksMsg{Block: st.block, ReqID: req, Round: st.attempts},
		})
	}
	if st.waiting == 0 {
		n.failFetch(req, st, ErrRetrieveFailed)
		return
	}
	attempt := st.attempts
	net.After(st.timeout, func() {
		cur, ok := n.fetches[req]
		if !ok || cur.done || cur.attempts != attempt {
			return // finished, or a newer round superseded this timer
		}
		if cur.attempts >= maxFetchAttempts {
			n.failFetch(req, cur, ErrRetrieveFailed)
			return
		}
		n.metrics.RetrieveRetries.Inc()
		cur.timeout *= 2
		n.broadcastFetch(net, req, cur)
	})
}

// onBlockChunks consumes one member's contribution to a retrieval.
//
// A response only participates in the current round's bookkeeping when its
// Round tag matches: an answer to an earlier, timed-out round still merges
// its chunk data (verified data speaks for itself, and it may complete the
// block), but it must not mark the member as having answered the current
// round — otherwise a slow round-1 answer arriving during round 2 can
// drive waiting to zero with a member's round-2 answer still in flight and
// fire the "every member answered" definitive failure prematurely.
func (n *Node) onBlockChunks(net *simnet.Network, from simnet.NodeID, m blockChunksMsg) {
	st, ok := n.fetches[m.ReqID]
	if !ok || st.done || st.block != m.Block {
		return
	}
	stale := m.Round != st.attempts
	if stale {
		n.metrics.StaleResponses.Inc()
		n.pc.staleResponses.Inc()
	} else if st.responded[from] {
		n.metrics.DuplicateResponses.Inc()
		return // duplicate delivery of a response already merged
	} else {
		st.responded[from] = true
		st.waiting--
	}
	st.merge(m.Chunks)
	if n.tryFinishRetrieve(m.ReqID, st) || stale {
		return
	}
	if st.waiting == 0 {
		// Every member answered the current round and the block is still
		// incomplete: the data is genuinely missing right now; retrying the
		// same members cannot help.
		n.failFetch(m.ReqID, st, ErrRetrieveFailed)
	}
}

// tryFinishRetrieve reassembles and verifies the block once the fetch holds
// enough of it.
func (n *Node) tryFinishRetrieve(req uint64, st *fetchState) bool {
	if st.onBlock == nil {
		return false
	}
	fail := func(err error) bool {
		n.failFetch(req, st, err)
		return true
	}
	groups, err := st.groups()
	if err != nil {
		return fail(err)
	}
	if groups == nil {
		return false
	}
	hdr, err := n.store.Header(st.block)
	if err != nil {
		return fail(err)
	}
	b, _, err := Reassemble(hdr, groups)
	if err != nil {
		// Some member served corrupt, misplaced or misordered data.
		return fail(fmt.Errorf("%w: %v", ErrRetrieveFailed, err))
	}
	st.done = true
	delete(n.fetches, req)
	n.finishFetchSpan(st, int64(b.BodySize()), nil)
	st.onBlock(b, nil)
	return true
}

// groups returns the block's groups in order once enough chunks are present,
// nil while more are needed: every group of a live block, or any k shares
// of an archived one, whose rebuilt body is the block's one group. The
// codec comes from the shared registry: this runs on every share arrival,
// and re-deriving the systematic matrix per response used to dominate the
// coded read path.
func (st *fetchState) groups() ([]Group, error) {
	if st.codedK == 0 {
		if st.parts == 0 || len(st.chunks) < st.parts {
			return nil, nil
		}
		groups := make([]Group, st.parts)
		for i := range groups {
			groups[i] = st.chunks[i].Group // a gap leaves the zero Group, which Reassemble refuses
		}
		return groups, nil
	}
	if len(st.chunks) < st.codedK {
		return nil, nil
	}
	code, err := erasure.Cached(st.codedK, st.parts-st.codedK)
	if err != nil {
		return nil, err
	}
	shards := make([][]byte, st.parts)
	for i, c := range st.chunks {
		if i >= 0 && i < st.parts {
			shards[i] = c.Raw
		}
	}
	if code.Reconstruct(shards) != nil {
		return nil, nil // wait for more shares
	}
	body, err := code.Join(shards)
	if err != nil {
		return nil, err
	}
	g, err := DecodeGroup(0, 1, 0, body, nil)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRetrieveFailed, err)
	}
	return []Group{g}, nil
}

func (n *Node) failFetch(req uint64, st *fetchState, err error) {
	if st.done {
		return
	}
	st.done = true
	delete(n.fetches, req)
	n.finishFetchSpan(st, 0, err)
	if st.onBlock != nil {
		st.onBlock(nil, err)
	}
	if st.onChunk != nil {
		st.onChunk(err)
	}
}

// finishFetchSpan closes a fetch's span and bumps the outcome counters on
// every terminal path (success, definitive failure, final timeout).
func (n *Node) finishFetchSpan(st *fetchState, bytes int64, err error) {
	// Coded (archival) retrievals count under ici.archive.*, not here.
	if st.onBlock != nil && st.codedK == 0 {
		if err == nil {
			n.pc.retrieveOK.Inc()
			n.pc.retrievedBlocks.Add(bytes)
		} else {
			n.pc.retrieveFailed.Inc()
		}
	}
	st.span.AddBytes(bytes)
	st.span.SetErr(err)
	st.span.End()
}

// --- bootstrap ---------------------------------------------------------------

// bootstrapState tracks a join in progress.
type bootstrapState struct {
	sponsor     simnet.NodeID
	outstanding int
	failed      bool
	// headersDone latches the header phase: a duplicate headersMsg must not
	// rerun the chunk-fetch fan-out.
	headersDone bool
	attempts    int
	timeout     time.Duration
	cb          func(error)
	// span covers the whole join: header sync plus every owned-chunk fetch.
	span trace.Span
}

// Bootstrap joins the cluster: fetch every header from sponsor, then fetch
// only the chunks rendezvous placement assigns to this node under the
// post-join membership. cb fires once with nil on success. The node must
// already be registered in the network and present in the cluster's member
// list (System.JoinCluster arranges both).
func (n *Node) Bootstrap(net *simnet.Network, sponsor simnet.NodeID, cb func(error)) {
	n.bootstrap = &bootstrapState{
		sponsor: sponsor, timeout: fetchTimeout, cb: cb,
		span: n.tr.Start(0, "bootstrap", "bootstrap", int64(n.id)),
	}
	n.pc.bootstraps.Inc()
	n.requestHeaders(net)
}

// requestHeaders sends one header request to the sponsor and arms its
// timeout. Lost requests (or lost replies) are retried with doubled timeout
// up to maxFetchAttempts; the chunk phase that follows has its own per-fetch
// retry logic and needs no outer timer.
func (n *Node) requestHeaders(net *simnet.Network) {
	bs := n.bootstrap
	if bs == nil || bs.headersDone {
		return
	}
	bs.attempts++
	attempt := bs.attempts
	n.pc.headerRounds.Inc()
	_ = net.Send(simnet.Message{
		From: n.id, To: bs.sponsor, Kind: KindGetHeaders,
		Size: reqOverhead, Payload: getHeadersMsg{FromHeight: 0}, Span: bs.span.Context(),
	})
	net.After(bs.timeout, func() {
		cur := n.bootstrap
		if cur == nil || cur.headersDone || cur.attempts != attempt {
			return
		}
		if cur.attempts >= maxFetchAttempts {
			n.finishBootstrap(ErrBootstrapFailed)
			return
		}
		n.metrics.BootstrapRetries.Inc()
		cur.timeout *= 2
		n.requestHeaders(net)
	})
}

// onHeaders continues the bootstrap: validate the header chain, then fetch
// owned chunks.
func (n *Node) onHeaders(net *simnet.Network, m headersMsg) {
	bs := n.bootstrap
	if bs == nil {
		return
	}
	if bs.headersDone {
		n.metrics.DuplicateResponses.Inc()
		return // duplicate delivery of the sponsor's answer
	}
	bs.headersDone = true
	// Validate linkage before trusting anything.
	if err := chain.VerifyHeaderChain(m.Headers); err != nil {
		n.finishBootstrap(fmt.Errorf("%w: %v", ErrBootstrapFailed, err))
		return
	}
	for _, h := range m.Headers {
		n.store.PutHeader(h)
	}
	// Fetch the chunks this node now owns under the current epoch (the
	// cluster map carries the join's epoch); one nobody else could serve is
	// skipped.
	for _, h := range m.Headers {
		moves, _ := n.cluster.MovesTo(h.Hash(), h.Height, n.id, n.replication) // unplaceable: nothing to take in
		for _, mv := range moves {
			if len(mv.From) == 0 {
				continue
			}
			bs.outstanding++
			n.pc.bootstrapChunks.Inc()
			n.fetchChunk(net, mv.Block, mv.Index, mv.From, bs.span.Context(), "bootstrap", func(err error) {
				if err != nil {
					bs.failed = true
				}
				bs.outstanding--
				if bs.outstanding == 0 {
					if bs.failed {
						n.finishBootstrap(ErrBootstrapFailed)
					} else {
						n.finishBootstrap(nil)
					}
				}
			})
		}
	}
	if bs.outstanding == 0 {
		n.finishBootstrap(nil)
	}
}

func (n *Node) finishBootstrap(err error) {
	if n.bootstrap == nil || n.bootstrap.cb == nil {
		return
	}
	bs := n.bootstrap
	cb := bs.cb
	bs.cb = nil
	n.bootstrap = nil
	if err != nil {
		n.pc.bootstrapFailed.Inc()
	}
	bs.span.SetErr(err)
	bs.span.End()
	cb(err)
}

// fetchChunk requests one chunk, trying sources in order until one serves a
// verifiable copy. cb fires once. The fetch's span opens under parent with
// the calling protocol's label (bootstrap or repair).
func (n *Node) fetchChunk(net *simnet.Network, block blockcrypto.Hash, idx int, sources []simnet.NodeID, parent trace.SpanID, proto string, cb func(error)) {
	id := storage.ChunkID{Block: block, Index: idx}
	if n.store.HasChunk(id) {
		cb(nil)
		return
	}
	if len(sources) == 0 {
		cb(ErrChunkLost)
		return
	}
	n.nextReq++
	req := n.nextReq
	st := &fetchState{
		block:   block,
		idx:     idx,
		sources: sources,
		timeout: fetchTimeout,
		onChunk: cb,
		span:    n.tr.Start(parent, proto, fmt.Sprintf("fetch-chunk[%d]", idx), int64(n.id)),
	}
	n.fetches[req] = st
	n.sendChunkReq(net, req, st)
}

// sendChunkReq asks the fetch's current source for the chunk and arms a
// per-request timeout. A timed-out source is skipped (it may be crashed, or
// the request/response was lost) and the fetch moves on.
func (n *Node) sendChunkReq(net *simnet.Network, req uint64, st *fetchState) {
	st.attempts++
	attempt := st.attempts
	_ = net.Send(simnet.Message{
		From: n.id, To: st.sources[st.srcPos], Kind: KindGetChunk,
		Size: reqOverhead, Span: st.span.Context(),
		Payload: getChunkMsg{Block: st.block, Idx: st.idx, ReqID: req, Attempt: attempt},
	})
	net.After(st.timeout, func() {
		cur, ok := n.fetches[req]
		if !ok || cur.done || cur.attempts != attempt {
			return // answered, or a later request superseded this timer
		}
		n.metrics.FetchTimeouts.Inc()
		cur.timedOut = true
		n.advanceChunkSource(net, req, cur)
	})
}

// advanceChunkSource moves a single-chunk fetch to its next source. When the
// ring is exhausted it starts another pass with a doubled timeout — but only
// if some source timed out during the pass: a pass where every source
// definitively answered "don't have it" (or served garbage) cannot be saved
// by asking again.
func (n *Node) advanceChunkSource(net *simnet.Network, req uint64, st *fetchState) {
	st.srcPos++
	if st.srcPos >= len(st.sources) {
		if !st.timedOut || st.passes+1 >= maxSourcePasses {
			n.failFetch(req, st, ErrChunkLost)
			return
		}
		st.passes++
		st.srcPos = 0
		st.timedOut = false
		st.timeout *= 2
		n.metrics.FetchRetries.Inc()
	}
	n.sendChunkReq(net, req, st)
}

// onChunkResp finishes (or advances) a single-chunk fetch.
func (n *Node) onChunkResp(net *simnet.Network, from simnet.NodeID, m chunkRespMsg) {
	st, ok := n.fetches[m.ReqID]
	if !ok || st.done || st.block != m.Block {
		return
	}
	if m.Found && m.Chunk.Index == st.idx && n.adoptChunk(m.Block, m.Chunk) {
		// A verified chunk is accepted from any source, even one already
		// timed out: the data speaks for itself.
		delete(n.fetches, m.ReqID)
		st.done = true
		n.finishFetchSpan(st, int64(m.Chunk.dataBytes()), nil)
		st.onChunk(nil)
		return
	}
	// A definitive negative (or invalid) answer only advances the fetch if
	// it answers the attempt currently being waited on. The source check
	// alone is not enough: on a later pass over the ring the same source is
	// asked again, and its stale negative from the earlier, timed-out
	// attempt would double-advance the ring past it before the live answer
	// arrives.
	if m.Attempt != st.attempts {
		n.metrics.StaleResponses.Inc()
		n.pc.staleResponses.Inc()
		return
	}
	if st.srcPos < len(st.sources) && from == st.sources[st.srcPos] {
		n.advanceChunkSource(net, m.ReqID, st)
		return
	}
	n.metrics.DuplicateResponses.Inc()
}

// --- repair -------------------------------------------------------------------

// RepairOwnership scans every committed block and fetches any chunk this
// node owns under the current epoch (after a membership change) but does
// not hold — the placement delta between the block's placement epoch and
// the current one, never a full reshuffle. Deficits are drained
// oldest-placement-epoch first: blocks still sitting on the oldest
// membership are the most at-risk (their source sets shrink with every
// further departure), so a repair storm re-establishes them before newer
// deficits. cb receives the number of chunks that could not be recovered
// from inside the cluster (0 means full intra-cluster integrity was
// restored).
func (n *Node) RepairOwnership(net *simnet.Network, cb func(lost int)) {
	n.pc.repairs.Inc()
	span := n.tr.Start(0, "repair", "repair", int64(n.id))
	type want struct {
		epochSeq int // the block's placement epoch (repair priority)
		Move
	}
	var wants []want
	for _, h := range n.store.Headers() {
		block := h.Hash()
		// The store's per-block index answers "which chunks of this block do
		// I hold" in one lookup; a block whose every part is already local
		// is not planned at all.
		held := n.store.ChunksForBlock(block)
		if len(held) == len(n.cluster.At(h.Height).Members) {
			continue
		}
		moves, _ := n.cluster.MovesTo(block, h.Height, n.id, n.replication) // unplaceable: nothing to repair
		for _, mv := range moves {
			if !slices.Contains(held, mv.Index) {
				wants = append(wants, want{n.cluster.PlacementAt(h.Height).Seq, mv})
			}
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].epochSeq != wants[j].epochSeq {
			return wants[i].epochSeq < wants[j].epochSeq
		}
		if wants[i].Height != wants[j].Height {
			return wants[i].Height < wants[j].Height
		}
		return wants[i].Index < wants[j].Index
	})
	if len(wants) == 0 {
		span.End()
		cb(0)
		return
	}
	lost, outstanding := 0, len(wants)
	n.pc.repairChunks.Add(int64(len(wants)))
	for _, w := range wants {
		n.fetchChunk(net, w.Block, w.Index, w.From, span.Context(), "repair", func(err error) {
			if err != nil {
				lost++
			}
			outstanding--
			if outstanding == 0 {
				if lost > 0 {
					n.pc.repairLost.Add(int64(lost))
					span.SetErr(fmt.Errorf("%d chunks lost", lost))
				}
				span.End()
				cb(lost)
			}
		})
	}
}
