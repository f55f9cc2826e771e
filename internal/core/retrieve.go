package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/erasure"
	"icistrategy/internal/metrics"
	"icistrategy/internal/simnet"
	"icistrategy/internal/storage"
	"icistrategy/internal/trace"
)

// RetrieveBlock reassembles a full historical block from the chunks held by
// this node's cluster, or, once the cluster archived it, rebuilds it from
// any k of its Reed-Solomon shares. cb is invoked exactly once, with the
// verified block or an error. This is the read path a light client or
// application would use against an ICIStrategy cluster.
func (n *Node) RetrieveBlock(block blockcrypto.Hash, cb func(*chain.Block, error)) {
	n.retrieveBlock(block, n.rxSpan, cb)
}

// RetrieveBlockAuto is RetrieveBlock. bench/ calls it by this name, with a
// network argument that is not used.
func (n *Node) RetrieveBlockAuto(_ *simnet.Network, block blockcrypto.Hash, cb func(*chain.Block, error)) {
	n.RetrieveBlock(block, cb)
}

// retrieveBlock is RetrieveBlock under an explicit parent span (archival
// retrieves blocks from inside its own span). A coded read counts and
// traces under archive, a live one under retrieve.
func (n *Node) retrieveBlock(block blockcrypto.Hash, parent trace.SpanID, cb func(*chain.Block, error)) {
	hdr, err := n.store.Header(block)
	if err != nil {
		cb(nil, fmt.Errorf("%w: %s", ErrUnknownBlock, block.Short()))
		return
	}
	st := &fetchState{block: block, hdr: hdr, onBlock: cb}
	if info, archived := n.cluster.archivedInfo(block); archived {
		n.pc.codedRetrieves.Inc()
		st.parts, st.codedK = info.total, info.k
		st.span = n.tr.Start(parent, "archive", "retrieve-archived", int64(n.id))
	} else {
		n.pc.retrievals.Inc()
		st.span = n.tr.Start(parent, "retrieve", "retrieve", int64(n.id))
	}
	n.startRetrieve(st)
}

// startRetrieve runs a whole-block fetch, live or archived (shares ride the
// same request/response pair as live chunks): seed it with the chunks this
// node holds itself, then ask the cluster for the rest. A local chunk that
// fails its digest check (bit rot, torn write) must not be silently
// skipped: it is counted, and the remote fetch re-establishes it from the
// other owners.
func (n *Node) startRetrieve(st *fetchState) {
	n.nextReq++
	req := n.nextReq
	n.fetches[req] = st
	st.chunks = make(map[int]storage.Chunk)
	st.round = round{
		// Ask the union of the current members and the block's
		// placement-epoch members: before a migration completes, pre-churn
		// chunks still live on the epoch the block was written under, and
		// asking only the current membership would miss them.
		targets: func() []simnet.NodeID { return n.cluster.fetchMembers(st.hdr.Height, n.id) },
		request: func(tag int) message {
			return getBlockChunksMsg{Block: st.block, ReqID: req, Round: tag}
		},
		span:    st.span.Context(),
		rounds:  n.pc.retrieveRounds,
		retries: n.pc.retrieveRetries,
		stale:   n.pc.staleResponses,
		fail:    func() { n.failFetch(req, st, ErrRetrieveFailed) },
		timeout: fetchTimeout,
	}
	chunks, bad := n.heldChunks(st.block)
	n.pc.localErrors.Add(int64(bad))
	st.merge(chunks)
	if !n.tryFinishRetrieve(req, st) {
		n.broadcast(&st.round)
	}
}

// merge adds one member's chunks of the block to the fetch, first copy of
// each index wins. A chunk in the other storage mode — a member answering
// from before or after archival — is skipped. A live retrieval learns the
// block's part count from the chunks themselves.
func (st *fetchState) merge(chunks []storage.Chunk) {
	for _, c := range chunks {
		if (c.CodedK > 0) != (st.codedK > 0) {
			continue
		}
		if c.CodedK == 0 {
			st.parts = c.Parts
		}
		if _, have := st.chunks[c.ID.Index]; !have {
			st.chunks[c.ID.Index] = c
		}
	}
}

// round is a request that asks a set of members once per round — a
// whole-block retrieval (live or archived), an inclusion query, a joiner's
// header request — and the bookkeeping of its current round. Its caller
// sets what every round sends and how the request fails, then calls
// broadcast; answers go through answer.
type round struct {
	targets func() []simnet.NodeID // whom to ask, re-read every round
	request func(tag int) message  // the request of round tag
	span    trace.SpanID           // the span every round's requests travel under
	rounds  *metrics.Counter       // rounds issued
	retries *metrics.Counter       // timed-out rounds asked again
	stale   *metrics.Counter       // answers to a superseded round
	fail    func()                 // ends the request with its caller's terminal error

	attempts  int                    // rounds issued so far
	waiting   int                    // targets yet to answer this round
	responded map[simnet.NodeID]bool // targets that answered this round
	timeout   time.Duration          // this round's timeout
	done      bool
}

// broadcast sends one round of r's request to each of its targets and arms
// the round's timeout. A timed-out round is asked again with a doubled
// timeout, up to maxFetchAttempts; after the last one, or when there is no
// one to ask, the request fails.
func (n *Node) broadcast(r *round) {
	r.attempts++
	targets := r.targets()
	r.waiting = len(targets)
	r.responded = make(map[simnet.NodeID]bool, len(targets))
	r.rounds.Inc()
	req := r.request(r.attempts)
	for _, m := range targets {
		_ = n.send(m, req, r.span)
	}
	if r.waiting == 0 {
		r.fail()
		return
	}
	attempt := r.attempts
	n.net.After(r.timeout, func() {
		if r.done || r.attempts != attempt {
			return // finished, or a newer round superseded this timer
		}
		if r.attempts >= maxFetchAttempts {
			r.fail()
			return
		}
		r.retries.Inc()
		r.timeout *= 2
		n.broadcast(r)
	})
}

// answer books one target's answer to round tag of r; merge folds the
// answer's data into the request and reports whether that finished it.
//
// An answer to a superseded round still merges — verified data speaks for
// itself, and it may finish the request — but it stays out of the current
// round's bookkeeping: otherwise a slow round-1 answer arriving during
// round 2 could mark its sender as answered with that sender's round-2
// answer still in flight, and end the round early. A second answer to the
// same round is dropped. Once every target has answered the current round
// and the request is still open, the data is missing right now and asking
// the same targets again cannot help: the request fails.
func (n *Node) answer(r *round, from simnet.NodeID, tag int, merge func() bool) {
	stale := tag != r.attempts
	switch {
	case stale:
		r.stale.Inc()
	case r.responded[from]:
		n.pc.duplicates.Inc()
		return
	default:
		r.responded[from] = true
		r.waiting--
	}
	if merge() || stale {
		return
	}
	if r.waiting == 0 {
		r.fail()
	}
}

// onBlockChunks consumes one member's contribution to a retrieval.
func (n *Node) onBlockChunks(from simnet.NodeID, m blockChunksMsg) {
	st, ok := n.fetches[m.ReqID]
	if !ok || st.done || st.block != m.Block {
		return
	}
	n.answer(&st.round, from, m.Round, func() bool {
		st.merge(m.Chunks)
		return n.tryFinishRetrieve(m.ReqID, st)
	})
}

// tryFinishRetrieve reassembles and verifies the block once the fetch holds
// enough of it. The block is decoded once, for the callback.
func (n *Node) tryFinishRetrieve(req uint64, st *fetchState) bool {
	if st.onBlock == nil {
		return false
	}
	enc, err := st.assemble()
	if err == nil && enc == nil {
		return false
	}
	var b *chain.Block
	if err == nil {
		b, err = chain.DecodeBlock(enc)
	}
	if err != nil {
		// Some member served corrupt, misplaced or misordered data.
		n.failFetch(req, st, fmt.Errorf("%w: %v", ErrRetrieveFailed, err))
		return true
	}
	st.done = true
	delete(n.fetches, req)
	n.finishFetchSpan(st, int64(b.BodySize()), nil)
	st.onBlock(b, nil)
	return true
}

// assemble returns the block's encoding, checked against the header
// (ReassembleEncoding), once enough chunks are present, and nil while more
// are needed: every chunk of a live block, or any k shares of an archived
// one, whose rebuilt body is the block's one chunk.
func (st *fetchState) assemble() ([]byte, error) {
	if st.codedK == 0 {
		if st.parts == 0 || len(st.chunks) < st.parts {
			return nil, nil
		}
		enc, _, err := ReassembleEncoding(st.hdr, st.parts, func(i int) (int, int, int, []byte) {
			c := st.chunks[i] // a gap is the zero chunk, which ReassembleEncoding refuses
			return c.ID.Index, c.Parts, c.TxStart, c.Data
		})
		return enc, err
	}
	if len(st.chunks) < st.codedK {
		return nil, nil
	}
	code, err := erasure.New(st.codedK, st.parts-st.codedK)
	if err != nil {
		return nil, err
	}
	shards := make([][]byte, st.parts)
	for i, c := range st.chunks {
		if i >= 0 && i < st.parts {
			shards[i] = c.Data
		}
	}
	if code.Reconstruct(shards) != nil {
		return nil, nil // wait for more shares
	}
	body, err := code.Join(shards)
	if err != nil {
		return nil, err
	}
	enc, _, err := ReassembleEncoding(st.hdr, 1, func(int) (int, int, int, []byte) { return 0, 1, 0, body })
	return enc, err
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
	// round is the header request to the sponsor, done once its answer
	// arrived: a duplicate headersMsg must not rerun the chunk-fetch
	// fan-out.
	round
	req uint64 // the header request's id, echoed by its answer
	cb  func(error)
	// span covers the whole join: header sync plus every owned-chunk fetch.
	span trace.Span
}

// Bootstrap joins the cluster: fetch every header from sponsor, then fetch
// only the chunks rendezvous placement assigns to this node under the
// post-join membership. cb fires once with nil on success. The node must
// already be registered in the network and present in the cluster's member
// list (System.JoinCluster arranges both). A lost header request (or lost
// reply) is asked again like any round; the chunk phase that follows has
// its own per-fetch retry logic. A bootstrap still running when the next
// one starts (the node was removed or left and rejoined) is replaced:
// neither its answers nor its failures reach its successor, and its cb
// never fires.
func (n *Node) Bootstrap(sponsor simnet.NodeID, cb func(error)) {
	n.nextReq++
	bs := &bootstrapState{req: n.nextReq, cb: cb, span: n.tr.Start(0, "bootstrap", "bootstrap", int64(n.id))}
	bs.round = round{
		targets: func() []simnet.NodeID { return []simnet.NodeID{sponsor} },
		request: func(int) message { return getHeadersMsg{FromHeight: 0, ReqID: bs.req} },
		span:    bs.span.Context(),
		rounds:  n.pc.headerRounds,
		retries: n.pc.headerRetries,
		fail:    func() { n.finishBootstrap(bs, ErrBootstrapFailed) },
		timeout: fetchTimeout,
	}
	n.bootstrap = bs
	n.pc.bootstraps.Inc()
	n.broadcast(&bs.round)
}

// onHeaders continues the bootstrap: validate the header chain, then fetch
// owned chunks.
func (n *Node) onHeaders(m headersMsg) {
	bs := n.bootstrap
	if bs == nil || bs.req != m.ReqID {
		return // no bootstrap, or the answer to one a newer one replaced
	}
	if bs.done {
		n.pc.duplicates.Inc()
		return // duplicate delivery of the sponsor's answer
	}
	bs.done = true
	// Validate linkage before trusting anything.
	if err := chain.VerifyHeaderChain(m.Headers); err != nil {
		n.finishBootstrap(bs, fmt.Errorf("%w: %v", ErrBootstrapFailed, err))
		return
	}
	for _, h := range m.Headers {
		n.store.PutHeader(h)
	}
	// Take in the chunks this node now owns under the current epoch (the
	// cluster map carries the join's epoch).
	n.takeIn(bs.span.Context(), "bootstrap", n.pc.bootstrapChunks, func(lost int) {
		if lost > 0 {
			n.finishBootstrap(bs, ErrBootstrapFailed)
			return
		}
		n.finishBootstrap(bs, nil)
	})
}

// finishBootstrap ends bs with err. It does nothing unless bs is the node's
// current bootstrap: one already ended, or replaced by a newer Bootstrap,
// has no say over the node's state.
func (n *Node) finishBootstrap(bs *bootstrapState, err error) {
	if n.bootstrap != bs {
		return
	}
	n.bootstrap = nil
	if err != nil {
		n.pc.bootstrapFailed.Inc()
	}
	bs.span.SetErr(err)
	bs.span.End()
	bs.cb(err)
}

// fetchChunk requests one chunk, trying sources in order until one serves a
// verifiable copy. cb fires once. The fetch's span opens under parent with
// the calling protocol's label (bootstrap or repair).
func (n *Node) fetchChunk(block blockcrypto.Hash, idx int, sources []simnet.NodeID, parent trace.SpanID, proto string, cb func(error)) {
	id := storage.ChunkID{Block: block, Index: idx}
	if n.holdsSound(id) {
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
		round:   round{timeout: fetchTimeout},
		onChunk: cb,
		span:    n.tr.Start(parent, proto, fmt.Sprintf("fetch-chunk[%d]", idx), int64(n.id)),
	}
	n.fetches[req] = st
	n.sendChunkReq(req, st)
}

// sendChunkReq asks the fetch's current source for the chunk and arms a
// per-request timeout. A timed-out source is skipped (it may be crashed, or
// the request/response was lost) and the fetch moves on.
func (n *Node) sendChunkReq(req uint64, st *fetchState) {
	st.attempts++
	attempt := st.attempts
	_ = n.send(st.sources[st.srcPos], getChunkMsg{Block: st.block, Idx: st.idx, ReqID: req, Attempt: attempt}, st.span.Context())
	n.net.After(st.timeout, func() {
		cur, ok := n.fetches[req]
		if !ok || cur.done || cur.attempts != attempt {
			return // answered, or a later request superseded this timer
		}
		n.pc.chunkTimeouts.Inc()
		cur.timedOut = true
		n.advanceChunkSource(req, cur)
	})
}

// advanceChunkSource moves a single-chunk fetch to its next source. When the
// ring is exhausted it starts another pass with a doubled timeout — but only
// if some source timed out during the pass: a pass where every source
// definitively answered "don't have it" (or served garbage) cannot be saved
// by asking again.
func (n *Node) advanceChunkSource(req uint64, st *fetchState) {
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
		n.pc.chunkRetries.Inc()
	}
	n.sendChunkReq(req, st)
}

// onChunkResp finishes (or advances) a single-chunk fetch.
func (n *Node) onChunkResp(from simnet.NodeID, m chunkRespMsg) {
	st, ok := n.fetches[m.ReqID]
	if !ok || st.done || st.block != m.Block {
		return
	}
	if m.Found && m.Chunk.ID.Index == st.idx && n.adoptChunk(m.Block, m.Chunk) {
		// A verified chunk is accepted from any source, even one already
		// timed out: the data speaks for itself.
		delete(n.fetches, m.ReqID)
		st.done = true
		n.finishFetchSpan(st, int64(len(m.Chunk.Data)), nil)
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
		n.pc.staleResponses.Inc()
		return
	}
	if st.srcPos < len(st.sources) && from == st.sources[st.srcPos] {
		n.advanceChunkSource(m.ReqID, st)
		return
	}
	n.pc.duplicates.Inc()
}

// holdsSound reports whether this node stores chunk id with bytes that
// still pass their checksum.
func (n *Node) holdsSound(id storage.ChunkID) bool {
	return n.store.LendChunk(id, false, func(storage.Chunk) {}) == nil
}

// --- repair -------------------------------------------------------------------

// RepairOwnership re-establishes the chunks this node owns under the
// current epoch after a membership change (takeIn) under a repair span of
// its own. cb receives the number of chunks that could not be recovered
// from inside the cluster (0 means full intra-cluster integrity was
// restored).
func (n *Node) RepairOwnership(cb func(lost int)) {
	n.pc.repairs.Inc()
	span := n.tr.Start(0, "repair", "repair", int64(n.id))
	n.takeIn(span.Context(), "repair", n.pc.repairChunks, func(lost int) {
		if lost > 0 {
			n.pc.repairLost.Add(int64(lost))
			span.SetErr(fmt.Errorf("%d chunks lost", lost))
		}
		span.End()
		cb(lost)
	})
}

// takeIn is the one path by which a node gains chunks after a membership
// change (join, rejoin, repair, a graceful leave's repair): it scans every
// committed block and fetches each chunk this node owns under the current
// epoch but does not hold — the placement delta between the block's
// placement epoch and the current one, never a full reshuffle. Each fetch
// opens its span under parent with the calling protocol's label, and
// fetched counts the chunks requested. Deficits are drained
// oldest-placement-epoch first: blocks still sitting on the oldest
// membership are the most at-risk (their source sets shrink with every
// further departure), so a repair storm re-establishes them before newer
// deficits. cb receives the number of chunks no source served.
func (n *Node) takeIn(parent trace.SpanID, proto string, fetched *metrics.Counter, cb func(lost int)) {
	type want struct {
		epochSeq int // the block's placement epoch (repair priority)
		Move
	}
	var wants []want
	for _, h := range n.store.Headers() {
		block := h.Hash()
		if _, archived := n.cluster.archivedInfo(block); archived {
			continue // coded shares are placed by archival, not by the replicated layout
		}
		// The store's per-block index answers "which chunks of this block do
		// I hold" in one lookup; a block whose every part is already local
		// and sound is not planned at all. A copy damaged in place is held
		// in name only: it is taken in again, and the put replaces it.
		held := slices.DeleteFunc(n.store.ChunksForBlock(block), func(idx int) bool {
			return !n.holdsSound(storage.ChunkID{Block: block, Index: idx})
		})
		if len(held) == len(n.cluster.At(h.Height).Members) {
			continue
		}
		moves, _ := n.cluster.MovesTo(block, h.Height, n.id, n.replication) // unplaceable: nothing to take in
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
		cb(0)
		return
	}
	lost, outstanding := 0, len(wants)
	fetched.Add(int64(len(wants)))
	for _, w := range wants {
		n.fetchChunk(w.Block, w.Index, w.From, parent, proto, func(err error) {
			if err != nil {
				lost++
			}
			outstanding--
			if outstanding == 0 {
				cb(lost)
			}
		})
	}
}
