package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/consensus"
	"icistrategy/internal/simnet"
	"icistrategy/internal/storage"
	"icistrategy/internal/trace"
)

// Protocol errors surfaced through completion callbacks.
var (
	ErrUnknownBlock    = errors.New("core: block header not known")
	ErrRetrieveFailed  = errors.New("core: could not gather all chunks")
	ErrBootstrapFailed = errors.New("core: bootstrap incomplete")
	ErrChunkLost       = errors.New("core: chunk unrecoverable inside cluster")
)

// fetchTimeout bounds how long (virtual time) one round of an async fetch
// waits before retrying or reporting failure. Each retry doubles it.
const fetchTimeout = 30 * time.Second

// maxFetchAttempts is the number of request rounds a broadcast fetch
// (retrieval, inclusion query, header sync) issues before giving up. A
// round is only retried when it timed out — a round in which every member
// answered and the data still was not there is definitive.
const maxFetchAttempts = 3

// maxSourcePasses bounds how many full sweeps over its source list a
// single-chunk fetch makes. A pass in which every source answered "not
// found" is definitive; extra passes only happen after timeouts (a source
// may have been down and restarted).
const maxSourcePasses = 2

// Behavior configures fault injection for a node, used by the robustness
// tests and the failure experiments.
type Behavior struct {
	// VoteReject makes the node vote against every block (Byzantine).
	VoteReject bool
	// DropVotes makes the node never send votes (crash-ish).
	DropVotes bool
	// TamperChunks makes the node, when leading, corrupt the first
	// transaction of every chunk it distributes (Byzantine leader).
	TamperChunks bool
}

// coverInterval is the virtual-time cadence at which a leader re-checks
// chunk coverage and reassigns chunks whose owners stayed silent. It is
// deliberately generous so that failure-free distribution (even of MB-scale
// blocks over 20 Mbit/s links) always completes before the first check —
// rejections reassign immediately and do not wait for this timer.
const coverInterval = 2 * time.Second

// leaderState tracks one block the node is currently leading.
type leaderState struct {
	block  *chain.Block
	table  *consensus.ChunkTable
	chunks []storage.Chunk // chunks[i] is chunk i as distributed
	// assigned[i] is the set of members currently asked to verify chunk i.
	assigned []map[simnet.NodeID]bool
	// ranking[i] is the full rendezvous fallback order for chunk i;
	// nextCand[i] is the next ranking position to try.
	ranking   [][]simnet.NodeID
	nextCand  []int
	pool      []consensus.Vote // valid approve votes collected so far
	rounds    int
	committed bool
	rejected  bool
	// span covers this block's distribution on this leader: open at
	// onPropose, closed at commit/reject (or coverage exhaustion). Chunk
	// and commit messages carry its context so the whole fan-out traces
	// under it.
	span trace.Span
}

// fetchState tracks one async multi-message operation (retrieval,
// bootstrap chunk fetch).
type fetchState struct {
	block  blockcrypto.Hash
	hdr    chain.Header // the block's stored header, for whole-block retrievals
	parts  int          // 0 until learned
	codedK int          // >0 for archived-block retrievals
	chunks map[int]storage.Chunk

	// A whole-block retrieval asks its cluster in rounds; a single-chunk
	// fetch uses only the round's attempts, timeout and done.
	round

	// Single-chunk fetches walk a source ring: the next rendezvous replica
	// on a miss or timeout, wrapping for one extra pass after timeouts.
	sources  []simnet.NodeID
	srcPos   int
	passes   int
	timedOut bool // a source timed out during the current pass
	idx      int  // chunk index for single-chunk fetches
	onBlock  func(*chain.Block, error)
	onChunk  func(error)
	// span covers the whole fetch (all rounds); requests carry its context.
	span trace.Span
}

// transport is what a node needs of the network it runs on: send a message
// and run a function after a delay. The simulator's Network satisfies it.
type transport interface {
	Send(simnet.Message) error
	After(time.Duration, func())
}

// Node is one ICIStrategy participant, driven entirely through its transport:
// messages go out through send and come in through HandleMessage, and timers
// run on the transport's clock. Not safe for concurrent use.
type Node struct {
	id       simnet.NodeID
	net      transport
	cluster  *clusterInfo
	key      blockcrypto.KeyPair
	registry func(simnet.NodeID) []byte // public key lookup
	store    *storage.Store

	replication int
	behavior    Behavior

	leading map[blockcrypto.Hash]*leaderState
	pending map[blockcrypto.Hash][]chunkPayload
	// pendingLeader remembers which leader distributed each pending block,
	// so a member whose commit announcement was lost knows whom to probe.
	pendingLeader map[blockcrypto.Hash]simnet.NodeID
	// commits retains the certificate of each finalized block (bounded by
	// sweepStale) so lost commit announcements can be re-served on demand.
	commits map[blockcrypto.Hash]commitMsg

	fetches   map[uint64]*fetchState
	txQueries map[uint64]*txQueryState
	nextReq   uint64
	bootstrap *bootstrapState
	handoff   *handoffState

	// tr/pc are the System-wide structured tracer and protocol counters
	// (tr may be nil = disabled; pc is never nil). rxSpan is the span
	// context of the message currently being handled — the implicit parent
	// for spans and sends made from inside HandleMessage. The simulator is
	// single-threaded, so a plain field is safe.
	tr     *trace.Tracer
	pc     *protoCounters
	rxSpan trace.SpanID
}

// newNode wires a node; System owns construction.
func newNode(id simnet.NodeID, net transport, ci *clusterInfo, key blockcrypto.KeyPair, replication int, registry func(simnet.NodeID) []byte, tr *trace.Tracer, pc *protoCounters) *Node {
	if pc == nil {
		pc = newProtoCounters(nil)
	}
	return &Node{
		id:            id,
		net:           net,
		cluster:       ci,
		key:           key,
		registry:      registry,
		store:         storage.NewStore(),
		replication:   replication,
		leading:       make(map[blockcrypto.Hash]*leaderState),
		pending:       make(map[blockcrypto.Hash][]chunkPayload),
		pendingLeader: make(map[blockcrypto.Hash]simnet.NodeID),
		commits:       make(map[blockcrypto.Hash]commitMsg),
		fetches:       make(map[uint64]*fetchState),
		txQueries:     make(map[uint64]*txQueryState),
		tr:            tr,
		pc:            pc,
	}
}

// ID returns the node's network identity.
func (n *Node) ID() simnet.NodeID { return n.id }

// Store exposes the node's local store (read-only use by experiments).
func (n *Node) Store() *storage.Store { return n.store }

// HasFinalized reports whether this node committed the given block (stored
// its header) — the precondition for retrieving it through this node.
func (n *Node) HasFinalized(block blockcrypto.Hash) bool { return n.store.HasHeader(block) }

// SetBehavior installs fault injection.
func (n *Node) SetBehavior(b Behavior) { n.behavior = b }

// Bootstrapping reports whether this node is still syncing its chain: a
// mid-bootstrap node must not sponsor another join (its header answer
// would be empty or partial and corrupt the joiner's bootstrap).
func (n *Node) Bootstrapping() bool { return n.bootstrap != nil }

// HandleMessage implements simnet.Handler; replies go out through n.net.
func (n *Node) HandleMessage(_ *simnet.Network, msg simnet.Message) { n.handle(msg) }

// send emits m from this node to to under span, charged m's wire size. A
// message to the node itself never touches the transport: it is handled at
// once, as if it had arrived.
func (n *Node) send(to simnet.NodeID, m message, span trace.SpanID) error {
	msg := simnet.Message{From: n.id, To: to, Kind: m.kind(), Size: m.wireSize(), Payload: m, Span: span}
	if to == n.id {
		n.handle(msg)
		return nil
	}
	return n.net.Send(msg)
}

// handle dispatches one message to its handler by the payload's type.
func (n *Node) handle(msg simnet.Message) {
	// The incoming message's span context becomes the implicit parent for
	// everything this handler does (spans it opens, messages it sends).
	prev := n.rxSpan
	n.rxSpan = msg.Span
	defer func() { n.rxSpan = prev }()
	switch m := msg.Payload.(type) {
	case proposeMsg:
		n.onPropose(m)
	case shareMsg:
		n.onChunk(msg.From, m)
	case voteMsg:
		n.onVote(m.Vote)
	case commitMsg:
		n.onCommit(m)
	case getHeadersMsg:
		n.onGetHeaders(msg.From, m)
	case headersMsg:
		n.onHeaders(m)
	case getChunkMsg:
		n.onGetChunk(msg.From, m)
	case chunkRespMsg:
		n.onChunkResp(msg.From, m)
	case getBlockChunksMsg:
		n.onGetBlockChunks(msg.From, m)
	case blockChunksMsg:
		n.onBlockChunks(msg.From, m)
	case getCommitMsg:
		n.onGetCommit(msg.From, m)
	case getTxProofMsg:
		n.onGetTxProof(msg.From, m)
	case txProofMsg:
		n.onTxProof(msg.From, m)
	case archiveShareMsg:
		n.onArchiveShare(m)
	case handoffMsg:
		n.onHandoff(msg.From, m)
	case handoffAckMsg:
		n.onHandoffAck(m)
	}
}

var _ simnet.Handler = (*Node)(nil)

// --- distribution: leader side ---------------------------------------------

// onPropose runs on the cluster leader when the producer hands it a new
// block: split into chunks, attach proofs, send each member its share — all
// the chunks it owns, in one message — and start per-chunk vote aggregation.
// The leader deliberately does not verify transaction signatures itself —
// that is the collaborative part: every transaction is verified by the
// owners of its chunk, and the block commits once every chunk is covered by
// a quorum of approvals.
func (n *Node) onPropose(m proposeMsg) {
	b := m.Block
	hash := b.Hash()
	if _, ok := n.leading[hash]; ok {
		return // duplicate proposal
	}
	if err := b.VerifyShape(); err != nil {
		return // malformed block: never enters voting
	}
	// Distribution is governed by the block's write epoch: the member set,
	// chunk count and rendezvous ranking all come from the membership at
	// the block's height, so a membership change racing a proposal cannot
	// skew placement.
	epoch := n.cluster.At(b.Header.Height)
	parts := len(epoch.Members)
	groups, err := SplitBlock(b, parts)
	if err != nil {
		return
	}
	table, err := consensus.NewChunkTable(hash, parts, parts, n.replication)
	if err != nil {
		return
	}
	seed := hash.Uint64()
	st := &leaderState{
		block:    b,
		table:    table,
		chunks:   make([]storage.Chunk, parts),
		assigned: make([]map[simnet.NodeID]bool, parts),
		ranking:  make([][]simnet.NodeID, parts),
		nextCand: make([]int, parts),
		span:     n.tr.Start(n.rxSpan, "distribute", "distribute", int64(n.id)),
	}
	n.leading[hash] = st
	n.pc.proposals.Inc()
	st.span.AddBytes(int64(b.BodySize()))
	table.Instrument(consensus.VoteObserver{
		Tracer: n.tr,
		Parent: st.span.Context(),
		Node:   int64(n.id),
		Votes:  n.pc.votes, Equivocations: n.pc.equivocations, Decisions: n.pc.decisions,
	})

	out := shares{}
	for idx := range groups {
		g := &groups[idx]
		if n.behavior.TamperChunks && len(g.Txs) > 0 {
			tampered := *g.Txs[0]
			tampered.Amount++
			g.Txs = append([]*chain.Transaction(nil), g.Txs...)
			g.Txs[0] = &tampered
		}
		st.chunks[idx] = g.Chunk(hash, g.Encode())
		ranked, rerr := epoch.Ranked(seed, idx)
		if rerr != nil {
			return
		}
		st.ranking[idx] = ranked
		st.assigned[idx] = make(map[simnet.NodeID]bool, n.replication)
		st.nextCand[idx] = n.replication
		for _, o := range ranked[:n.replication] {
			st.assigned[idx][o] = true
			out[o] = append(out[o], idx)
		}
	}
	n.sendShares(st, out)
	n.net.After(coverInterval, func() { n.coverageCheck(hash) })
}

// shares holds, per member, the chunks about to be sent to it; callers add
// chunks in increasing order.
type shares map[simnet.NodeID][]int

// sendShares delivers each member's share as one message under the
// distribution span; the leader's own share is checked inline on delivery,
// every other one from send (startVerdict). Members are walked in the write
// epoch's roster order, not the map's.
func (n *Node) sendShares(st *leaderState, out shares) {
	for _, to := range n.cluster.At(st.block.Header.Height).Members {
		idxs := out[to]
		if len(idxs) == 0 {
			continue
		}
		share := shareMsg{Header: st.block.Header, Chunks: make([]storage.Chunk, len(idxs))}
		for i, idx := range idxs {
			share.Chunks[i] = st.chunks[idx]
		}
		n.pc.chunksSent.Add(int64(len(idxs)))
		if to != n.id {
			share.verdict = startVerdict(share)
		}
		_ = n.send(to, share, st.span.Context())
	}
}

// shareVerdict is an owner's check of a remote share, run while the share is
// in flight. AdoptChunk is a pure function of the bytes the owner is sent,
// so the leader starts it at send and the owner's onChunk collects it at
// delivery: the checks of different owners overlap instead of queueing on
// the event loop (DESIGN.md "Verification concurrency").
type shareVerdict struct {
	hdr     chain.Header
	chunks  []storage.Chunk // the slice checked; a payload rewritten in flight holds a copy
	adopted []storage.Chunk // adopted[i], errs[i] is AdoptChunk of chunks[i]
	errs    []error
	done    chan struct{} // closed once every result is written
}

// startVerdict checks every chunk of share against its header on a
// goroutine that lives until the check returns.
func startVerdict(share shareMsg) *shareVerdict {
	hdr, chunks := share.Header, share.Chunks
	adopted, errs := make([]storage.Chunk, len(chunks)), make([]error, len(chunks))
	v := &shareVerdict{hdr: hdr, chunks: chunks, adopted: adopted, errs: errs, done: make(chan struct{})}
	go func() {
		for i, c := range chunks {
			adopted[i], errs[i] = AdoptChunk(hdr, c.ID.Index, c.Parts, c.TxStart, c.Data, c.Proofs)
		}
		close(v.done)
	}()
	return v
}

// verify is the owner's check of chunk i of m, returning the chunk to store:
// the verdict started at send while m still carries the header and the very
// chunks it checked, otherwise AdoptChunk inline — the leader's own share,
// or a share rewritten in flight (a simnet.CorruptFunc returns a copy, never
// the sender's slice).
func (m *shareMsg) verify(i int) (storage.Chunk, error) {
	if v := m.verdict; v != nil && v.hdr == m.Header &&
		len(v.chunks) == len(m.Chunks) && &v.chunks[0] == &m.Chunks[0] {
		<-v.done
		return v.adopted[i], v.errs[i]
	}
	c := m.Chunks[i]
	return AdoptChunk(m.Header, c.ID.Index, c.Parts, c.TxStart, c.Data, c.Proofs)
}

// coverageCheck walks uncovered chunks and extends their assignment down
// the rendezvous ranking, bounded to one full pass over the membership.
func (n *Node) coverageCheck(block blockcrypto.Hash) {
	st, ok := n.leading[block]
	if !ok || st.committed || st.rejected {
		return
	}
	st.rounds++
	if st.rounds > len(n.cluster.Current().Members) {
		// Candidates exhausted; the block stays uncommitted here.
		st.span.SetErr(errors.New("coverage exhausted"))
		st.span.End()
		return
	}
	out := shares{}
	for _, idx := range st.table.Uncovered() {
		// First re-send the chunk to assignees that never voted: either the
		// share or the vote was lost on the wire, and a re-delivery makes
		// the member re-vote (both sides are idempotent). Then extend the
		// assignment down the ranking as before. Assignment order follows
		// the rendezvous ranking so re-sends are deterministic. What one
		// member is owed travels as one share.
		for _, m := range st.ranking[idx][:min(st.nextCand[idx], len(st.ranking[idx]))] {
			if st.assigned[idx][m] && !st.table.HasVoted(m, idx) {
				n.pc.chunkResends.Inc()
				out[m] = append(out[m], idx)
			}
		}
		st.reassignChunk(idx, out)
	}
	n.sendShares(st, out)
	n.net.After(coverInterval, func() { n.coverageCheck(block) })
}

// reassignChunk adds chunk idx to the share of the next-ranked member not
// yet asked to verify it.
func (st *leaderState) reassignChunk(idx int, out shares) {
	for st.nextCand[idx] < len(st.ranking[idx]) {
		cand := st.ranking[idx][st.nextCand[idx]]
		st.nextCand[idx]++
		if st.assigned[idx][cand] {
			continue
		}
		st.assigned[idx][cand] = true
		out[cand] = append(out[cand], idx)
		return
	}
}

// --- distribution: member side ----------------------------------------------

// onChunk runs on a member handed a share: verify every chunk in it with
// AdoptChunk (a remote share's check started when it was sent:
// shareMsg.verify), queue what it approves as the bytes received, and sign
// one vote over the chunks approved (and a second, rejecting one only if
// some chunk failed). Ingestion is idempotent — a chunk already held
// (persisted or pending) is not re-verified or re-queued, but the member
// re-votes so that a vote lost on the wire cannot stall the commit (the
// leader re-sends shares to silent assignees for exactly this reason).
func (n *Node) onChunk(leader simnet.NodeID, m shareMsg) {
	hash := m.Header.Hash()
	all := make([]int, len(m.Chunks))
	for i := range m.Chunks {
		all[i] = m.Chunks[i].ID.Index
	}
	// One verify span per share; a share held already is voted on again
	// under an empty one.
	sp := n.tr.Start(n.rxSpan, "verify", "verify"+fmt.Sprint(all), int64(n.id))
	var approved, rejected []int
	for i, idx := range all {
		if n.hasChunkData(hash, idx) {
			n.pc.duplicateChunks.Inc()
			approved = append(approved, idx)
			continue
		}
		sp.AddBytes(int64(len(m.Chunks[i].Data)))
		n.pc.verified.Inc()
		chk, err := m.verify(i)
		if err != nil {
			n.pc.rejections.Inc()
			sp.SetErr(errors.New("chunk rejected"))
			rejected = append(rejected, idx)
			continue
		}
		n.pc.approvals.Inc()
		approved = append(approved, idx)
		if n.store.HasHeader(hash) {
			// Commit already happened (late reassignment): persist now.
			_ = n.store.PutChunk(chk) // a chunk held already stays
			continue
		}
		if len(n.pending[hash]) == 0 {
			// First chunk of a block this node has not committed: remember
			// the distributing leader and arm the commit probe in case the
			// commit announcement gets lost.
			n.pendingLeader[hash] = leader
			n.scheduleCommitProbe(hash, 1)
		}
		n.pending[hash] = append(n.pending[hash], chunkPayload{Header: m.Header, Chunk: chk})
	}
	sp.End()
	if n.behavior.VoteReject {
		approved, rejected = nil, all
	}
	n.voteShare(leader, hash, approved, true, sp.Context())
	n.voteShare(leader, hash, rejected, false, sp.Context())
}

// hasChunkData reports whether this node already holds chunk idx of block,
// either persisted or queued pending commit.
func (n *Node) hasChunkData(block blockcrypto.Hash, idx int) bool {
	if n.store.HasChunk(storage.ChunkID{Block: block, Index: idx}) {
		return true
	}
	for _, p := range n.pending[block] {
		if p.ID.Index == idx {
			return true
		}
	}
	return false
}

// voteShare signs and delivers this member's verdict on a set of chunks
// (nothing when the set is empty), applying the DropVotes knob. The vote
// travels under span (the verify span that produced the verdict).
func (n *Node) voteShare(leader simnet.NodeID, block blockcrypto.Hash, chunks []int, approve bool, span trace.SpanID) {
	if len(chunks) == 0 || n.behavior.DropVotes {
		return
	}
	vote := consensus.SignShareVote(n.id, block, chunks, approve, n.key)
	_ = n.send(leader, voteMsg{vote}, span)
}

// commitProbeDelay is how long a member holding pending chunks waits for
// the commit announcement before pulling the commit status itself. It is
// far above the failure-free commit latency, so probes only fire (as
// no-ops) after the fact in clean runs and only hit the wire when the
// announcement was actually lost.
const commitProbeDelay = 3 * coverInterval

// maxCommitProbes bounds the pull attempts per block.
const maxCommitProbes = 3

// scheduleCommitProbe arms one commit-status pull for a block this node
// holds pending chunks of. Probes back off exponentially and rotate away
// from the leader in case it crashed after committing.
func (n *Node) scheduleCommitProbe(block blockcrypto.Hash, attempt int) {
	n.net.After(commitProbeDelay<<(attempt-1), func() {
		if n.store.HasHeader(block) {
			return // commit arrived normally
		}
		if _, ok := n.pending[block]; !ok {
			return // swept: the proposal is dead
		}
		if target, ok := n.commitProbeTarget(block, attempt); ok {
			n.pc.commitProbes.Inc()
			_ = n.send(target, getCommitMsg{Block: block}, 0)
		}
		if attempt < maxCommitProbes {
			n.scheduleCommitProbe(block, attempt+1)
		}
	})
}

// commitProbeTarget picks whom to ask for a block's commit status: the
// distributing leader first, then a deterministic rotation over the rest
// of the cluster.
func (n *Node) commitProbeTarget(block blockcrypto.Hash, attempt int) (simnet.NodeID, bool) {
	if attempt == 1 {
		if l, ok := n.pendingLeader[block]; ok && l != n.id {
			return l, true
		}
	}
	members := n.cluster.Current().Members
	for i := 0; i < len(members); i++ {
		m := members[(attempt+i)%len(members)]
		if m != n.id {
			return m, true
		}
	}
	return 0, false
}

// onGetCommit re-serves a retained commit certificate to a member whose
// commit announcement was lost. Unknown (or swept) blocks are ignored —
// the prober's backoff handles silence.
func (n *Node) onGetCommit(from simnet.NodeID, m getCommitMsg) {
	cm, ok := n.commits[m.Block]
	if !ok {
		return
	}
	_ = n.send(from, cm, n.rxSpan)
}

// onVote runs on the leader: aggregate votes chunk by chunk; commit when
// every chunk is covered, reject when any chunk accumulates a
// Byzantine-proof number of rejections, and reassign a chunk immediately
// when an assignee rejects it.
func (n *Node) onVote(v consensus.Vote) {
	st, ok := n.leading[v.Block]
	if !ok || st.committed || st.rejected {
		return
	}
	var fresh []int // chunks this is the member's first verdict on
	for _, idx := range v.Chunks {
		if idx < 0 || idx >= len(st.assigned) || !st.assigned[idx][v.Voter] {
			return // a vote on a chunk its voter was never assigned carries no weight
		}
		if !st.table.HasVoted(v.Voter, idx) {
			fresh = append(fresh, idx)
		}
	}
	if fresh == nil {
		// Duplicate delivery, or a re-vote triggered by a share re-send
		// racing the original vote: the first verdict stands.
		n.pc.duplicateVotes.Inc()
		return
	}
	pub := n.registry(v.Voter)
	if pub == nil || consensus.VerifyVote(v, pub) != nil {
		return // unverifiable votes are ignored
	}
	decision, err := st.table.Add(v)
	if err != nil {
		return // equivocation: drop
	}
	if v.Approve {
		st.pool = append(st.pool, v)
	} else if decision == consensus.Pending {
		// An assignee rejected chunks: walk each to its next candidate right
		// away rather than waiting for the coverage timer.
		out := shares{}
		for _, idx := range fresh {
			st.reassignChunk(idx, out)
		}
		n.sendShares(st, out)
	}
	switch decision {
	case consensus.Rejected:
		st.rejected = true
		n.pc.rejects.Inc()
		st.span.SetErr(errors.New("block rejected"))
		st.span.End()
	case consensus.Committed:
		cert, ok := st.table.ApprovalCertificate(st.pool)
		if !ok {
			return // unreachable: Committed implies a coverable pool
		}
		st.committed = true
		msg := commitMsg{Header: st.block.Header, Parts: st.table.Parts(), Votes: cert}
		for _, m := range n.cluster.Current().Members {
			if m != n.id {
				_ = n.send(m, msg, st.span.Context())
			}
		}
		// Every vote of the certificate passed VerifyVote above on its way
		// into st.pool: the leader applies its commit without a second check.
		prev := n.rxSpan
		n.rxSpan = st.span.Context()
		n.applyCommit(v.Block, msg)
		n.rxSpan = prev
		st.span.End()
	}
}

// verifyCommit validates a commit certificate: every chunk of the block is
// covered by quorum-many valid approvals from members of the block's write
// epoch. Verifying against the write-epoch membership (not the current
// one) keeps historic certificates valid after churn: a voter that has
// since departed was a legitimate member when it voted.
func (n *Node) verifyCommit(m commitMsg) error {
	members := n.cluster.At(m.Header.Height).Members
	return consensus.VerifyCertificate(
		m.Header.Hash(), m.Parts, len(members), n.replication, m.Votes,
		func(id simnet.NodeID) bool { return slices.Contains(members, id) },
		n.registry,
	)
}

// onCommit handles a commit announcement: a block already finalized here
// (duplicate delivery, a re-served or replayed commit) is dropped before any
// signature is looked at; otherwise the certificate is verified and applied.
func (n *Node) onCommit(m commitMsg) {
	hash := m.Header.Hash()
	if n.store.HasHeader(hash) {
		n.pc.duplicateCommits.Inc()
		return
	}
	if err := n.verifyCommit(m); err != nil {
		return
	}
	n.applyCommit(hash, m)
}

// applyCommit finalizes a block whose certificate the caller has verified
// and whose header is not stored yet: store the header and persist any
// pending chunks this node owns.
func (n *Node) applyCommit(hash blockcrypto.Hash, m commitMsg) {
	n.store.PutHeader(m.Header)
	// Retain the certificate so lost commit announcements can be re-served
	// to probing members (bounded by sweepStale).
	n.commits[hash] = m
	n.pc.commits.Inc()
	n.tr.Point(n.rxSpan, "distribute", "commit", int64(n.id), 0, "")
	for _, c := range n.pending[hash] {
		_ = n.store.PutChunk(c.Chunk) // a chunk held already stays
	}
	delete(n.pending, hash)
	delete(n.pendingLeader, hash)
	delete(n.leading, hash)
	n.sweepStale(m.Header.Height)
}

// staleWindow is how many heights behind the committed tip pending and
// leader state may linger before being dropped. Blocks commit in height
// order, so anything far below the tip is a rejected or abandoned proposal
// that would otherwise leak memory.
const staleWindow = 8

// sweepStale drops pending chunks and leader state of long-dead proposals.
func (n *Node) sweepStale(committedHeight uint64) {
	if committedHeight < staleWindow {
		return
	}
	cutoff := committedHeight - staleWindow
	for hash, chunks := range n.pending {
		if len(chunks) > 0 && chunks[0].Header.Height < cutoff {
			delete(n.pending, hash)
			delete(n.pendingLeader, hash)
		}
	}
	for hash, st := range n.leading {
		if st.block.Header.Height < cutoff {
			delete(n.leading, hash)
		}
	}
	for hash, cm := range n.commits {
		if cm.Header.Height < cutoff {
			delete(n.commits, hash)
		}
	}
}

// adoptChunk persists a chunk of block that arrived outside distribution —
// fetched for bootstrap or repair, or handed off by a leaver — once it
// passes the owner's check (AdoptChunk) against the header this node
// committed; the header the message carries is not trusted.
func (n *Node) adoptChunk(block blockcrypto.Hash, c chunkPayload) bool {
	hdr, err := n.store.Header(block)
	if err != nil {
		return false
	}
	chk, err := AdoptChunk(hdr, c.ID.Index, c.Parts, c.TxStart, c.Data, c.Proofs)
	if err != nil {
		return false
	}
	_ = n.store.PutChunk(chk) // a chunk held already stays
	return true
}

// --- serving ---------------------------------------------------------------

func (n *Node) onGetHeaders(from simnet.NodeID, m getHeadersMsg) {
	all := n.store.Headers()
	out := make([]chain.Header, 0, len(all))
	for _, h := range all {
		if h.Height >= m.FromHeight {
			out = append(out, h)
		}
	}
	_ = n.send(from, headersMsg{Headers: out, ReqID: m.ReqID}, n.rxSpan)
}

func (n *Node) onGetChunk(from simnet.NodeID, m getChunkMsg) {
	id := storage.ChunkID{Block: m.Block, Index: m.Idx}
	resp := chunkRespMsg{Block: m.Block, ReqID: m.ReqID, Attempt: m.Attempt}
	if payload, err := n.storedPayload(id); err == nil {
		resp.Found = true
		resp.Chunk = payload
	}
	_ = n.send(from, resp, n.rxSpan)
}

func (n *Node) onGetBlockChunks(from simnet.NodeID, m getBlockChunksMsg) {
	resp := blockChunksMsg{Block: m.Block, ReqID: m.ReqID, Round: m.Round}
	// A chunk that fails its digest is withheld rather than served.
	resp.Chunks, _ = n.heldChunks(m.Block)
	_ = n.send(from, resp, n.rxSpan)
}

// storedPayload reads one stored chunk back, with its proofs, as the
// message that carries it, under the block's header. A coded share has no
// transaction structure and is not served.
func (n *Node) storedPayload(id storage.ChunkID) (chunkPayload, error) {
	var chk storage.Chunk
	if err := n.store.LendChunk(id, true, func(c storage.Chunk) {
		chk = c
		chk.Data = append([]byte(nil), c.Data...)
	}); err != nil {
		return chunkPayload{}, err
	}
	if chk.CodedK > 0 {
		return chunkPayload{}, fmt.Errorf("%w: %s is a coded share", ErrBadGroup, id)
	}
	hdr, err := n.store.Header(id.Block)
	return chunkPayload{Header: hdr, Chunk: chk}, err
}

// heldChunks returns what this node stores of a block as retrieval content
// — each chunk as stored, which a read returns without proofs — and how
// many stored chunks failed their digest.
func (n *Node) heldChunks(block blockcrypto.Hash) (out []storage.Chunk, bad int) {
	for _, idx := range n.store.ChunksForBlock(block) {
		chk, err := n.store.Chunk(storage.ChunkID{Block: block, Index: idx})
		if err != nil {
			bad++
			continue
		}
		out = append(out, chk)
	}
	return out, bad
}
