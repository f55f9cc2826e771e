package core

import (
	"fmt"

	"icistrategy/internal/simnet"
	"icistrategy/internal/storage"
)

// ErrHandoffFailed reports a graceful departure whose chunk handoff could
// not be fully acknowledged (a gaining member crashed or rejected a chunk).
var ErrHandoffFailed = fmt.Errorf("core: chunk handoff incomplete")

// handoffTimeout bounds how long (virtual time) the leaver waits for one
// gaining member to acknowledge a pushed chunk.
const handoffTimeout = fetchTimeout

// handoffState tracks one graceful departure in progress on the leaver.
type handoffState struct {
	pending map[uint64]bool // ReqIDs awaiting acknowledgement
	sent    bool            // the scan finished fanning out pushes
	moved   int
	failed  int
	done    bool
	cb      func(moved int, err error)
}

// HandoffChunks pushes every chunk whose ownership this node's departure
// shifts to the gaining members of the current (post-departure) epoch. The
// caller (System.LeaveCluster) must already have pushed the epoch that
// excludes this node. The movement is EpochMap.MovesFrom: the placement
// delta between the block's placement epoch and the departure epoch, of
// the chunks this node holds. cb fires once with the number of chunks
// moved; any unacknowledged push fails the whole handoff.
func (n *Node) HandoffChunks(cb func(moved int, err error)) {
	if n.handoff != nil {
		cb(0, fmt.Errorf("core: handoff already in progress on node %d", n.id))
		return
	}
	n.pc.handoffs.Inc()
	hs := &handoffState{pending: make(map[uint64]bool), cb: cb}
	n.handoff = hs
	for _, h := range n.store.Headers() {
		block := h.Hash()
		if _, archived := n.cluster.archivedInfo(block); archived {
			continue // coded shares are re-established by archival repair
		}
		moves, _ := n.cluster.MovesFrom(block, h.Height, n.id, n.replication) // unplaceable: nobody to hand it to
		for _, mv := range moves {
			id := storage.ChunkID{Block: block, Index: mv.Index}
			if !n.store.HasChunk(id) {
				continue // owned but never received: nothing to hand out
			}
			for _, gain := range mv.To {
				n.pushHandoffChunk(hs, id, gain)
			}
		}
	}
	hs.sent = true
	n.maybeFinishHandoff(hs)
}

// pushHandoffChunk sends one owned chunk to one gaining member and arms
// its acknowledgement timeout.
func (n *Node) pushHandoffChunk(hs *handoffState, id storage.ChunkID, to simnet.NodeID) {
	payload, err := n.storedPayload(id)
	if err != nil {
		hs.failed++
		return
	}
	n.nextReq++
	req := n.nextReq
	hs.pending[req] = true
	n.pc.handoffChunks.Inc()
	n.pc.handoffBytes.Add(int64(len(payload.Data)))
	_ = n.send(to, handoffMsg{Chunk: payload, ReqID: req}, n.rxSpan)
	n.net.After(handoffTimeout, func() {
		cur := n.handoff
		if cur != hs || hs.done || !hs.pending[req] {
			return
		}
		delete(hs.pending, req)
		hs.failed++
		n.maybeFinishHandoff(hs)
	})
}

// onHandoff runs on a gaining member: verify the pushed chunk against the
// locally committed header exactly like a fetched chunk, persist it, and
// acknowledge.
func (n *Node) onHandoff(from simnet.NodeID, m handoffMsg) {
	ack := handoffAckMsg{ReqID: m.ReqID, OK: n.adoptChunk(m.Chunk.Header.Hash(), m.Chunk)}
	_ = n.send(from, ack, n.rxSpan)
}

// onHandoffAck settles one pushed chunk on the leaver.
func (n *Node) onHandoffAck(m handoffAckMsg) {
	hs := n.handoff
	if hs == nil || hs.done || !hs.pending[m.ReqID] {
		return
	}
	delete(hs.pending, m.ReqID)
	if m.OK {
		hs.moved++
	} else {
		hs.failed++
	}
	n.maybeFinishHandoff(hs)
}

// maybeFinishHandoff fires the departure callback once the scan finished
// and every push was acknowledged or timed out.
func (n *Node) maybeFinishHandoff(hs *handoffState) {
	if hs.done || !hs.sent || len(hs.pending) > 0 {
		return
	}
	hs.done = true
	n.handoff = nil
	if hs.failed > 0 {
		n.pc.handoffFailed.Inc()
		hs.cb(hs.moved, fmt.Errorf("%w: %d chunks unacknowledged", ErrHandoffFailed, hs.failed))
		return
	}
	hs.cb(hs.moved, nil)
}
