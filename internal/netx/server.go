package netx

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"icistrategy/internal/chain"
	"icistrategy/internal/core"
	"icistrategy/internal/storage"
	"icistrategy/internal/trace"
)

// drainGrace bounds how long Close waits for in-flight request/response
// pairs to complete before connection deadlines cut them off. Idle
// connections (blocked waiting for the next request frame) unblock
// immediately via the same deadline and exit quietly.
const drainGrace = 250 * time.Millisecond

// writeTimeout bounds the write of one response: a client that stops
// reading costs a handler goroutine that long, not until Close. A variable
// only so the regression test can shorten it.
var writeTimeout = DefaultRPCTimeout

// Logf is the server's structured event sink: an event name plus
// alternating key/value pairs. cmd/icinet -serve wires it to the logfmt
// stderr stream the integration harness asserts on; nil discards events.
type Logf func(event string, kv ...any)

// Server is one ICIStrategy storage node exposed over TCP. It owns a
// storage.Store and serves the request/response protocol until closed. All
// methods are safe for concurrent use.
type Server struct {
	listener net.Listener

	mu     sync.Mutex
	store  *storage.Store
	cmap   core.EpochMap // newest published cluster map; empty until the first publish
	conns  map[net.Conn]struct{}
	closed bool
	// drainBy is the deadline Close put on every connection; set with closed.
	drainBy time.Time
	wg      sync.WaitGroup
	tr      *trace.Tracer
	logf    Logf
	faults  *faultState

	// connErrs counts abnormal connection errors: read/write failures that
	// are neither a client hanging up (EOF) nor the server's own graceful
	// drain. A clean close under load keeps this at zero — the regression
	// guard for the "use of closed network connection" noise the old
	// force-close Close used to produce.
	connErrs atomic.Int64
}

// NewServer starts a storage server listening on addr (use "127.0.0.1:0"
// for an ephemeral port).
func NewServer(addr string) (*Server, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netx: listen %s: %w", addr, err)
	}
	s := &Server{
		listener: l,
		store:    storage.NewStore(),
		conns:    make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// SetLogf installs (or clears, with nil) the structured event sink.
func (s *Server) SetLogf(fn Logf) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.logf = fn
}

// event emits to the installed sink, if any.
func (s *Server) event(name string, kv ...any) {
	s.mu.Lock()
	fn := s.logf
	s.mu.Unlock()
	if fn != nil {
		fn(name, kv...)
	}
}

// Close stops the listener and drains gracefully: in-flight request/
// response pairs get up to drainGrace to complete, idle connections are
// unblocked immediately, and every connection goroutine has exited by the
// time Close returns. No handler surfaces "use of closed network
// connection" — the old behavior of force-closing active connections
// mid-frame.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	deadline := time.Now().Add(drainGrace)
	s.drainBy = deadline
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.listener.Close()
	for _, c := range conns {
		_ = c.SetDeadline(deadline)
	}
	s.wg.Wait()
	s.event("serve.drained", "conns", len(conns))
	return err
}

// isClosed reports whether Close has begun.
func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// ConnErrors returns the abnormal-connection-error count (see the field
// comment); tests assert it stays zero across a close under load.
func (s *Server) ConnErrors() int64 { return s.connErrs.Load() }

// Stats returns the server's storage accounting snapshot.
func (s *Server) Stats() storage.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store.Stats()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				_ = conn.Close()
			}()
			s.serveConn(conn)
		}()
	}
}

// connErr classifies a connection failure: expected terminations (client
// hung up, graceful drain) end the connection quietly; anything else is
// counted and logged.
func (s *Server) connErr(op string, err error) {
	if err == nil {
		return
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return // client disconnected between or during a frame
	}
	if errors.Is(err, os.ErrDeadlineExceeded) && s.isClosed() {
		return // drain deadline cut off an idle or straggling connection
	}
	if errors.Is(err, net.ErrClosed) && s.isClosed() {
		return // connection torn down by shutdown
	}
	s.connErrs.Add(1)
	s.event("conn.error", "op", op, "err", err.Error())
}

// serveConn handles request/response pairs until the client disconnects or
// the server drains. Each response echoes its request's id.
func (s *Server) serveConn(conn net.Conn) {
	s.mu.Lock()
	tr := s.tr
	s.mu.Unlock()
	br := bufio.NewReaderSize(conn, ReadBufferSize)
	for {
		if s.isClosed() {
			return // drained: the previous round-trip completed
		}
		var req Request
		id, recv, err := ReadFrame(br, &req)
		if err != nil {
			s.connErr("read", err)
			return
		}
		var corrupt bool
		if f := s.chaosState(); f != nil && req.Fault == nil {
			d := f.decide()
			if d.delay > 0 {
				time.Sleep(d.delay)
			}
			if d.drop {
				return // drop: close without a response
			}
			corrupt = d.corrupt
		}
		resp := s.handle(&req)
		if corrupt {
			corruptChunkResponses(resp)
		}
		// The write deadline is armed under the lock Close takes to start
		// the drain, so whichever runs second, no response may outlast
		// the drain deadline.
		s.mu.Lock()
		deadline := time.Now().Add(writeTimeout)
		if s.closed && s.drainBy.Before(deadline) {
			deadline = s.drainBy
		}
		err = conn.SetWriteDeadline(deadline)
		s.mu.Unlock()
		if err != nil {
			s.connErr("write", err)
			return
		}
		sent, err := WriteFrame(conn, id, resp)
		if err != nil {
			s.connErr("write", err)
			return
		}
		if tr.Enabled() {
			tr.Point(0, "netx", "serve:"+reqName(&req), clientNode, int64(recv+sent), resp.Err)
		}
	}
}

func (s *Server) handle(req *Request) *Response {
	if req.Fault != nil {
		f := s.chaosState()
		if f == nil {
			return errResp(fmt.Errorf("%w: chaos not enabled on this server", ErrBadRequest))
		}
		return s.handleFault(f, req.Fault)
	}
	if req.GetClusterMap != nil || req.SetClusterMap != nil {
		return s.handleClusterMap(req)
	}
	if req.PutChunk != nil {
		return s.handlePutChunk(req.PutChunk) // locks only around its store accesses
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case req.PutHeader != nil:
		s.store.PutHeader(req.PutHeader.Header)
		return okResp()
	case req.GetHeaders != nil:
		var out []chain.Header
		for _, h := range s.store.Headers() {
			if h.Height >= req.GetHeaders.FromHeight {
				out = append(out, h)
			}
		}
		return &Response{Headers: out}
	case req.GetChunk != nil:
		return s.handleGetChunk(req.GetChunk)
	case req.GetChunkBatch != nil:
		return s.handleGetChunkBatch(req.GetChunkBatch)
	case req.GetBlockChunks != nil:
		return s.handleGetBlockChunks(req.GetBlockChunks)
	case req.GetTxProof != nil:
		return s.handleGetTxProof(req.GetTxProof)
	case req.Stats != nil:
		st := s.store.Stats()
		return &Response{Stats: &StatsResp{
			HeaderCount: st.HeaderCount,
			HeaderBytes: st.HeaderBytes,
			ChunkCount:  st.ChunkCount,
			ChunkBytes:  st.ChunkBytes,
		}}
	default:
		return errResp(ErrBadRequest)
	}
}

// handleClusterMap serves the epoch-versioned membership ops. A published
// map must be valid and is kept only when newer than the one held; stale or
// duplicate publishes are acknowledged without effect, so republishing after
// partitions or restarts is always safe.
func (s *Server) handleClusterMap(req *Request) *Response {
	if req.GetClusterMap != nil {
		s.mu.Lock()
		m := s.cmap // replaced whole on a newer publish, never edited
		s.mu.Unlock()
		return &Response{ClusterMap: &ClusterMapResp{Epochs: m}}
	}
	m := req.SetClusterMap.Epochs
	if err := checkMap(m); err != nil {
		return errResp(fmt.Errorf("%w: %v", ErrBadRequest, err))
	}
	s.mu.Lock()
	newer := m.Newer(s.cmap)
	if newer {
		s.cmap = m // decoded for this request; nobody else holds it
	}
	s.mu.Unlock()
	if newer {
		s.event("clustermap.update", "epoch", m.Current().Seq, "members", len(m.Current().Members))
	}
	return okResp()
}

// handlePutChunk verifies what the server stores: the chunk must decode and
// pass the group check every owner runs (core.Group.Verify) against the
// already-stored header's root. s.mu is held to look the header up and again
// to store; the checks between run unlocked (they read only the request and
// the header copy), so connections verify side by side and reads do not wait
// behind signatures.
func (s *Server) handlePutChunk(r *PutChunkReq) *Response {
	if len(r.Data) == 0 || r.Parts <= 0 || r.Index < 0 || r.Index >= r.Parts {
		return errResp(ErrBadRequest)
	}
	s.mu.Lock()
	hdr, err := s.store.Header(r.Block)
	s.mu.Unlock()
	if err != nil {
		return errResp(fmt.Errorf("store chunk: header unknown: %w", ErrNotFound))
	}
	g, err := core.DecodeGroup(r.Index, r.Parts, r.TxStart, r.Data, r.Proofs)
	if err != nil {
		return errResp(fmt.Errorf("%w: %v", ErrBadRequest, err))
	}
	if err := g.Verify(hdr.MerkleRoot); err != nil {
		if errors.Is(err, core.ErrBadGroup) {
			err = fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		return errResp(err)
	}
	chunk := g.Chunk(r.Block, r.Data)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.store.PutChunk(chunk); err != nil {
		return errResp(err)
	}
	return okResp()
}

// chunkResp is a stored chunk as the wire carries it. The payload is the
// store's copy-on-read bytes, passed through undecoded.
func chunkResp(c *storage.Chunk) ChunkResp {
	return ChunkResp{Index: c.ID.Index, Parts: c.Parts, TxStart: c.TxStart, Data: c.Data, Proofs: c.Proofs}
}

func (s *Server) handleGetChunk(r *GetChunkReq) *Response {
	chk, err := s.store.Chunk(storage.ChunkID{Block: r.Block, Index: r.Index})
	if err != nil {
		return errResp(ErrNotFound)
	}
	resp := chunkResp(&chk)
	return &Response{Chunk: &resp}
}

// handleGetChunkBatch answers a batch fetch position-for-position; chunks
// this server does not hold are reported Found=false, never an error — the
// gateway treats holes as "ask another owner", not as failures.
func (s *Server) handleGetChunkBatch(r *ChunkBatchReq) *Response {
	if len(r.Refs) == 0 || len(r.Refs) > maxBatchRefs {
		return errResp(fmt.Errorf("%w: batch of %d refs", ErrBadRequest, len(r.Refs)))
	}
	out := &ChunkBatchResp{
		Found:  make([]bool, len(r.Refs)),
		Chunks: make([]ChunkResp, len(r.Refs)),
	}
	for i, ref := range r.Refs {
		chk, err := s.store.Chunk(storage.ChunkID{Block: ref.Block, Index: ref.Index})
		if err != nil {
			continue // missing or corrupted: withhold this position
		}
		out.Found[i] = true
		out.Chunks[i] = chunkResp(&chk)
	}
	return &Response{ChunkBatch: out}
}

// handleGetTxProof answers with the transaction plus its stored Merkle proof
// when this server's chunks of the block hold it — the light-client path:
// the response is verifiable against the block header alone, and no whole
// block crosses the wire.
func (s *Server) handleGetTxProof(r *TxProofReq) *Response {
	p, found := core.StoredTxProof(s.store, r.Block, r.TxID)
	return &Response{TxProof: &TxProofResp{Found: found, Tx: p.Tx, Proof: p.Proof}}
}

func (s *Server) handleGetBlockChunks(r *GetBlockChunksReq) *Response {
	out := &BlockChunksResp{}
	for _, idx := range s.store.ChunksForBlock(r.Block) {
		chk, err := s.store.Chunk(storage.ChunkID{Block: r.Block, Index: idx})
		if err != nil {
			continue // corrupted: withhold
		}
		out.Parts = chk.Parts
		out.Chunks = append(out.Chunks, chunkResp(&chk))
	}
	return &Response{BlockChunks: out}
}

func okResp() *Response { return &Response{OK: &struct{}{}} }

func errResp(err error) *Response { return &Response{Err: err.Error()} }

// respError converts a Response's Err field back to a Go error.
func respError(r *Response) error {
	if r.Err == "" {
		return nil
	}
	return errors.New(r.Err)
}
