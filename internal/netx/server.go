package netx

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"icistrategy/internal/chain"
	"icistrategy/internal/core"
	"icistrategy/internal/storage"
	"icistrategy/internal/trace"
)

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
	ln Listener

	mu     sync.Mutex
	store  *storage.Store
	cmap   core.EpochMap // newest published cluster map; empty until the first publish
	tr     *trace.Tracer
	logf   Logf
	faults *faultState

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
	s := &Server{store: storage.NewStore()}
	if err := s.ln.Listen(addr, s.serveConn); err != nil {
		return nil, fmt.Errorf("netx: listen %s: %w", addr, err)
	}
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr() }

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

// Close stops the listener and drains (see Listener): every connection
// goroutine has exited by the time Close returns, and no handler surfaces
// "use of closed network connection" — the old behavior of force-closing
// active connections mid-frame.
func (s *Server) Close() error {
	if s.ln.Draining() {
		return nil
	}
	open, err := s.ln.Close()
	s.event("serve.drained", "conns", open)
	return err
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
	if errors.Is(err, os.ErrDeadlineExceeded) && s.ln.Draining() {
		return // drain deadline cut off an idle or straggling connection
	}
	if errors.Is(err, net.ErrClosed) && s.ln.Draining() {
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
		if s.ln.Draining() {
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
		resp := s.handle(&req, corrupt)
		if err := conn.SetWriteDeadline(time.Now().Add(writeTimeout)); err != nil {
			s.connErr("write", err)
			return
		}
		sent, err := WriteFrame(conn, id, resp)
		if err != nil {
			s.connErr("write", err)
			return
		}
		if tr.Enabled() {
			tr.Point(0, "netx", "serve:"+reqName(&req), clientNode, int64(recv+sent), resp.errText())
		}
	}
}

// reply is what a request is answered with: the encoder of the response
// frame, and the error the frame reports, for the serve trace point.
type reply interface {
	WireEncoder
	errText() string
}

func (r *Response) errText() string { return r.Err }

// handle answers one request. corrupt is the chaos layer's decision to
// damage the chunks of the answer, if it carries any.
func (s *Server) handle(req *Request, corrupt bool) reply {
	if req.GetChunk != nil || req.GetChunkBatch != nil || req.GetBlockChunks != nil {
		return s.handleChunkRead(req, corrupt) // locks for as long as it encodes
	}
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

// handlePutChunk verifies what the server stores: the chunk must pass the
// check every owner runs on a chunk it receives as bytes (core.AdoptChunk)
// against the already-stored header, cut into as many parts as the map this
// server holds gives the block's write epoch members: a writer holding a
// stale map splits for another membership, which no reader by the map can
// put together (a server that holds no map takes the count on trust). s.mu
// is held to look the header and map up and again to store; the checks
// between run unlocked (they read only the request and the header copy), so
// connections verify side by side and reads do not wait behind signatures.
func (s *Server) handlePutChunk(r *PutChunkReq) *Response {
	if len(r.Data) == 0 || r.Parts <= 0 || r.Index < 0 || r.Index >= r.Parts {
		return errResp(ErrBadRequest)
	}
	s.mu.Lock()
	hdr, err := s.store.Header(r.Block)
	m := s.cmap
	s.mu.Unlock()
	if err != nil {
		return errResp(fmt.Errorf("store chunk: header unknown: %w", ErrNotFound))
	}
	if len(m) > 0 && r.Parts != len(m.At(hdr.Height).Members) {
		return errResp(fmt.Errorf("%w: block cut into %d parts, not by epoch %d of the cluster map", ErrBadRequest, r.Parts, m.At(hdr.Height).Seq))
	}
	chunk, err := core.AdoptChunk(hdr, r.Index, r.Parts, r.TxStart, r.Data, r.Proofs)
	if err != nil {
		if errors.Is(err, core.ErrBadGroup) {
			err = fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		return errResp(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.store.PutChunk(chunk); err != nil {
		return errResp(err)
	}
	return okResp()
}

// handleChunkRead answers get_chunk, get_chunks and get_block_chunks. The
// answer is a storedChunks, whose encoding is the read; only a batch of no
// refs, or of too many, is refused here.
func (s *Server) handleChunkRead(req *Request, corrupt bool) reply {
	if q := req.GetChunkBatch; q != nil && (len(q.Refs) == 0 || len(q.Refs) > maxBatchRefs) {
		return errResp(fmt.Errorf("%w: batch of %d refs", ErrBadRequest, len(q.Refs)))
	}
	return &storedChunks{s: s, req: req, corrupt: corrupt}
}

// storedChunks is the response to a chunk read. It is not filled from the
// store and then encoded: AppendWire, called with the pooled response frame,
// takes s.mu and appends each chunk's fields from the store's own value
// (storage.Store.LendChunk), so the frame is the store's copy-on-read — the
// one copy between a stored chunk and the socket — and no stored slice is
// reachable once the lock is released.
type storedChunks struct {
	s   *Server
	req *Request
	// corrupt is the chaos layer's decision for this request: flip the last
	// data byte of every chunk in the frame (FaultConfig.CorruptRate).
	corrupt bool
	parts   int    // the part count of the last chunk appended
	err     string // what the frame says when it is an error response
}

func (r *storedChunks) errText() string { return r.err }

// AppendWire implements WireEncoder with the encodings of Response's Chunk,
// ChunkBatch and BlockChunks variants.
func (r *storedChunks) AppendWire(b []byte) (uint8, []byte) {
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	switch {
	case r.req.GetChunk != nil:
		// A chunk moved between members is verified where it lands, with
		// its proofs (transfer).
		q := r.req.GetChunk
		var ok bool
		if b, ok = r.appendStored(b, storage.ChunkID{Block: q.Block, Index: q.Index}, true); !ok {
			r.err = ErrNotFound.Error()
			return opRespErr, append(b, r.err...)
		}
		return opRespChunk, b
	case r.req.GetChunkBatch != nil:
		// Position for position; a chunk this server does not hold, or
		// holds damaged, is Found=false with a zero chunk, never an error:
		// the reader asks another holder for it.
		refs := r.req.GetChunkBatch.Refs
		b = binary.AppendUvarint(b, uint64(len(refs)))
		found := len(b)
		b = append(b, make([]byte, len(refs))...)
		b = binary.AppendUvarint(b, uint64(len(refs)))
		for i := range refs {
			ref := &refs[i]
			var ok bool
			if b, ok = r.appendStored(b, storage.ChunkID{Block: ref.Block, Index: ref.Index}, ref.Proofs); ok {
				b[found+i] = 1
			} else {
				b = appendChunkFields(b, 0, 0, 0, nil, nil)
			}
		}
		return opRespChunkBatch, b
	default:
		// Every chunk held of one block, with proofs. How many pass their digest check
		// is known only once they are in the frame: the two fields before
		// them are put in front afterwards.
		block := r.req.GetBlockChunks.Block
		start, n := len(b), 0
		for _, idx := range r.s.store.ChunksForBlock(block) {
			var ok bool
			if b, ok = r.appendStored(b, storage.ChunkID{Block: block, Index: idx}, true); ok {
				n++
			}
		}
		var head [2 * binary.MaxVarintLen64]byte
		return opRespBlockChunks, slices.Insert(b, start, binary.AppendUvarint(appendInt(head[:0], r.parts), uint64(n))...)
	}
}

// appendStored is the one place a stored chunk is put on the wire: its
// digest is checked (a damaged or missing chunk is withheld: ok is false and
// b comes back as it was) and its fields are appended to b from the store's
// own value, with or without the proofs the store rebuilds. The caller holds
// s.mu.
func (r *storedChunks) appendStored(b []byte, id storage.ChunkID, proofs bool) (out []byte, ok bool) {
	err := r.s.store.LendChunk(id, proofs, func(c storage.Chunk) {
		b = appendChunkPayload(b, c.ID.Index, c.Parts, c.TxStart, c.Data)
		if r.corrupt {
			// The last byte is inside the last transaction's signature, so
			// the payload still decodes and only a check against the Merkle
			// root catches it (the first byte is the transaction count:
			// flipping that fails the decode before any verification).
			b[len(b)-1] ^= 0xFF
		}
		b = chain.AppendProofs(b, c.Proofs)
		r.parts = c.Parts
	})
	return b, err == nil
}

// handleGetTxProof answers with the transaction plus its stored Merkle proof
// when this server's chunks of the block hold it — the light-client path:
// the response is verifiable against the block header alone, and no whole
// block crosses the wire.
func (s *Server) handleGetTxProof(r *TxProofReq) *Response {
	p, found := core.StoredTxProof(s.store, r.Block, r.TxID)
	return &Response{TxProof: &TxProofResp{Found: found, Tx: p.Tx, Proof: p.Proof}}
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
