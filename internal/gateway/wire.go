package gateway

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/core"
	"icistrategy/internal/netx"
)

// The gateway's client-facing protocol rides the storage protocol's frames
// (netx.WriteFrame/ReadFrame; DESIGN.md "Wire format") with its own tiny
// request/response unions and opcodes: full verified blocks and
// light-client transaction proofs.

// WireRequest is the union of gateway client requests; exactly one field
// is set.
type WireRequest struct {
	GetBlock   *WireBlockReq
	GetTxProof *WireProofReq
}

// WireBlockReq asks for a full block by hash.
type WireBlockReq struct {
	Block blockcrypto.Hash
}

// WireProofReq asks for a transaction-inclusion proof.
type WireProofReq struct {
	Block blockcrypto.Hash
	TxID  blockcrypto.Hash
}

// WireResponse is the union of gateway responses; Err is set on failure.
type WireResponse struct {
	Err   string
	Block []byte // chain.Block.Encode() payload
	Proof *WireProofResp

	// block is how the server sends a block: encoded straight into the
	// frame, where Block would cost a copy of it per read first. The two
	// make the same frame. Served reads do not cross Block (see blockReply
	// for the client's half); it is the form the benchmark's gateway.wire
	// probe and the codec tests build, and what a decoded response carries.
	block *chain.Block
}

// WireProofResp carries a verified inclusion proof.
type WireProofResp struct {
	Tx     *chain.Transaction
	Header chain.Header
	Proof  chain.Proof
}

// Opcodes of the gateway protocol, disjoint from the storage protocol's so
// a client that dials the wrong listener gets an unknown-opcode error.
const (
	opNone       uint8 = 0 // a WireRequest with no variant set
	opGetBlock   uint8 = 0x20
	opGetTxProof uint8 = 0x21
	opRespErr    uint8 = 0x60
	opRespBlock  uint8 = 0x61
	opRespProof  uint8 = 0x62
)

const hashSize = blockcrypto.HashSize

// AppendWire implements netx.WireEncoder: the block hash, then for a proof
// request the transaction id.
func (r *WireRequest) AppendWire(b []byte) (uint8, []byte) {
	if r.GetBlock != nil {
		return opGetBlock, append(b, r.GetBlock.Block[:]...)
	}
	if r.GetTxProof != nil {
		b = append(b, r.GetTxProof.Block[:]...)
		return opGetTxProof, append(b, r.GetTxProof.TxID[:]...)
	}
	return opNone, b // the server answers "malformed request"
}

// DecodeWire implements netx.WireDecoder.
func (r *WireRequest) DecodeWire(op uint8, fields []byte) error {
	*r = WireRequest{}
	want := 0
	switch op {
	case opNone:
	case opGetBlock:
		want = hashSize
	case opGetTxProof:
		want = 2 * hashSize
	default:
		return fmt.Errorf("%w %#x for a gateway request", netx.ErrBadOpcode, op)
	}
	if len(fields) != want {
		return fmt.Errorf("%w: %d bytes for gateway request %#x, want %d", netx.ErrMalformed, len(fields), op, want)
	}
	switch op {
	case opGetBlock:
		r.GetBlock = &WireBlockReq{Block: blockcrypto.Hash(fields)}
	case opGetTxProof:
		r.GetTxProof = &WireProofReq{Block: blockcrypto.Hash(fields[:hashSize]), TxID: blockcrypto.Hash(fields[hashSize:])}
	}
	return nil
}

// AppendWire implements netx.WireEncoder. An error string or an encoded
// block is the whole of its frame's fields; a proof is
//
//	bool hasTx | [transaction] | header | proof
func (r *WireResponse) AppendWire(b []byte) (uint8, []byte) {
	switch {
	case r.Err != "":
		return opRespErr, append(b, r.Err...)
	case r.Proof != nil:
		if r.Proof.Tx == nil {
			b = append(b, 0)
		} else {
			b = r.Proof.Tx.AppendTo(append(b, 1))
		}
		b = r.Proof.Header.AppendTo(b)
		return opRespProof, chain.AppendProof(b, r.Proof.Proof)
	case r.block != nil:
		return opRespBlock, r.block.AppendTo(b)
	default:
		return opRespBlock, append(b, r.Block...)
	}
}

// DecodeWire implements netx.WireDecoder. The response owns every byte it
// keeps; fields is the connection's pooled read buffer.
func (r *WireResponse) DecodeWire(op uint8, fields []byte) error {
	*r = WireResponse{}
	switch op {
	case opRespErr:
		return decodeRemoteErr(&r.Err, fields)
	case opRespBlock:
		if len(fields) > 0 {
			r.Block = append([]byte(nil), fields...)
		}
	case opRespProof:
		p, err := decodeWireProof(fields)
		if err != nil {
			return fmt.Errorf("%w: proof response: %v", netx.ErrMalformed, err)
		}
		r.Proof = p
	default:
		return fmt.Errorf("%w %#x for a gateway response", netx.ErrBadOpcode, op)
	}
	return nil
}

// decodeRemoteErr reads an error response: the message is the rest of the
// frame, and never empty — an empty one would read as success.
func decodeRemoteErr(into *string, fields []byte) error {
	if len(fields) == 0 {
		return fmt.Errorf("%w: error response with no message", netx.ErrMalformed)
	}
	*into = string(fields)
	return nil
}

func decodeWireProof(b []byte) (*WireProofResp, error) {
	if len(b) == 0 || b[0] > 1 {
		return nil, errors.New("bad transaction flag")
	}
	p := &WireProofResp{}
	hasTx := b[0] == 1
	b = b[1:]
	if hasTx {
		tx, n, err := chain.DecodeTransaction(b)
		if err != nil {
			return nil, err
		}
		p.Tx, b = tx, b[n:]
	}
	var err error
	if p.Header, err = chain.DecodeHeader(b); err != nil {
		return nil, err
	}
	b = b[chain.HeaderSize:]
	var n int
	if p.Proof, n, err = chain.DecodeProof(b); err != nil {
		return nil, err
	}
	if n != len(b) {
		return nil, fmt.Errorf("%d trailing bytes", len(b)-n)
	}
	return p, nil
}

// writeTimeout bounds the write of one response, so a client that stops
// reading costs a handler goroutine that long, not until Close. A variable
// only so the regression test can shorten it.
var writeTimeout = netx.DefaultRPCTimeout

// Server exposes a Gateway on a TCP listener.
type Server struct {
	g  *Gateway
	ln netx.Listener
}

// NewServer starts serving g on addr ("host:0" picks a free port).
func NewServer(addr string, g *Gateway) (*Server, error) {
	s := &Server{g: g}
	if err := s.ln.Listen(addr, s.serveConn); err != nil {
		return nil, fmt.Errorf("gateway: listen %s: %w", addr, err)
	}
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr() }

// Close stops accepting and drains as the storage server does (see
// netx.Listener): a connection waiting for its next request ends at once and
// a request already being answered writes its response. No handler touches
// the Gateway after Close returns.
func (s *Server) Close() error {
	_, err := s.ln.Close()
	return err
}

func (s *Server) serveConn(conn net.Conn) {
	br := bufio.NewReaderSize(conn, netx.ReadBufferSize)
	for !s.ln.Draining() {
		var req WireRequest
		// Waiting for the client's next request may legitimately block for
		// the connection's whole idle lifetime; Close unwedges it with a
		// read deadline in the past, so none is armed here.
		id, _, err := netx.ReadFrame(br, &req)
		if err != nil {
			return
		}
		resp := s.handle(&req)
		if err := conn.SetWriteDeadline(time.Now().Add(writeTimeout)); err != nil {
			return
		}
		if _, err := netx.WriteFrame(conn, id, resp); err != nil {
			return
		}
	}
}

func (s *Server) handle(req *WireRequest) *WireResponse {
	switch {
	case req.GetBlock != nil:
		b, err := s.g.GetBlock(req.GetBlock.Block)
		if err != nil {
			return &WireResponse{Err: err.Error()}
		}
		return &WireResponse{block: b}
	case req.GetTxProof != nil:
		p, err := s.g.GetTxProof(req.GetTxProof.Block, req.GetTxProof.TxID)
		if err != nil {
			return &WireResponse{Err: err.Error()}
		}
		return &WireResponse{Proof: &WireProofResp{Tx: p.Tx, Header: p.Header, Proof: p.Proof}}
	default:
		return &WireResponse{Err: "gateway: malformed request"}
	}
}

// Client is a connection to a gateway server.
type Client struct {
	link *netx.Link
}

// ErrRemote wraps error strings reported by the gateway server.
var ErrRemote = errors.New("gateway: remote error")

// DialClient connects to a gateway server.
func DialClient(addr string) (*Client, error) {
	link, err := netx.DialLink(addr)
	if err != nil {
		return nil, fmt.Errorf("gateway: dial %s: %w", addr, err)
	}
	return &Client{link: link}, nil
}

// SetTimeout overrides the per-call I/O deadline; d <= 0 restores the
// default.
func (c *Client) SetTimeout(d time.Duration) { c.link.SetTimeout(d) }

// Close tears the connection down.
func (c *Client) Close() error { return c.link.Close() }

// blockReply is GetBlock's view of a response frame: the block is decoded
// straight out of the connection's frame buffer (DecodeBlock copies what it
// keeps), where a WireResponse would first copy the encoded block into a
// Block field that is garbage a moment later. With that copy and the
// server's in the path, tcp-read-hot's peak_rss_mb crossed its bound.
type blockReply struct {
	err   string
	block *chain.Block
}

// DecodeWire implements netx.WireDecoder.
func (r *blockReply) DecodeWire(op uint8, fields []byte) error {
	*r = blockReply{}
	switch op {
	case opRespErr:
		return decodeRemoteErr(&r.err, fields)
	case opRespBlock:
		b, err := chain.DecodeBlock(fields)
		if err != nil {
			return fmt.Errorf("gateway: decode block: %w", err)
		}
		r.block = b
	default:
		return fmt.Errorf("%w %#x for a block response", netx.ErrBadOpcode, op)
	}
	return nil
}

// GetBlock fetches a full block through the gateway and refuses a reply
// whose header does not hash to h. Like every call on a netx.Link, a
// transport, decode or request-id failure closes the connection; an error
// the server reports does not.
func (c *Client) GetBlock(h blockcrypto.Hash) (*chain.Block, error) {
	var reply blockReply
	if _, err := c.link.Call(&WireRequest{GetBlock: &WireBlockReq{Block: h}}, &reply); err != nil {
		return nil, err
	}
	if reply.block == nil {
		return nil, fmt.Errorf("%w: %s", ErrRemote, reply.err)
	}
	if got := reply.block.Hash(); got != h {
		return nil, fmt.Errorf("%w: asked for block %s, got %s", ErrRemote, h.Short(), got.Short())
	}
	return reply.block, nil
}

// GetTxProof fetches a transaction-inclusion proof through the gateway and
// re-verifies it client-side before returning.
func (c *Client) GetTxProof(block, txID blockcrypto.Hash) (core.TxProof, error) {
	var resp WireResponse
	if _, err := c.link.Call(&WireRequest{GetTxProof: &WireProofReq{Block: block, TxID: txID}}, &resp); err != nil {
		return core.TxProof{}, err
	}
	if resp.Err != "" {
		return core.TxProof{}, fmt.Errorf("%w: %s", ErrRemote, resp.Err)
	}
	if resp.Proof == nil {
		return core.TxProof{}, fmt.Errorf("%w: empty proof response", ErrRemote)
	}
	p := core.TxProof{Tx: resp.Proof.Tx, Header: resp.Proof.Header, Proof: resp.Proof.Proof}
	if err := p.Verify(); err != nil {
		return core.TxProof{}, fmt.Errorf("gateway: proof verification: %w", err)
	}
	if p.Header.Hash() != block || p.Tx.ID() != txID {
		return core.TxProof{}, fmt.Errorf("%w: proof for the wrong block or transaction", ErrRemote)
	}
	return p, nil
}
