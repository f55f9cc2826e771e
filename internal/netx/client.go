package netx

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/core"
	"icistrategy/internal/simnet"
	"icistrategy/internal/trace"
)

// Client errors.
var (
	ErrClosed          = errors.New("netx: client closed")
	ErrWrongReply      = errors.New("netx: reply to another request")
	ErrIncompleteBlock = errors.New("netx: could not gather every chunk")
	ErrNoServers       = errors.New("netx: no servers configured")
)

// dialTimeout bounds connection establishment.
const dialTimeout = 5 * time.Second

// DefaultRPCTimeout bounds one request/response round trip when the caller
// does not override it with SetTimeout. Without a per-call deadline, one
// stalled peer (accepted the connection, never answers) parks the caller —
// and everything queued behind it — forever.
const DefaultRPCTimeout = 15 * time.Second

// Link is the client end of one framed connection, shared by the storage
// Client below and the gateway's wire client: one request in flight at a
// time, each under the per-call I/O deadline, every reply matched to its
// request by id. It is safe for concurrent use; calls queue on its mutex.
type Link struct {
	mu      sync.Mutex
	conn    net.Conn // nil once closed, by Close or by a failed call
	br      *bufio.Reader
	timeout time.Duration
	lastID  uint32
}

// DialLink connects to addr.
func DialLink(addr string) (*Link, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	return &Link{conn: conn, br: bufio.NewReaderSize(conn, ReadBufferSize), timeout: DefaultRPCTimeout}, nil
}

// SetTimeout overrides the per-call I/O deadline; d <= 0 restores the
// default.
func (l *Link) SetTimeout(d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if d <= 0 {
		d = DefaultRPCTimeout
	}
	l.timeout = d
}

// Close tears the connection down; later calls return ErrClosed.
func (l *Link) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conn == nil {
		return nil
	}
	err := l.conn.Close()
	l.conn = nil
	return err
}

// closed reports whether Close, or a failed call, has torn the connection down.
func (l *Link) closed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conn == nil
}

// Call sends req and reads the reply into resp, both before the per-call
// deadline passes, so a stalled or half-dead peer surfaces as
// os.ErrDeadlineExceeded instead of hanging the caller. It returns the
// bytes moved on the wire in both directions.
//
// Any failure — transport, decode, or a reply carrying another request's id
// — closes the connection: a frame may be half-written, or the reply to
// this call may still arrive and would be read as the answer to the next.
// The caller dials again.
func (l *Link) Call(req WireEncoder, resp WireDecoder) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conn == nil {
		return 0, ErrClosed
	}
	n, err := l.exchange(req, resp)
	if err != nil {
		_ = l.conn.Close() // the call's own error is the one to report
		l.conn = nil
	}
	return n, err
}

func (l *Link) exchange(req WireEncoder, resp WireDecoder) (int, error) {
	if err := l.conn.SetDeadline(time.Now().Add(l.timeout)); err != nil {
		return 0, fmt.Errorf("netx: arm deadline: %w", err)
	}
	l.lastID++
	sent, err := WriteFrame(l.conn, l.lastID, req)
	if err != nil {
		return sent, err
	}
	id, recv, err := ReadFrame(l.br, resp)
	if err != nil {
		return sent + recv, err
	}
	if id != l.lastID {
		return sent + recv, fmt.Errorf("%w: reply carries id %d, request was %d", ErrWrongReply, id, l.lastID)
	}
	return sent + recv, nil
}

// Client is a connection to one storage server; Cluster (below)
// multiplexes clients for whole-cluster operations. A traced Client
// (Cluster.tracedClient) records each round trip under parent; several
// Clients may share one Link.
type Client struct {
	link   *Link
	tr     *trace.Tracer
	parent trace.SpanID
}

// Dial connects to a server.
func Dial(addr string) (*Client, error) {
	link, err := DialLink(addr)
	if err != nil {
		return nil, fmt.Errorf("netx: dial %s: %w", addr, err)
	}
	return &Client{link: link}, nil
}

// SetTimeout overrides the per-round-trip I/O deadline; d <= 0 restores the
// default. A round trip that blows its deadline is terminal for this Client
// (see Link.Call) — Cluster drops and re-dials failed connections.
func (c *Client) SetTimeout(d time.Duration) { c.link.SetTimeout(d) }

// Close tears the connection down.
func (c *Client) Close() error { return c.link.Close() }

// roundTrip sends one request and reads its response (see Link.Call). With
// a tracer installed, each round-trip is one span carrying the wire bytes it
// moved in both directions.
func (c *Client) roundTrip(req *Request) (*Response, error) {
	sp := c.tr.Start(c.parent, "netx", reqName(req), clientNode)
	var resp Response
	n, err := c.link.Call(req, &resp)
	sp.AddBytes(int64(n))
	sp.SetErr(err)
	sp.End()
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// PutHeader stores a header on the server.
func (c *Client) PutHeader(h chain.Header) error {
	resp, err := c.roundTrip(&Request{PutHeader: &PutHeaderReq{Header: h}})
	if err != nil {
		return err
	}
	return respError(resp)
}

// PutChunk stores a verified chunk on the server.
func (c *Client) PutChunk(req PutChunkReq) error {
	resp, err := c.roundTrip(&Request{PutChunk: &req})
	if err != nil {
		return err
	}
	return respError(resp)
}

// GetHeaders fetches all headers at or above fromHeight.
func (c *Client) GetHeaders(fromHeight uint64) ([]chain.Header, error) {
	resp, err := c.roundTrip(&Request{GetHeaders: &GetHeadersReq{FromHeight: fromHeight}})
	if err != nil {
		return nil, err
	}
	if err := respError(resp); err != nil {
		return nil, err
	}
	return resp.Headers, nil
}

// GetChunk fetches one chunk.
func (c *Client) GetChunk(block blockcrypto.Hash, index int) (*ChunkResp, error) {
	resp, err := c.roundTrip(&Request{GetChunk: &GetChunkReq{Block: block, Index: index}})
	if err != nil {
		return nil, err
	}
	if err := respError(resp); err != nil {
		return nil, err
	}
	if resp.Chunk == nil {
		return nil, ErrNotFound
	}
	return resp.Chunk, nil
}

// GetChunkBatch fetches several chunks (possibly of different blocks) in a
// single round trip. The response answers position-for-position; chunks the
// server does not hold come back with Found false rather than failing the
// whole batch.
func (c *Client) GetChunkBatch(refs []ChunkRef) (*ChunkBatchResp, error) {
	resp, err := c.roundTrip(&Request{GetChunkBatch: &ChunkBatchReq{Refs: refs}})
	if err != nil {
		return nil, err
	}
	if err := respError(resp); err != nil {
		return nil, err
	}
	if resp.ChunkBatch == nil || len(resp.ChunkBatch.Found) != len(refs) || len(resp.ChunkBatch.Chunks) != len(refs) {
		return nil, ErrBadRequest
	}
	return resp.ChunkBatch, nil
}

// GetTxProof asks the server for a transaction plus its stored Merkle proof.
// Found false means this server's chunks do not contain the transaction.
func (c *Client) GetTxProof(block, txID blockcrypto.Hash) (*TxProofResp, error) {
	resp, err := c.roundTrip(&Request{GetTxProof: &TxProofReq{Block: block, TxID: txID}})
	if err != nil {
		return nil, err
	}
	if err := respError(resp); err != nil {
		return nil, err
	}
	if resp.TxProof == nil {
		return nil, ErrBadRequest
	}
	return resp.TxProof, nil
}

// GetBlockChunks fetches every chunk the server holds for a block.
func (c *Client) GetBlockChunks(block blockcrypto.Hash) (*BlockChunksResp, error) {
	resp, err := c.roundTrip(&Request{GetBlockChunks: &GetBlockChunksReq{Block: block}})
	if err != nil {
		return nil, err
	}
	if err := respError(resp); err != nil {
		return nil, err
	}
	if resp.BlockChunks == nil {
		return nil, ErrNotFound
	}
	return resp.BlockChunks, nil
}

// Stats fetches the server's storage accounting.
func (c *Client) Stats() (*StatsResp, error) {
	resp, err := c.roundTrip(&Request{Stats: &StatsReq{}})
	if err != nil {
		return nil, err
	}
	if err := respError(resp); err != nil {
		return nil, err
	}
	if resp.Stats == nil {
		return nil, ErrBadRequest
	}
	return resp.Stats, nil
}

// Cluster drives a whole ICIStrategy cluster of TCP storage servers: it
// applies the same rendezvous placement as the simulator's protocol layer
// to distribute blocks, and reassembles them with Merkle-root verification
// on reads.
type Cluster struct {
	base        core.Epoch // the constructor membership: identity i serves at Addrs[i]
	replication int

	mu      sync.Mutex
	clients map[string]*Client
	cmap    core.EpochMap // newest cluster map seen: base until a poll or publish finds a newer
	timeout time.Duration // per-round-trip deadline applied to every client
	tr      *trace.Tracer
}

// NewCluster wires a cluster client over the given server addresses.
func NewCluster(addrs []string, replication int) (*Cluster, error) {
	if len(addrs) == 0 {
		return nil, ErrNoServers
	}
	if replication < 1 || replication > len(addrs) {
		return nil, fmt.Errorf("netx: replication %d with %d servers", replication, len(addrs))
	}
	ids := make([]simnet.NodeID, len(addrs))
	for i := range ids {
		ids[i] = simnet.NodeID(i)
	}
	var cmap core.EpochMap
	base, err := cmap.Push(0, ids, addrs)
	if err != nil {
		return nil, fmt.Errorf("netx: %w", err)
	}
	return &Cluster{
		base:        *base,
		replication: replication,
		clients:     make(map[string]*Client),
		cmap:        cmap,
		timeout:     DefaultRPCTimeout,
	}, nil
}

// SetTimeout sets the per-round-trip deadline applied to every connection
// the cluster opens (and those already open); d <= 0 restores the default.
func (cl *Cluster) SetTimeout(d time.Duration) {
	if d <= 0 {
		d = DefaultRPCTimeout
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.timeout = d
	for _, c := range cl.clients {
		c.SetTimeout(d)
	}
}

// Close closes all cached connections.
func (cl *Cluster) Close() {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	for _, c := range cl.clients {
		_ = c.Close()
	}
	cl.clients = make(map[string]*Client)
}

// Client returns the cached connection to addr, dialing one if there is
// none. The cache is shared by everything that reads through this cluster,
// the gateway upstream included.
func (cl *Cluster) Client(addr string) (*Client, error) {
	cl.mu.Lock()
	if c, ok := cl.clients[addr]; ok {
		cl.mu.Unlock()
		return c, nil
	}
	cl.mu.Unlock()
	c, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if existing, ok := cl.clients[addr]; ok {
		_ = c.Close()
		return existing, nil
	}
	c.SetTimeout(cl.timeout)
	cl.clients[addr] = c
	return c, nil
}

// dial opens a connection of the caller's own to addr, outside the cache,
// under the cluster's per-round-trip deadline.
func (cl *Cluster) dial(addr string) (*Client, error) {
	c, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	cl.mu.Lock()
	c.SetTimeout(cl.timeout)
	cl.mu.Unlock()
	return c, nil
}

// DropClient evicts c's connection from the cache once a call on it has
// failed in transport, which closed it (Link.Call). A connection whose
// server only answered with an error is sound and stays: other goroutines
// may be in the middle of calls on it. A newer connection to addr that
// another goroutine has dialed since stays too.
func (cl *Cluster) DropClient(addr string, c *Client) {
	if !c.link.closed() {
		return
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cached, ok := cl.clients[addr]; ok && cached.link == c.link {
		delete(cl.clients, addr)
	}
}

// DistributeBlock stores a block across the cluster: the header goes to
// every server, and each transaction-group chunk (with Merkle proofs) to
// its rendezvous owners. Members are written to side by side; when several
// fail, the error of the first in address order is returned, and what the
// others stored stands (it is verified data, and puts are idempotent).
func (cl *Cluster) DistributeBlock(b *chain.Block) error {
	span := cl.tracer().Start(0, "distribute", "distribute-block", clientNode)
	span.AddBytes(int64(b.BodySize()))
	err := cl.distributeBlock(b, span.Context())
	span.SetErr(err)
	span.End()
	return err
}

func (cl *Cluster) distributeBlock(b *chain.Block, parent trace.SpanID) error {
	groups, err := core.SplitBlock(b, len(cl.base.Addrs))
	if err != nil {
		return err
	}
	hash := b.Hash()
	seed := hash.Uint64()
	reqs := make([]PutChunkReq, len(groups))
	owned := make([][]int, len(cl.base.Addrs)) // chunk indices per member, ascending
	for idx := range groups {
		g := &groups[idx]
		reqs[idx] = PutChunkReq{Block: hash, Index: idx, Parts: g.Parts, TxStart: g.TxStart, Data: g.Encode(), Proofs: g.Proofs}
		owners, err := cl.base.Owners(seed, idx, cl.replication)
		if err != nil {
			return err
		}
		for _, o := range owners {
			owned[int(o)] = append(owned[int(o)], idx)
		}
	}

	// One goroutine per member: a server refuses a chunk whose header it
	// does not hold, and one connection delivers in order.
	errs := make([]error, len(cl.base.Addrs))
	var wg sync.WaitGroup
	for m, addr := range cl.base.Addrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[m] = cl.putToMember(addr, parent, b.Header, reqs, owned[m])
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// putToMember sends one member its share of a block over the cached
// connection: the header, then the chunks it owns.
func (cl *Cluster) putToMember(addr string, parent trace.SpanID, hdr chain.Header, reqs []PutChunkReq, owned []int) error {
	c, err := cl.tracedClient(addr, parent)
	if err != nil {
		return err
	}
	if err := c.PutHeader(hdr); err != nil {
		cl.DropClient(addr, c)
		return fmt.Errorf("put header to %s: %w", addr, err)
	}
	for _, idx := range owned {
		if err := c.PutChunk(reqs[idx]); err != nil {
			cl.DropClient(addr, c)
			return fmt.Errorf("put chunk %d to %s: %w", idx, addr, err)
		}
	}
	return nil
}

// RetrieveBlock reads the block of hdr by the cluster map this cluster holds
// — how many chunks it was cut into, who may hold each — verifies it
// against the header's Merkle root (Gather) and decodes the encoding Gather
// returns. A read that fails may have been
// resolved under a stale map: the members are polled for a newer one once,
// and with one adopted the read is tried again.
func (cl *Cluster) RetrieveBlock(hdr chain.Header) (*chain.Block, error) {
	span := cl.tracer().Start(0, "retrieve", "retrieve-block", clientNode)
	m := cl.Map()
	b, err := cl.retrieveBlock(hdr, m, span.Context())
	if err != nil && cl.CurrentMap().Newer(m) {
		b, err = cl.retrieveBlock(hdr, cl.Map(), span.Context())
	}
	if b != nil {
		span.AddBytes(int64(b.BodySize()))
	}
	span.SetErr(err)
	span.End()
	return b, err
}

// retrieveBlock is one Gather under the map m, one GetChunkBatch per member
// asked; a member's number is its position in ids, whatever its identity.
func (cl *Cluster) retrieveBlock(hdr chain.Header, m core.EpochMap, parent trace.SpanID) (*chain.Block, error) {
	seed := hdr.Hash().Uint64()
	var ids []simnet.NodeID
	holders := make([][]int, len(m.At(hdr.Height).Members))
	for idx := range holders {
		owners, err := m.Holders(seed, idx, cl.replication, hdr.Height)
		if err != nil {
			return nil, err
		}
		for _, id := range owners {
			if !slices.Contains(ids, id) {
				ids = append(ids, id)
			}
			holders[idx] = append(holders[idx], slices.Index(ids, id))
		}
	}
	enc, _, err := Gather(hdr, make([]*ChunkResp, len(holders)), holders, func(member int, refs []ChunkRef) *ChunkBatchResp {
		addr := m.Addr(ids[member])
		c, err := cl.tracedClient(addr, parent)
		if err != nil {
			return nil // dead server: degraded read
		}
		resp, err := c.GetChunkBatch(refs)
		if err != nil {
			cl.DropClient(addr, c)
		}
		return resp
	})
	if err != nil {
		return nil, err
	}
	return chain.DecodeBlock(enc)
}
