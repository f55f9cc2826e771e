package netx

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"time"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/core"
	"icistrategy/internal/simnet"
)

// The wire format. Every message is one frame:
//
//	u32 length | u8 version | u8 opcode | u32 request id | fields
//
// length (big-endian) counts everything after itself. The opcode names the
// variant of the Request/Response union the fields belong to, so no field
// is tagged: integers are varints (zigzag for Go ints, which may be
// negative), hashes are 32 raw bytes, byte strings carry a uvarint length,
// lists a uvarint count, and headers, transactions and Merkle proofs use
// the chain package's own encodings. DESIGN.md "Wire format" has the
// opcode table.

// wireVersion is the only frame version this build speaks; a frame with
// another version is rejected, never guessed at.
const wireVersion = 1

// frameHeaderSize is the fixed part of a frame: length, version, opcode,
// request id.
const frameHeaderSize = 4 + 1 + 1 + 4

// ReadBufferSize is the size of the bufio.Reader each connection reads
// through: a frame's header and body arrive in one read when they fit, and
// a larger body is read straight into the frame buffer.
const ReadBufferSize = 32 << 10

// Wire errors.
var (
	ErrBadVersion = errors.New("netx: unknown frame version")
	ErrBadOpcode  = errors.New("netx: unknown opcode")
	ErrMalformed  = errors.New("netx: malformed frame")
)

// WireEncoder is what WriteFrame sends and WireDecoder what ReadFrame fills.
// Request and Response are both here; the gateway's client protocol
// implements the interfaces for its own unions with its own opcodes.
type WireEncoder interface {
	// AppendWire appends the fields of the variant that is set to buf and
	// returns that variant's opcode with the extended buffer.
	AppendWire(buf []byte) (op uint8, out []byte)
}

type WireDecoder interface {
	// DecodeWire replaces the receiver with the variant op decoded from
	// fields. fields is only valid during the call: whatever the message
	// keeps, it copies.
	DecodeWire(op uint8, fields []byte) error
}

// Opcodes of the storage protocol. Requests and responses share one
// space so a frame of the wrong direction is an unknown opcode.
const (
	opNone uint8 = iota // a Request with no variant set
	opPutHeader
	opPutChunk
	opGetHeaders
	opGetChunk
	_ // 0x05 was get_chunk_batch, whose refs carried no proofs flag: retired, never reassigned
	opGetBlockChunks
	opGetTxProof
	opGetClusterMap
	opSetClusterMap
	opStats
	opFault
	opGetChunks
)

const (
	opRespErr uint8 = 0x40 + iota
	opRespOK
	opRespHeaders
	opRespChunk
	opRespChunkBatch
	opRespBlockChunks
	opRespTxProof
	opRespClusterMap
	opRespStats
	opRespFaults
)

// framePool recycles frame buffers across reads and writes on every
// connection. Buffers that grew past maxPooledFrame (a bootstrap's header
// list, say) are dropped rather than kept alive by the pool.
var framePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

const maxPooledFrame = 1 << 20

func putFrame(bp *[]byte) {
	if cap(*bp) <= maxPooledFrame {
		framePool.Put(bp)
	}
}

// WriteFrame encodes m into one pooled buffer and hands it to w in a single
// Write. It returns the frame's size on the wire.
func WriteFrame(w io.Writer, id uint32, m WireEncoder) (int, error) {
	bp := framePool.Get().(*[]byte)
	defer putFrame(bp)
	op, buf := m.AppendWire(append((*bp)[:0], make([]byte, frameHeaderSize)...))
	*bp = buf // the pool keeps what the buffer grew to
	if len(buf)-4 > maxMessageSize {
		return 0, ErrTooLarge
	}
	binary.BigEndian.PutUint32(buf, uint32(len(buf)-4))
	buf[4], buf[5] = wireVersion, op
	binary.BigEndian.PutUint32(buf[6:], id)
	return w.Write(buf)
}

// ReadFrame reads one frame from r into m and returns the request id it
// carries and its size on the wire. The body is read into a pooled buffer
// that grows with the bytes that arrive, so a header claiming a huge length
// on a short (or hostile) stream costs only what was sent; m copies what
// it keeps, so nothing decoded aliases the buffer.
func ReadFrame(r io.Reader, m WireDecoder) (id uint32, size int, err error) {
	bp := framePool.Get().(*[]byte)
	buf := (*bp)[:4]
	defer func() {
		*bp = buf // the pool keeps what the buffer grew to
		putFrame(bp)
	}()
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, 0, err
	}
	n := binary.BigEndian.Uint32(buf)
	if n > maxMessageSize {
		return 0, 0, ErrTooLarge
	}
	if n < frameHeaderSize-4 {
		return 0, 0, fmt.Errorf("%w: length %d is shorter than a frame header", ErrMalformed, n)
	}
	for need := int(n); need > 0; {
		step := min(need, max(len(buf), 64<<10))
		buf = slices.Grow(buf, step)
		got, err := io.ReadFull(r, buf[len(buf):len(buf)+step])
		buf = buf[:len(buf)+got]
		need -= got
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // the stream ended inside a frame
			}
			return 0, 0, err
		}
	}
	if buf[4] != wireVersion {
		return 0, 0, fmt.Errorf("%w %d", ErrBadVersion, buf[4])
	}
	id = binary.BigEndian.Uint32(buf[6:])
	return id, len(buf), m.DecodeWire(buf[5], buf[frameHeaderSize:])
}

// WriteMessage writes v, which must be a WireEncoder, as one frame with
// request id 0: the form for callers that do not match replies to requests.
func WriteMessage(w io.Writer, v any) error {
	m, ok := v.(WireEncoder)
	if !ok {
		return fmt.Errorf("netx: encode: %T is not a wire message", v)
	}
	_, err := WriteFrame(w, 0, m)
	return err
}

// ReadMessage reads one frame into v (see WriteMessage), ignoring its
// request id.
func ReadMessage(r io.Reader, v any) error {
	m, ok := v.(WireDecoder)
	if !ok {
		return fmt.Errorf("netx: decode: %T is not a wire message", v)
	}
	_, _, err := ReadFrame(r, m)
	return err
}

// Append helpers for the field kinds that have no encoding of their own.

func appendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendBytes(b, v []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

func appendString(b []byte, v string) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

// wireReader walks the fields of one frame. The first short or malformed
// field sets err and every later read returns a zero value, so a decoder
// reads straight through and checks once, in done.
type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) fail(what, why string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s %s", ErrMalformed, what, why)
	}
	r.b = nil
}

// take returns the next n bytes, still aliasing the frame.
func (r *wireReader) take(n int, what string) []byte {
	if n < 0 || n > len(r.b) {
		r.fail(what, "truncated")
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *wireReader) uvarint(what string) uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail(what, "truncated")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *wireReader) int64(what string) int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail(what, "truncated")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *wireReader) int(what string) int { return int(r.int64(what)) }

func (r *wireReader) bool(what string) bool {
	b := r.take(1, what)
	if b == nil {
		return false
	}
	if b[0] > 1 {
		r.fail(what, "is not 0 or 1")
	}
	return b[0] == 1
}

func (r *wireReader) hash(what string) (h blockcrypto.Hash) {
	copy(h[:], r.take(blockcrypto.HashSize, what))
	return h
}

func (r *wireReader) float64(what string) float64 {
	b := r.take(8, what)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.BigEndian.Uint64(b))
}

// count reads a list length and rejects one that the bytes left could not
// hold at minSize bytes an element, so no allocation is sized by a claim.
func (r *wireReader) count(minSize int, what string) int {
	n := r.uvarint(what)
	if n > uint64(len(r.b)/minSize) {
		r.fail(what, "count exceeds the bytes that follow")
		return 0
	}
	return int(n)
}

// bytes reads a length-prefixed byte string into memory the caller owns;
// an empty one decodes as nil.
func (r *wireReader) bytes(what string) []byte {
	n := r.count(1, what)
	if n == 0 {
		return nil
	}
	return append([]byte(nil), r.take(n, what)...)
}

func (r *wireReader) string(what string) string {
	return string(r.take(r.count(1, what), what))
}

func (r *wireReader) header() (h chain.Header) {
	if b := r.take(chain.HeaderSize, "header"); b != nil {
		h, _ = chain.DecodeHeader(b) // length checked by take
	}
	return h
}

// The chain decoders below are skipped once a field has failed, so a frame
// that goes bad inside a list costs nothing more per remaining element.

func (r *wireReader) proof() chain.Proof {
	if r.err != nil {
		return chain.Proof{}
	}
	p, n, err := chain.DecodeProof(r.b)
	if err != nil {
		r.fail("proof:", err.Error())
		return chain.Proof{}
	}
	r.b = r.b[n:]
	return p
}

func (r *wireReader) proofs() []chain.Proof {
	if r.err != nil {
		return nil
	}
	ps, n, err := chain.DecodeProofs(r.b)
	if err != nil {
		r.fail("proofs:", err.Error())
		return nil
	}
	r.b = r.b[n:]
	return ps
}

func (r *wireReader) tx() *chain.Transaction {
	if r.err != nil {
		return nil
	}
	tx, n, err := chain.DecodeTransaction(r.b)
	if err != nil {
		r.fail("transaction:", err.Error())
		return nil
	}
	r.b = r.b[n:]
	return tx
}

// done reports the first decoding error, or bytes left over after the last
// field.
func (r *wireReader) done() error {
	if r.err == nil && len(r.b) != 0 {
		r.fail("frame", fmt.Sprintf("has %d trailing bytes", len(r.b)))
	}
	return r.err
}

// opcode returns the opcode of the variant that is set: the first in
// declaration order, opNone when none is.
func (r *Request) opcode() uint8 {
	switch {
	case r.PutHeader != nil:
		return opPutHeader
	case r.PutChunk != nil:
		return opPutChunk
	case r.GetHeaders != nil:
		return opGetHeaders
	case r.GetChunk != nil:
		return opGetChunk
	case r.GetChunkBatch != nil:
		return opGetChunks
	case r.GetBlockChunks != nil:
		return opGetBlockChunks
	case r.GetTxProof != nil:
		return opGetTxProof
	case r.GetClusterMap != nil:
		return opGetClusterMap
	case r.SetClusterMap != nil:
		return opSetClusterMap
	case r.Stats != nil:
		return opStats
	case r.Fault != nil:
		return opFault
	default:
		return opNone
	}
}

// AppendWire implements WireEncoder.
func (r *Request) AppendWire(b []byte) (uint8, []byte) {
	op := r.opcode()
	switch op {
	case opPutHeader:
		b = r.PutHeader.Header.AppendTo(b)
	case opPutChunk:
		q := r.PutChunk
		b = append(b, q.Block[:]...)
		b = appendChunkFields(b, q.Index, q.Parts, q.TxStart, q.Data, q.Proofs)
	case opGetHeaders:
		b = binary.AppendUvarint(b, r.GetHeaders.FromHeight)
	case opGetChunk:
		b = append(b, r.GetChunk.Block[:]...)
		b = appendInt(b, r.GetChunk.Index)
	case opGetChunks:
		b = binary.AppendUvarint(b, uint64(len(r.GetChunkBatch.Refs)))
		for i := range r.GetChunkBatch.Refs {
			ref := &r.GetChunkBatch.Refs[i]
			b = append(b, ref.Block[:]...)
			b = appendInt(b, ref.Index)
			b = appendBool(b, ref.Proofs)
		}
	case opGetBlockChunks:
		b = append(b, r.GetBlockChunks.Block[:]...)
	case opGetTxProof:
		b = append(b, r.GetTxProof.Block[:]...)
		b = append(b, r.GetTxProof.TxID[:]...)
	case opSetClusterMap:
		b = appendEpochs(b, r.SetClusterMap.Epochs)
	case opFault:
		f := r.Fault
		b = appendBool(b, f.Set != nil)
		if f.Set != nil {
			b = binary.BigEndian.AppendUint64(b, math.Float64bits(f.Set.DropRate))
			b = binary.BigEndian.AppendUint64(b, math.Float64bits(f.Set.CorruptRate))
			b = binary.AppendVarint(b, int64(f.Set.Delay))
			b = binary.AppendUvarint(b, f.Set.Seed)
		}
		b = appendBool(b, f.CorruptStored)
	}
	return op, b
}

// DecodeWire implements WireDecoder.
func (r *Request) DecodeWire(op uint8, fields []byte) error {
	*r = Request{}
	d := wireReader{b: fields}
	switch op {
	case opNone:
	case opPutHeader:
		r.PutHeader = &PutHeaderReq{Header: d.header()}
	case opPutChunk:
		q := &PutChunkReq{Block: d.hash("block")}
		q.Index, q.Parts, q.TxStart, q.Data, q.Proofs = d.chunkFields()
		r.PutChunk = q
	case opGetHeaders:
		r.GetHeaders = &GetHeadersReq{FromHeight: d.uvarint("from height")}
	case opGetChunk:
		r.GetChunk = &GetChunkReq{Block: d.hash("block"), Index: d.int("index")}
	case opGetChunks:
		q := &ChunkBatchReq{}
		if n := d.count(blockcrypto.HashSize+2, "refs"); n > 0 {
			q.Refs = make([]ChunkRef, n)
			for i := range q.Refs {
				q.Refs[i] = ChunkRef{Block: d.hash("ref block"), Index: d.int("ref index"), Proofs: d.bool("ref proofs")}
			}
		}
		r.GetChunkBatch = q
	case opGetBlockChunks:
		r.GetBlockChunks = &GetBlockChunksReq{Block: d.hash("block")}
	case opGetTxProof:
		r.GetTxProof = &TxProofReq{Block: d.hash("block"), TxID: d.hash("tx id")}
	case opGetClusterMap:
		r.GetClusterMap = &ClusterMapReq{}
	case opSetClusterMap:
		r.SetClusterMap = &SetClusterMapReq{Epochs: d.epochs()}
	case opStats:
		r.Stats = &StatsReq{}
	case opFault:
		f := &FaultReq{}
		if d.bool("fault set") {
			f.Set = &FaultConfig{
				DropRate:    d.float64("drop rate"),
				CorruptRate: d.float64("corrupt rate"),
				Delay:       time.Duration(d.int64("delay")),
				Seed:        d.uvarint("seed"),
			}
		}
		f.CorruptStored = d.bool("corrupt stored")
		r.Fault = f
	default:
		return fmt.Errorf("%w %#x for a request", ErrBadOpcode, op)
	}
	return d.done()
}

// AppendWire implements WireEncoder. Err wins over any payload; a Response
// with nothing set is an empty header list, which is what a GetHeaders past
// the tip answers.
func (r *Response) AppendWire(b []byte) (uint8, []byte) {
	switch {
	case r.Err != "":
		return opRespErr, append(b, r.Err...)
	case r.OK != nil:
		return opRespOK, b
	case r.Chunk != nil:
		return opRespChunk, appendChunk(b, r.Chunk)
	case r.ChunkBatch != nil:
		b = binary.AppendUvarint(b, uint64(len(r.ChunkBatch.Found)))
		for _, f := range r.ChunkBatch.Found {
			b = appendBool(b, f)
		}
		return opRespChunkBatch, appendChunks(b, r.ChunkBatch.Chunks)
	case r.BlockChunks != nil:
		b = appendInt(b, r.BlockChunks.Parts)
		return opRespBlockChunks, appendChunks(b, r.BlockChunks.Chunks)
	case r.TxProof != nil:
		p := r.TxProof
		b = appendBool(b, p.Found)
		b = appendBool(b, p.Tx != nil)
		if p.Tx != nil {
			b = p.Tx.AppendTo(b)
		}
		return opRespTxProof, chain.AppendProof(b, p.Proof)
	case r.ClusterMap != nil:
		return opRespClusterMap, appendEpochs(b, r.ClusterMap.Epochs)
	case r.Stats != nil:
		s := r.Stats
		b = binary.AppendVarint(b, s.HeaderCount)
		b = binary.AppendVarint(b, s.HeaderBytes)
		b = binary.AppendVarint(b, s.ChunkCount)
		b = binary.AppendVarint(b, s.ChunkBytes)
		return opRespStats, b
	case r.Faults != nil:
		return opRespFaults, appendInt(b, r.Faults.Corrupted)
	default:
		b = slices.Grow(b, len(r.Headers)*chain.HeaderSize)
		for i := range r.Headers {
			b = r.Headers[i].AppendTo(b)
		}
		return opRespHeaders, b
	}
}

// DecodeWire implements WireDecoder.
func (r *Response) DecodeWire(op uint8, fields []byte) error {
	*r = Response{}
	d := wireReader{b: fields}
	switch op {
	case opRespErr:
		if len(fields) == 0 {
			// Err == "" means success to every caller.
			return fmt.Errorf("%w: error response with no message", ErrMalformed)
		}
		r.Err = string(fields)
		return nil
	case opRespOK:
		r.OK = &struct{}{}
	case opRespHeaders:
		if len(fields)%chain.HeaderSize != 0 {
			return fmt.Errorf("%w: %d bytes of headers", ErrMalformed, len(fields))
		}
		if n := len(fields) / chain.HeaderSize; n > 0 {
			r.Headers = make([]chain.Header, n)
			for i := range r.Headers {
				r.Headers[i] = d.header()
			}
		}
	case opRespChunk:
		c := d.chunk()
		r.Chunk = &c
	case opRespChunkBatch:
		out := &ChunkBatchResp{}
		if n := d.count(1, "found flags"); n > 0 {
			out.Found = make([]bool, n)
			for i := range out.Found {
				out.Found[i] = d.bool("found flag")
			}
		}
		out.Chunks = d.chunks()
		r.ChunkBatch = out
	case opRespBlockChunks:
		r.BlockChunks = &BlockChunksResp{Parts: d.int("parts"), Chunks: d.chunks()}
	case opRespTxProof:
		p := &TxProofResp{Found: d.bool("found")}
		if d.bool("has tx") {
			p.Tx = d.tx()
		}
		p.Proof = d.proof()
		r.TxProof = p
	case opRespClusterMap:
		r.ClusterMap = &ClusterMapResp{Epochs: d.epochs()}
	case opRespStats:
		r.Stats = &StatsResp{
			HeaderCount: d.int64("header count"),
			HeaderBytes: d.int64("header bytes"),
			ChunkCount:  d.int64("chunk count"),
			ChunkBytes:  d.int64("chunk bytes"),
		}
	case opRespFaults:
		r.Faults = &FaultResp{Corrupted: d.int("corrupted")}
	default:
		return fmt.Errorf("%w %#x for a response", ErrBadOpcode, op)
	}
	return d.done()
}

// A chunk on the wire, in a PutChunkReq and in every chunk response:
//
//	varint index | varint parts | varint txStart | bytes data | proofs
func appendChunkFields(b []byte, index, parts, txStart int, data []byte, proofs []chain.Proof) []byte {
	return chain.AppendProofs(appendChunkPayload(b, index, parts, txStart, data), proofs)
}

// appendChunkPayload appends a chunk up to the last byte of its data; the
// proof list follows.
func appendChunkPayload(b []byte, index, parts, txStart int, data []byte) []byte {
	b = appendInt(b, index)
	b = appendInt(b, parts)
	b = appendInt(b, txStart)
	return appendBytes(b, data)
}

func (r *wireReader) chunkFields() (index, parts, txStart int, data []byte, proofs []chain.Proof) {
	return r.int("index"), r.int("parts"), r.int("tx start"), r.bytes("chunk data"), r.proofs()
}

func appendChunk(b []byte, c *ChunkResp) []byte {
	return appendChunkFields(b, c.Index, c.Parts, c.TxStart, c.Data, c.Proofs)
}

func (r *wireReader) chunk() (c ChunkResp) {
	c.Index, c.Parts, c.TxStart, c.Data, c.Proofs = r.chunkFields()
	return c
}

func appendChunks(b []byte, cs []ChunkResp) []byte {
	b = binary.AppendUvarint(b, uint64(len(cs)))
	for i := range cs {
		b = appendChunk(b, &cs[i])
	}
	return b
}

// minChunkSize is the wire size of a zero ChunkResp: five one-byte fields.
const minChunkSize = 5

func (r *wireReader) chunks() []ChunkResp {
	n := r.count(minChunkSize, "chunks")
	if n == 0 {
		return nil
	}
	cs := make([]ChunkResp, n)
	for i := range cs {
		cs[i] = r.chunk()
	}
	return cs
}

// An epoch list: count, then per epoch
//
//	varint epoch | uvarint fromHeight | count × (uvarint id | string addr)
func appendEpochs(b []byte, m core.EpochMap) []byte {
	b = binary.AppendUvarint(b, uint64(len(m)))
	for i := range m {
		e := &m[i]
		b = appendInt(b, e.Seq)
		b = binary.AppendUvarint(b, e.FromHeight)
		b = binary.AppendUvarint(b, uint64(len(e.Members)))
		for j, id := range e.Members {
			b = binary.AppendUvarint(b, uint64(id))
			addr := "" // a map without addresses is the receiver's to reject
			if j < len(e.Addrs) {
				addr = e.Addrs[j]
			}
			b = appendString(b, addr)
		}
	}
	return b
}

func (r *wireReader) epochs() core.EpochMap {
	n := r.count(3, "epochs")
	if n == 0 {
		return nil
	}
	m := make(core.EpochMap, n)
	for i := range m {
		e := &m[i]
		e.Seq, e.FromHeight = r.int("epoch"), r.uvarint("from height")
		if k := r.count(2, "members"); k > 0 {
			e.Members, e.Addrs = make([]simnet.NodeID, k), make([]string, k)
			for j := range e.Members {
				e.Members[j], e.Addrs[j] = simnet.NodeID(r.uvarint("member id")), r.string("member addr")
			}
		}
	}
	return m
}
