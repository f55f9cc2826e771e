package netx

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"testing"
	"time"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/core"
	"icistrategy/internal/simnet"
)

// gen turns fuzz input into message values: every choice consumes bytes of
// the input, so the fuzzer's mutations move through the space of messages.
// An exhausted input yields zeros.
type gen struct{ b []byte }

func (g *gen) byte() byte {
	if len(g.b) == 0 {
		return 0
	}
	v := g.b[0]
	g.b = g.b[1:]
	return v
}

func (g *gen) uint64() uint64 {
	// A selector byte picks the magnitude, so small, huge and boundary
	// values all turn up.
	switch g.byte() % 4 {
	case 0:
		return uint64(g.byte())
	case 1:
		return uint64(g.byte())<<8 | uint64(g.byte())
	case 2:
		return math.MaxUint64 - uint64(g.byte())
	default:
		var v uint64
		for i := 0; i < 8; i++ {
			v = v<<8 | uint64(g.byte())
		}
		return v
	}
}

// int is signed: negative values included.
func (g *gen) int() int { return int(int64(g.uint64())) }

func (g *gen) bool() bool { return g.byte()&1 == 1 }

// n is a small count for lists.
func (g *gen) n(max int) int { return int(g.byte()) % (max + 1) }

func (g *gen) hash() (h blockcrypto.Hash) {
	for i := range h {
		h[i] = g.byte()
	}
	return h
}

func (g *gen) bytes(max int) []byte {
	out := make([]byte, g.n(max))
	for i := range out {
		out[i] = g.byte()
	}
	return out
}

func (g *gen) float() float64 {
	f := math.Float64frombits(g.uint64())
	if math.IsNaN(f) {
		return 0.5 // NaN != NaN would fail the comparison, not the codec
	}
	return f
}

func (g *gen) proof() chain.Proof {
	p := chain.Proof{LeafIndex: g.int()}
	for i, n := 0, g.n(5); i < n; i++ {
		p.Steps = append(p.Steps, chain.ProofStep{Sibling: g.hash(), Left: g.bool()})
	}
	return p
}

func (g *gen) proofs() []chain.Proof {
	var ps []chain.Proof
	for i, n := 0, g.n(4); i < n; i++ {
		ps = append(ps, g.proof())
	}
	return ps
}

func (g *gen) header() chain.Header {
	return chain.Header{Height: g.uint64(), PrevHash: g.hash(), MerkleRoot: g.hash(), TimeMillis: g.uint64(), Proposer: g.uint64(), TxCount: uint32(g.uint64())}
}

func (g *gen) tx() *chain.Transaction {
	return &chain.Transaction{From: g.hash(), To: g.hash(), Amount: g.uint64(), Nonce: g.uint64(), Fee: g.uint64(),
		Payload: g.bytes(40), PublicKey: g.bytes(33), Signature: g.bytes(65)}
}

func (g *gen) chunk() ChunkResp {
	return ChunkResp{Index: g.int(), Parts: g.int(), TxStart: g.int(), Data: g.bytes(80), Proofs: g.proofs()}
}

func (g *gen) chunks() []ChunkResp {
	var cs []ChunkResp
	for i, n := 0, g.n(3); i < n; i++ {
		cs = append(cs, g.chunk())
	}
	return cs
}

func (g *gen) epochs() core.EpochMap {
	var m core.EpochMap
	for i, n := 0, g.n(3); i < n; i++ {
		e := core.Epoch{Seq: g.int(), FromHeight: g.uint64()}
		for j, k := 0, g.n(3); j < k; j++ {
			e.Members = append(e.Members, simnet.NodeID(g.uint64()))
			e.Addrs = append(e.Addrs, string(g.bytes(21)))
		}
		m = append(m, e)
	}
	return m
}

// request builds one variant of the Request union (or none).
func (g *gen) request() *Request {
	switch g.byte() % 12 {
	case 0:
		return &Request{}
	case 1:
		return &Request{PutHeader: &PutHeaderReq{Header: g.header()}}
	case 2:
		c := g.chunk()
		return &Request{PutChunk: &PutChunkReq{Block: g.hash(), Index: c.Index, Parts: c.Parts, TxStart: c.TxStart, Data: c.Data, Proofs: c.Proofs}}
	case 3:
		return &Request{GetHeaders: &GetHeadersReq{FromHeight: g.uint64()}}
	case 4:
		return &Request{GetChunk: &GetChunkReq{Block: g.hash(), Index: g.int()}}
	case 5:
		q := &ChunkBatchReq{}
		for i, n := 0, g.n(4); i < n; i++ {
			q.Refs = append(q.Refs, ChunkRef{Block: g.hash(), Index: g.int(), Proofs: g.bool()})
		}
		return &Request{GetChunkBatch: q}
	case 6:
		return &Request{GetBlockChunks: &GetBlockChunksReq{Block: g.hash()}}
	case 7:
		return &Request{GetTxProof: &TxProofReq{Block: g.hash(), TxID: g.hash()}}
	case 8:
		return &Request{GetClusterMap: &ClusterMapReq{}}
	case 9:
		return &Request{SetClusterMap: &SetClusterMapReq{Epochs: g.epochs()}}
	case 10:
		return &Request{Stats: &StatsReq{}}
	default:
		f := &FaultReq{CorruptStored: g.bool()}
		if g.bool() {
			f.Set = &FaultConfig{DropRate: g.float(), CorruptRate: g.float(), Delay: time.Duration(g.int()), Seed: g.uint64()}
		}
		return &Request{Fault: f}
	}
}

// response builds one variant of the Response union (or none).
func (g *gen) response() *Response {
	switch g.byte() % 11 {
	case 0:
		return &Response{}
	case 1:
		return &Response{Err: "e" + string(g.bytes(30))}
	case 2:
		return &Response{OK: &struct{}{}}
	case 3:
		r := &Response{}
		for i, n := 0, g.n(4); i < n; i++ {
			r.Headers = append(r.Headers, g.header())
		}
		return r
	case 4:
		c := g.chunk()
		return &Response{Chunk: &c}
	case 5:
		out := &ChunkBatchResp{Chunks: g.chunks()}
		for i, n := 0, g.n(4); i < n; i++ {
			out.Found = append(out.Found, g.bool())
		}
		return &Response{ChunkBatch: out}
	case 6:
		return &Response{BlockChunks: &BlockChunksResp{Parts: g.int(), Chunks: g.chunks()}}
	case 7:
		p := &TxProofResp{Found: g.bool(), Proof: g.proof()}
		if g.bool() {
			p.Tx = g.tx()
		}
		return &Response{TxProof: p}
	case 8:
		return &Response{ClusterMap: &ClusterMapResp{Epochs: g.epochs()}}
	case 9:
		return &Response{Stats: &StatsResp{HeaderCount: int64(g.int()), HeaderBytes: int64(g.int()), ChunkCount: int64(g.int()), ChunkBytes: int64(g.int())}}
	default:
		return &Response{Faults: &FaultResp{Corrupted: g.int()}}
	}
}

// gobRoundTrip is the oracle: what the codec this one replaced delivered for msg.
func gobRoundTrip(t *testing.T, msg, into any) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(msg); err != nil {
		t.Fatalf("gob encode %T: %v", msg, err)
	}
	if err := gob.NewDecoder(&buf).Decode(into); err != nil {
		t.Fatalf("gob decode %T: %v", msg, err)
	}
}

// FuzzCodecVsGob is the differential test the wire codec landed behind:
// for every message gob round-trips, the codec delivers a value
// reflect.DeepEqual to what gob delivered — negative integers, maximal
// unsigned ones, empty and absent lists alike. (Both decoders leave an
// empty list nil, so nil-versus-empty needs no special case.) Messages
// follow the unions' contract, one variant set; transaction key and
// signature lengths stay within the u16 the chain encoding gives them.
func FuzzCodecVsGob(f *testing.F) {
	f.Add([]byte{})
	for seed := byte(0); seed < 24; seed++ {
		f.Add(bytes.Repeat([]byte{seed, seed * 7, 0xff - seed, 3}, 64))
	}
	// get_chunks with bare, proven and mixed refs, as gen.request reads
	// them: variant 5, a count, then per ref a hash, a one-byte index and
	// the proofs flag.
	for _, flags := range [][]byte{{0, 0}, {1, 1}, {1, 0, 1}} {
		seed := []byte{5, byte(len(flags))}
		for i, flag := range flags {
			seed = append(seed, bytes.Repeat([]byte{byte(0x11 * (i + 1))}, blockcrypto.HashSize)...)
			seed = append(seed, 0, byte(i), flag)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &gen{b: data}
		for _, pair := range []struct{ msg, viaGob, viaWire wireMessage }{
			{g.request(), new(Request), new(Request)},
			{g.response(), new(Response), new(Response)},
		} {
			gobRoundTrip(t, pair.msg, pair.viaGob)
			if err := ReadMessage(bytes.NewReader(encoded(t, pair.msg)), pair.viaWire); err != nil {
				t.Fatalf("codec refused %+v: %v", pair.msg, err)
			}
			if !reflect.DeepEqual(pair.viaWire, pair.viaGob) {
				t.Fatalf("codec and gob disagree on %T\ncodec: %+v\ngob:   %+v", pair.msg, pair.viaWire, pair.viaGob)
			}
		}
	})
}
