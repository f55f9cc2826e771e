package gateway

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"os"
	"reflect"
	"testing"
	"time"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
	"icistrategy/internal/netx"
)

// wireMessage is a message the tests send both ways.
type wireMessage interface {
	netx.WireEncoder
	netx.WireDecoder
}

type wireSample struct {
	name  string
	msg   wireMessage
	fresh func() wireMessage
}

func freshWireRequest() wireMessage  { return new(WireRequest) }
func freshWireResponse() wireMessage { return new(WireResponse) }

func wireSamples(t testing.TB) []wireSample {
	_, blocks := newFakeUpstream(t, 4, 1, 16)
	b := blocks[0]
	tree, err := chain.TxMerkleTree(b.Txs)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := tree.Prove(5)
	if err != nil {
		t.Fatal(err)
	}
	h1, h2 := blockcrypto.Sum256([]byte("one")), blockcrypto.Sum256([]byte("two"))
	return []wireSample{
		{"empty_req", &WireRequest{}, freshWireRequest},
		{"block_req", &WireRequest{GetBlock: &WireBlockReq{Block: h1}}, freshWireRequest},
		{"proof_req", &WireRequest{GetTxProof: &WireProofReq{Block: h1, TxID: h2}}, freshWireRequest},
		{"err_resp", &WireResponse{Err: "gateway: unknown block"}, freshWireResponse},
		{"block_resp", &WireResponse{Block: b.Encode()}, freshWireResponse},
		{"empty_resp", &WireResponse{}, freshWireResponse},
		{"proof_resp", &WireResponse{Proof: &WireProofResp{Tx: b.Txs[5], Header: b.Header, Proof: proof}}, freshWireResponse},
		{"proof_without_tx_resp", &WireResponse{Proof: &WireProofResp{Header: b.Header}}, freshWireResponse},
	}
}

func wireFrame(t testing.TB, id uint32, m wireMessage) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := netx.WriteFrame(&buf, id, m); err != nil {
		t.Error(err) // also called from server goroutines: not Fatal
	}
	return buf.Bytes()
}

// rawFrame builds a frame by hand (netx's version 1 layout).
func rawFrame(version, op uint8, id uint32, fields []byte) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(6+len(fields)))
	out = append(out, version, op)
	out = binary.BigEndian.AppendUint32(out, id)
	return append(out, fields...)
}

func TestWireCodecRoundTrip(t *testing.T) {
	for _, s := range wireSamples(t) {
		got := s.fresh()
		if resp, ok := got.(*WireResponse); ok {
			resp.Err = "stale" // the decode must clear what the target held
		}
		if err := netx.ReadMessage(bytes.NewReader(wireFrame(t, 0, s.msg)), got); err != nil {
			t.Errorf("%s: %v", s.name, err)
			continue
		}
		if !reflect.DeepEqual(got, s.msg) {
			t.Errorf("%s: decoded\n%+v\nwant\n%+v", s.name, got, s.msg)
		}
	}
}

// TestServerBlockFormEncodesLikeBlockBytes: the server hands AppendWire the
// block itself; the frame must be the one its Encode() bytes would make.
func TestServerBlockFormEncodesLikeBlockBytes(t *testing.T) {
	_, blocks := newFakeUpstream(t, 4, 1, 16)
	b := blocks[0]
	direct := wireFrame(t, 3, &WireResponse{block: b})
	if !bytes.Equal(direct, wireFrame(t, 3, &WireResponse{Block: b.Encode()})) {
		t.Fatal("a block encoded into the frame differs from its Encode() bytes in a frame")
	}
}

// TestWireBlockResponseOwnsItsBytes: the caches account for the bytes a
// block holds, so a decoded response must not alias the pooled frame buffer.
func TestWireBlockResponseOwnsItsBytes(t *testing.T) {
	s := wireSamples(t)[4]
	frame := wireFrame(t, 0, s.msg)
	var first WireResponse
	if err := netx.ReadMessage(bytes.NewReader(frame), &first); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < len(frame); i++ {
		frame[i] ^= 0xA5
	}
	for i := 0; i < 8; i++ {
		var scratch WireResponse
		_ = netx.ReadMessage(bytes.NewReader(frame), &scratch) // garbage through the same pool
	}
	if !reflect.DeepEqual(&first, s.msg) {
		t.Fatal("a decoded block changed when the pooled frame buffer was reused")
	}
}

func TestWireHostileFrames(t *testing.T) {
	h := blockcrypto.Sum256([]byte("h"))
	hdr := make([]byte, chain.HeaderSize)
	cases := []struct {
		name  string
		data  []byte
		fresh func() wireMessage
		want  error
	}{
		{"oversized length claim", []byte{0xff, 0xff, 0xff, 0xff}, freshWireRequest, netx.ErrTooLarge},
		{"unknown version", rawFrame(2, opGetBlock, 1, h[:]), freshWireRequest, netx.ErrBadVersion},
		{"storage opcode in a gateway request", rawFrame(1, 1, 1, hdr), freshWireRequest, netx.ErrBadOpcode},
		{"response opcode in a request", rawFrame(1, opRespBlock, 1, nil), freshWireRequest, netx.ErrBadOpcode},
		{"request opcode in a response", rawFrame(1, opGetBlock, 1, h[:]), freshWireResponse, netx.ErrBadOpcode},
		{"short block request", rawFrame(1, opGetBlock, 1, h[:31]), freshWireRequest, netx.ErrMalformed},
		{"trailing byte after a block request", rawFrame(1, opGetBlock, 1, append(h[:], 0)), freshWireRequest, netx.ErrMalformed},
		{"trailing byte after a proof request", rawFrame(1, opGetTxProof, 1, append(append(h[:], h[:]...), 0)), freshWireRequest, netx.ErrMalformed},
		{"fields on an empty request", rawFrame(1, opNone, 1, []byte{0}), freshWireRequest, netx.ErrMalformed},
		{"error response with no message", rawFrame(1, opRespErr, 1, nil), freshWireResponse, netx.ErrMalformed},
		{"proof with a bad transaction flag", rawFrame(1, opRespProof, 1, append([]byte{2}, hdr...)), freshWireResponse, netx.ErrMalformed},
		{"proof step count larger than the bytes that follow", rawFrame(1, opRespProof, 1, append(append([]byte{0}, hdr...), 0, 0xff, 0xff, 0xff, 0x0f)), freshWireResponse, netx.ErrMalformed},
		{"proof with trailing bytes", rawFrame(1, opRespProof, 1, append(append([]byte{0}, hdr...), 0, 0, 9)), freshWireResponse, netx.ErrMalformed},
	}
	for _, c := range cases {
		if _, _, err := netx.ReadFrame(bytes.NewReader(c.data), c.fresh()); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
	}

	// Every message cut at every offset: a short stream is an I/O error; a
	// frame relabeled to the cut length either fails to decode or is a
	// valid frame in its own right (an error string, a block's bytes).
	for _, s := range wireSamples(t) {
		full := wireFrame(t, 0, s.msg)
		for cut := 1; cut < len(full); cut++ {
			if _, _, err := netx.ReadFrame(bytes.NewReader(full[:cut]), s.fresh()); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("%s cut at %d of %d: got %v, want io.ErrUnexpectedEOF", s.name, cut, len(full), err)
			}
			if cut < 10 {
				continue
			}
			relabeled := append([]byte(nil), full[:cut]...)
			binary.BigEndian.PutUint32(relabeled, uint32(cut-4))
			got := s.fresh()
			if _, _, err := netx.ReadFrame(bytes.NewReader(relabeled), got); err != nil {
				if !errors.Is(err, netx.ErrMalformed) {
					t.Fatalf("%s relabeled at %d: got %v, want ErrMalformed", s.name, cut, err)
				}
			} else if !bytes.Equal(wireFrame(t, 0, got), relabeled) {
				t.Fatalf("%s relabeled at %d decoded without error but is not the frame %T encodes", s.name, cut, got)
			}
		}
	}
}

// FuzzCodecVsGob: for every gateway message gob round-trips, the wire codec
// delivers a value reflect.DeepEqual to gob's (see the netx target of the
// same name; gob is imported by tests only, as the oracle).
func FuzzCodecVsGob(f *testing.F) {
	f.Add([]byte{})
	for seed := byte(0); seed < 12; seed++ {
		f.Add(bytes.Repeat([]byte{seed, seed * 5, 0xff - seed, 1}, 48))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			v := data[0]
			data = data[1:]
			return v
		}
		hash := func() (h blockcrypto.Hash) {
			for i := range h {
				h[i] = next()
			}
			return h
		}
		blob := func(max int) []byte {
			out := make([]byte, int(next())%(max+1))
			for i := range out {
				out[i] = next()
			}
			return out
		}
		u64 := func() uint64 {
			var v uint64
			for i, n := 0, int(next())%9; i < n; i++ {
				v = v<<8 | uint64(next())
			}
			return v
		}

		var req WireRequest
		switch next() % 3 {
		case 1:
			req.GetBlock = &WireBlockReq{Block: hash()}
		case 2:
			req.GetTxProof = &WireProofReq{Block: hash(), TxID: hash()}
		}
		var resp WireResponse
		switch next() % 4 {
		case 1:
			resp.Err = "e" + string(blob(40))
		case 2:
			resp.Block = blob(200)
		case 3:
			p := &WireProofResp{
				Header: chain.Header{Height: u64(), PrevHash: hash(), MerkleRoot: hash(), TimeMillis: u64(), Proposer: u64(), TxCount: uint32(u64())},
				Proof:  chain.Proof{LeafIndex: int(int64(u64()))},
			}
			for i, n := 0, int(next())%5; i < n; i++ {
				p.Proof.Steps = append(p.Proof.Steps, chain.ProofStep{Sibling: hash(), Left: next()&1 == 1})
			}
			if next()&1 == 1 {
				p.Tx = &chain.Transaction{From: hash(), To: hash(), Amount: u64(), Nonce: u64(), Fee: u64(), Payload: blob(40), PublicKey: blob(33), Signature: blob(65)}
			}
			resp.Proof = p
		}

		for _, pair := range []struct{ msg, viaGob, viaWire wireMessage }{
			{&req, new(WireRequest), new(WireRequest)},
			{&resp, new(WireResponse), new(WireResponse)},
		} {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(pair.msg); err != nil {
				t.Fatalf("gob encode: %v", err)
			}
			if err := gob.NewDecoder(&buf).Decode(pair.viaGob); err != nil {
				t.Fatalf("gob decode: %v", err)
			}
			if err := netx.ReadMessage(bytes.NewReader(wireFrame(t, 0, pair.msg)), pair.viaWire); err != nil {
				t.Fatalf("codec refused %+v: %v", pair.msg, err)
			}
			if !reflect.DeepEqual(pair.viaWire, pair.viaGob) {
				t.Fatalf("codec and gob disagree on %T\ncodec: %+v\ngob:   %+v", pair.msg, pair.viaWire, pair.viaGob)
			}
		}
	})
}

// lateGateway answers the first request on a connection after delay and
// every later one at once, always with the block b.
func lateGateway(t *testing.T, delay time.Duration, b *chain.Block) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() {
		_ = l.Close()
		<-done
	})
	go func() {
		defer close(done)
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for n := 0; ; n++ {
			var req WireRequest
			_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
			id, _, err := netx.ReadFrame(conn, &req)
			if err != nil {
				return
			}
			if n == 0 {
				time.Sleep(delay)
			}
			if _, err := conn.Write(wireFrame(t, id, &WireResponse{Block: b.Encode()})); err != nil {
				return
			}
		}
	}()
	return l.Addr().String()
}

// TestClientLateReplyPoisonsTheConnection is the gateway half of the
// poisoned-connection regression: after a call times out, the block that
// answers it late must not be handed to the next caller as the block it
// asked for. The failed call closes the connection.
func TestClientLateReplyPoisonsTheConnection(t *testing.T) {
	_, blocks := newFakeUpstream(t, 4, 1, 16)
	c, err := DialClient(lateGateway(t, 400*time.Millisecond, blocks[0]))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(100 * time.Millisecond)
	if _, err := c.GetBlock(blocks[0].Hash()); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("first call: got %v, want a deadline error", err)
	}
	time.Sleep(500 * time.Millisecond) // the late block is now in flight or buffered
	c.SetTimeout(5 * time.Second)
	other := blockcrypto.Sum256([]byte("another block"))
	if b, err := c.GetBlock(other); !errors.Is(err, netx.ErrClosed) {
		t.Fatalf("call after a timeout: got block %v, err %v; want netx.ErrClosed", b != nil, err)
	}
}

// TestClientRefusesAnotherBlock: GetBlock asked for a hash, so a reply whose
// header hashes to anything else is refused, as GetTxProof refuses a proof
// for the wrong block. The server answered, so the connection stays usable.
func TestClientRefusesAnotherBlock(t *testing.T) {
	_, blocks := newFakeUpstream(t, 4, 2, 8)
	c, err := DialClient(lateGateway(t, 0, blocks[0])) // answers every request with blocks[0]
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if b, err := c.GetBlock(blocks[1].Hash()); !errors.Is(err, ErrRemote) {
		t.Fatalf("asked for one block, was sent another: got block %v, err %v; want ErrRemote", b != nil, err)
	}
	b, err := c.GetBlock(blocks[0].Hash())
	if err != nil || b.Hash() != blocks[0].Hash() {
		t.Fatalf("the block asked for, on the same connection: %v", err)
	}
}

// TestServerResponseWriteIsBounded is the gateway half of the unbounded-
// write regression: a client that asks for a multi-megabyte block and never
// reads it must cost a handler goroutine writeTimeout, not the server's
// lifetime.
func TestServerResponseWriteIsBounded(t *testing.T) {
	txs := make([]*chain.Transaction, 8)
	for i := range txs {
		txs[i] = &chain.Transaction{Amount: uint64(i + 1), Payload: make([]byte, 1<<20)}
		txs[i].To[0] = 1
	}
	big, err := chain.NewBlock(1, blockcrypto.ZeroHash, txs, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	u, _ := newFakeUpstream(t, 4, 0, 0)
	u.addBlock(t, big)
	writeTimeout = 200 * time.Millisecond
	t.Cleanup(func() { writeTimeout = netx.DefaultRPCTimeout }) // runs after the deferred Close
	srv, err := NewServer("127.0.0.1:0", newTestGateway(t, u, nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A small fixed receive buffer, so the 8 MB block cannot disappear
	// into kernel buffers on hosts that autotune them into the tens of MB.
	if err := conn.(*net.TCPConn).SetReadBuffer(4096); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(wireFrame(t, 1, &WireRequest{GetBlock: &WireBlockReq{Block: big.Hash()}})); err != nil {
		t.Fatal(err)
	}
	// ...and never read. The handler must give up and drop the connection.
	sawConn := false
	deadline := time.Now().Add(15 * time.Second)
	for !sawConn || srv.ln.Open() > 0 {
		sawConn = sawConn || srv.ln.Open() > 0
		if time.Now().After(deadline) {
			t.Fatalf("handler is still blocked writing to a client that does not read (saw the connection: %v)", sawConn)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCloseDrainsAnInFlightRead: Close lets a read already inside the
// gateway (held in FetchBatch) write its answer instead of cutting the
// connection under it, and a client idle on another connection does not
// hold Close open.
func TestCloseDrainsAnInFlightRead(t *testing.T) {
	u, blocks := newFakeUpstream(t, 2, 1, 8)
	u.entered = make(chan struct{}, 8)
	u.gate = make(chan struct{})
	srv, err := NewServer("127.0.0.1:0", newTestGateway(t, u, nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	busy, err := DialClient(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	idle, err := DialClient(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	// Every wait is bounded, so a regression fails with what it waited for.
	const bound = 5 * time.Second
	waitFor := func(what string, cond func() bool) {
		for deadline := time.Now().Add(bound); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("gave up after %v waiting for %s", bound, what)
			}
		}
	}
	recv := func(what string, c <-chan error) error {
		select {
		case err := <-c:
			return err
		case <-time.After(bound):
			t.Fatalf("gave up after %v waiting for %s", bound, what)
			return nil
		}
	}
	read := make(chan error, 1)
	go func() {
		b, err := busy.GetBlock(blocks[0].Hash())
		if err == nil && b.Hash() != blocks[0].Hash() {
			err = errors.New("wrong block")
		}
		read <- err
	}()
	entered := make(chan error, 1)
	go func() { <-u.entered; entered <- nil }()
	_ = recv("the read to reach the upstream", entered)
	waitFor("the idle connection to be served", func() bool { return srv.ln.Open() == 2 })

	start := time.Now()
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	// Release the upstream only once the drain has begun.
	waitFor("Close to begin the drain", srv.ln.Draining)
	close(u.gate)
	if err := recv("the in-flight read", read); err != nil {
		t.Fatalf("Close cut the in-flight read: %v", err)
	}
	if err := recv("Close", closed); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Close took %v with an idle client connected", d)
	}
}
