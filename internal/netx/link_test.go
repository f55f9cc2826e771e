package netx

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"icistrategy/internal/blockcrypto"
	"icistrategy/internal/chain"
)

// scriptedServer accepts connections and answers every request frame with
// the bytes reply(n, id) returns, after the delay it returns; n counts the
// requests seen on that connection from 0.
func scriptedServer(t *testing.T, reply func(n int, id uint32) (time.Duration, []byte)) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		_ = l.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				br := bufio.NewReader(conn)
				for n := 0; ; n++ {
					var req Request
					_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
					id, _, err := ReadFrame(br, &req)
					if err != nil {
						return
					}
					delay, out := reply(n, id)
					time.Sleep(delay)
					if _, err := conn.Write(out); err != nil {
						return
					}
				}
			}()
		}
	}()
	return l.Addr().String()
}

// replyFrame is the frame a server writes for resp in answer to request id.
func replyFrame(t *testing.T, id uint32, resp *Response) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, id, resp); err != nil {
		t.Error(err) // called from server goroutines: not Fatal
	}
	return buf.Bytes()
}

func dialScripted(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestLateReplyPoisonsTheConnection is the regression test for the
// poisoned-connection bug: roundTrip used to return a timeout but keep the
// socket, so the reply to the timed-out call, arriving late, was read as
// the answer to the next call on the same Client. Now a failed call closes
// the connection and the next one reports ErrClosed.
func TestLateReplyPoisonsTheConnection(t *testing.T) {
	late := &Response{Chunk: &ChunkResp{Index: 7, Parts: 8, Data: []byte("the answer to the first call")}}
	c := dialScripted(t, scriptedServer(t, func(n int, id uint32) (time.Duration, []byte) {
		if n == 0 {
			return 400 * time.Millisecond, replyFrame(t, id, late) // after the client's deadline
		}
		return 0, replyFrame(t, id, late)
	}))
	c.SetTimeout(100 * time.Millisecond)
	if _, err := c.GetChunk(blockcrypto.Hash{1}, 7); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("first call: got %v, want a deadline error", err)
	}
	time.Sleep(500 * time.Millisecond) // the late reply is now in flight or buffered
	c.SetTimeout(5 * time.Second)
	chunk, err := c.GetChunk(blockcrypto.Hash{2}, 0)
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("call after a timeout: got chunk %+v, err %v; want ErrClosed", chunk, err)
	}
}

// TestReplyWithWrongRequestID: a reply that echoes another id is refused
// and, like any transport error, ends the connection.
func TestReplyWithWrongRequestID(t *testing.T) {
	c := dialScripted(t, scriptedServer(t, func(_ int, id uint32) (time.Duration, []byte) {
		return 0, replyFrame(t, id+1, okResp())
	}))
	if err := c.PutHeader(chain.Header{Height: 1}); !errors.Is(err, ErrWrongReply) {
		t.Fatalf("got %v, want ErrWrongReply", err)
	}
	if err := c.PutHeader(chain.Header{Height: 2}); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after a refused reply: got %v, want ErrClosed", err)
	}
}

// TestMalformedReplyClosesTheConnection: after a frame that does not decode
// the caller cannot trust what follows on the stream; the connection ends.
func TestMalformedReplyClosesTheConnection(t *testing.T) {
	c := dialScripted(t, scriptedServer(t, func(_ int, id uint32) (time.Duration, []byte) {
		return 0, frame(wireVersion, opRespStats, id, []byte{0x80}) // unterminated varint
	}))
	if _, err := c.Stats(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("got %v, want ErrMalformed", err)
	}
	if _, err := c.Stats(); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after a malformed reply: got %v, want ErrClosed", err)
	}
}

// TestWrongVariantReplyKeepsTheConnection: a well-formed reply of the wrong
// variant is a protocol error the caller reports; the stream is still in
// step, so the connection survives it.
func TestWrongVariantReplyKeepsTheConnection(t *testing.T) {
	c := dialScripted(t, scriptedServer(t, func(_ int, id uint32) (time.Duration, []byte) {
		return 0, replyFrame(t, id, okResp())
	}))
	for i := 0; i < 2; i++ {
		if _, err := c.Stats(); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("call %d: got %v, want ErrBadRequest", i, err)
		}
	}
}

// TestResponseWriteIsBounded is the regression test for unbounded response
// writes: a client that asks for a multi-megabyte reply and never reads it
// used to park the handler goroutine in Write until Server.Close. With the
// per-response write deadline the handler gives up after writeTimeout and
// the failure is counted.
func TestResponseWriteIsBounded(t *testing.T) {
	writeTimeout = 200 * time.Millisecond
	t.Cleanup(func() { writeTimeout = DefaultRPCTimeout }) // runs after the deferred Close
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.mu.Lock()
	const headers = 120_000 // a 10 MB GetHeaders reply
	for i := 0; i < headers; i++ {
		srv.store.PutHeader(chain.Header{Height: uint64(i), TxCount: 1})
	}
	srv.mu.Unlock()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A small fixed receive buffer, so the reply cannot disappear into
	// kernel buffers on hosts that autotune them into the tens of MB.
	if err := conn.(*net.TCPConn).SetReadBuffer(4096); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteFrame(conn, 1, &Request{GetHeaders: &GetHeadersReq{}}); err != nil {
		t.Fatal(err)
	}
	// ...and never read.
	deadline := time.Now().Add(10 * time.Second)
	for srv.ConnErrors() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("handler is still blocked writing to a client that does not read")
		}
		time.Sleep(20 * time.Millisecond)
	}
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > drainGrace+2*time.Second {
		t.Fatalf("Close took %v after the handler had already given up", d)
	}
}
