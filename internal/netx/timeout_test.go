package netx

import (
	"errors"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"icistrategy/internal/blockcrypto"
)

// stalledServer accepts connections and reads forever without ever writing
// a response — the pathological peer the roundTrip deadline exists for. At
// cleanup it hangs up every connection it accepted, so a client call left
// blocked on it by a failed test returns.
func stalledServer(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		conns []net.Conn
	)
	t.Cleanup(func() {
		_ = l.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			_ = c.Close()
		}
	})
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			go func() {
				defer conn.Close()
				buf := make([]byte, 4096)
				for {
					if _, err := conn.Read(buf); err != nil {
						return
					}
				}
			}()
		}
	}()
	return l.Addr().String()
}

// within runs call on its own goroutine and fails the test if it has not
// returned after five seconds, so a call no deadline bounds fails here
// instead of hanging until go test's timeout. call closes its own client:
// Close waits for the call in flight, which stalledServer's cleanup ends.
func within(t *testing.T, call func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- call() }()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("call against a stalled server still blocked after 5s: no deadline bounds it")
		return nil
	}
}

// TestRoundTripDeadlineAgainstStalledServer is the regression test for the
// unbounded-read bug: roundTrip used to perform its read with no I/O
// deadline, so a peer that accepted the request but never answered parked
// the caller forever. With the per-call deadline the call must fail within
// the configured timeout, with os.ErrDeadlineExceeded in the chain.
func TestRoundTripDeadlineAgainstStalledServer(t *testing.T) {
	addr := stalledServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c.SetTimeout(150 * time.Millisecond)

	err = within(t, func() error {
		defer c.Close()
		_, err := c.GetChunk(blockcrypto.Hash{1}, 0)
		return err
	})
	if err == nil {
		t.Fatal("round trip against a stalled server succeeded")
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("want deadline error, got %v", err)
	}
}

// TestClusterTimeoutPropagates proves SetTimeout reaches both already-open
// and future connections, and that a cluster read degrades around a stalled
// member instead of hanging (the gateway depends on exactly this).
func TestClusterTimeoutPropagates(t *testing.T) {
	_, addrs := startServers(t, 3)
	stalled := stalledServer(t)
	cl, err := NewCluster(append(addrs, stalled), 2)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetTimeout(150 * time.Millisecond)

	blocks := testBlocks(t, 1, 12)
	// Distribution writes to every member including the stalled one; it must
	// fail fast rather than hang.
	err = within(t, func() error {
		defer cl.Close()
		return cl.DistributeBlock(blocks[0])
	})
	if err == nil {
		t.Fatal("distribute through a stalled member succeeded")
	}
}

func TestSetTimeoutZeroRestoresDefault(t *testing.T) {
	_, addrs := startServers(t, 1)
	c, err := Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(-1)
	c.link.mu.Lock()
	got := c.link.timeout
	c.link.mu.Unlock()
	if got != DefaultRPCTimeout {
		t.Fatalf("timeout = %v, want default %v", got, DefaultRPCTimeout)
	}
}
