package netx

import (
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"icistrategy/internal/blockcrypto"
)

// stalledServer accepts connections and reads forever without ever writing
// a response — the pathological peer the roundTrip deadline exists for.
func stalledServer(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
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
	defer c.Close()
	c.SetTimeout(150 * time.Millisecond)

	start := time.Now()
	_, err = c.GetChunk(blockcrypto.Hash{1}, 0)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("round trip against a stalled server succeeded")
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("want deadline error, got %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("deadline fired after %v; the stall was not bounded by the timeout", elapsed)
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
	defer cl.Close()
	cl.SetTimeout(150 * time.Millisecond)

	blocks := testBlocks(t, 1, 12)
	// Distribution writes to every member including the stalled one; it must
	// fail fast rather than hang.
	start := time.Now()
	err = cl.DistributeBlock(blocks[0])
	if err == nil {
		t.Fatal("distribute through a stalled member succeeded")
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("distribute was not bounded by the cluster timeout")
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
