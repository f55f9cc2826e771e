package contest

import (
	"io"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestWatcherMatchAndTail(t *testing.T) {
	w := watchLines(strings.NewReader("alpha\nbeta\ngamma\n"), nil, "")
	re := regexp.MustCompile(`^beta$`)
	if line, err := w.WaitMatch(re, time.Now().Add(time.Second)); err != nil || line != "beta" {
		t.Fatalf("WaitMatch: %q, %v", line, err)
	}
	if tail := w.Tail(2); len(tail) != 2 || tail[1] != "gamma" {
		t.Fatalf("Tail: %v", tail)
	}
}

func TestWaitMatchTimesOut(t *testing.T) {
	pr, pw := io.Pipe()
	defer pw.Close()
	w := watchLines(pr, nil, "")
	start := time.Now()
	_, err := w.WaitMatch(regexp.MustCompile("never"), start.Add(60*time.Millisecond))
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("want timeout error, got %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout far exceeded deadline")
	}
}

func TestWaitMatchFailsFastOnClose(t *testing.T) {
	// A closed stream (the process exited) must fail the wait immediately,
	// not burn the whole deadline.
	w := watchLines(strings.NewReader("only line\n"), nil, "")
	start := time.Now()
	_, err := w.WaitMatch(regexp.MustCompile("never"), start.Add(10*time.Second))
	if err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("want closed-stream error, got %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("close detection took too long")
	}
}

func TestWatcherEchoesWithPrefix(t *testing.T) {
	var sb safeBuilder
	w := watchLines(strings.NewReader("one\ntwo\n"), &sb, "  nX| ")
	if _, err := w.WaitMatch(regexp.MustCompile("two"), time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	// The echo write happens outside the watcher lock; wait for it.
	deadline := time.Now().Add(time.Second)
	for !strings.Contains(sb.String(), "  nX| two") {
		if time.Now().After(deadline) {
			t.Fatalf("echo output: %q", sb.String())
		}
		time.Sleep(pollInterval)
	}
}

// safeBuilder is a goroutine-safe strings.Builder for echo assertions.
type safeBuilder struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *safeBuilder) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *safeBuilder) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
