package contest

import (
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// feed writes chunks into w the way a child process's stream reaches it,
// then, if closed, ends the stream the way startNode does once the process
// is reaped.
func feed(w *logWatcher, closed bool, chunks ...string) *logWatcher {
	for _, c := range chunks {
		if _, err := w.Write([]byte(c)); err != nil {
			panic(err)
		}
	}
	if closed {
		w.closeWatch()
	}
	return w
}

func TestWatcherMatchAndTail(t *testing.T) {
	w := feed(newLogWatcher(nil, ""), true, "alpha\nbe", "ta\ngamma\n")
	re := regexp.MustCompile(`^beta$`)
	if line, err := w.WaitMatch(re, time.Now().Add(time.Second)); err != nil || line != "beta" {
		t.Fatalf("WaitMatch: %q, %v", line, err)
	}
	if tail := w.Tail(2); len(tail) != 2 || tail[1] != "gamma" {
		t.Fatalf("Tail: %v", tail)
	}
}

func TestWaitMatchTimesOut(t *testing.T) {
	w := feed(newLogWatcher(nil, ""), false, "alpha\n")
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
	w := feed(newLogWatcher(nil, ""), true, "only line\n")
	start := time.Now()
	_, err := w.WaitMatch(regexp.MustCompile("never"), start.Add(10*time.Second))
	if err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("want closed-stream error, got %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("close detection took too long")
	}
}

func TestCloseFlushesUnterminatedLine(t *testing.T) {
	w := feed(newLogWatcher(nil, ""), false, "first\nlast words")
	if tail := w.Tail(5); len(tail) != 1 {
		t.Fatalf("fragment counted as a line before its newline: %v", tail)
	}
	w.closeWatch()
	if line, err := w.WaitMatch(regexp.MustCompile("^last words$"), time.Now().Add(time.Second)); err != nil || line != "last words" {
		t.Fatalf("WaitMatch after close: %q, %v", line, err)
	}
}

func TestWatcherEchoesWithPrefix(t *testing.T) {
	var sb strings.Builder
	feed(newLogWatcher(&sb, "  nX| "), true, "one\ntwo\n")
	if got, want := sb.String(), "  nX| one\n  nX| two\n"; got != want {
		t.Fatalf("echo output %q, want %q", got, want)
	}
}

// safeBuilder is a goroutine-safe strings.Builder: a running node's stream
// echoes into it from the process's output goroutines.
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
