package contest

import (
	"fmt"
	"io"
	"regexp"
	"sync"
	"time"
)

// logWatcher incrementally collects one process stream as lines so actions
// can match conditions against it. It is an io.Writer wired directly to
// exec.Cmd.Stdout/Stderr: that way cmd.Wait only returns after every byte
// has passed through Write, so once the process is reaped the buffer is
// complete — no pipe-drain race. A fresh watcher is attached on every
// process start, which gives wait-log "current run" semantics: a pattern
// emitted before a crash never satisfies a condition placed after the
// restart.
type logWatcher struct {
	echo   io.Writer // optional mirror (the -v narration)
	prefix string

	mu      sync.Mutex
	lines   []string
	partial []byte
	closed  bool // stream ended (the process exited)
}

// newLogWatcher builds a watcher; echo non-nil mirrors every line there
// with the given prefix.
func newLogWatcher(echo io.Writer, prefix string) *logWatcher {
	return &logWatcher{echo: echo, prefix: prefix}
}

// Write splits the chunk into lines; a trailing fragment is buffered until
// its newline (or closeWatch) arrives.
func (w *logWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.partial = append(w.partial, p...)
	for {
		i := -1
		for j, b := range w.partial {
			if b == '\n' {
				i = j
				break
			}
		}
		if i < 0 {
			break
		}
		w.appendLine(string(w.partial[:i]))
		w.partial = w.partial[i+1:]
	}
	return len(p), nil
}

// appendLine records one complete line; callers hold w.mu.
func (w *logWatcher) appendLine(line string) {
	w.lines = append(w.lines, line)
	if w.echo != nil {
		fmt.Fprintf(w.echo, "%s%s\n", w.prefix, line)
	}
}

// closeWatch marks the stream ended, flushing any unterminated final line.
func (w *logWatcher) closeWatch() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.partial) > 0 {
		w.appendLine(string(w.partial))
		w.partial = nil
	}
	w.closed = true
}

// Tail returns up to n of the most recent lines (for failure dumps).
func (w *logWatcher) Tail(n int) []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.lines) > n {
		return append([]string(nil), w.lines[len(w.lines)-n:]...)
	}
	return append([]string(nil), w.lines...)
}

// pollInterval paces WaitMatch. Polling (rather than a condvar) keeps the
// deadline handling trivial and is far below scenario timescales.
const pollInterval = 10 * time.Millisecond

// WaitMatch blocks until a line matches re, the stream closes (process
// exit), or the deadline passes. It scans incrementally, so lines are
// examined once no matter how long the wait.
func (w *logWatcher) WaitMatch(re *regexp.Regexp, deadline time.Time) (string, error) {
	next := 0
	for {
		w.mu.Lock()
		for ; next < len(w.lines); next++ {
			if re.MatchString(w.lines[next]) {
				line := w.lines[next]
				w.mu.Unlock()
				return line, nil
			}
		}
		closed := w.closed
		w.mu.Unlock()
		if closed {
			return "", fmt.Errorf("log stream closed before %q matched (process exited?)", re)
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("timed out waiting for %q", re)
		}
		time.Sleep(pollInterval)
	}
}
