package netx

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// drainGrace bounds how long a Listener's Close waits for in-flight
// request/response pairs to complete before connection deadlines cut them
// off. The storage server and the gateway both listen through a Listener, so
// one icinet -serve process stops within one grace.
const drainGrace = 250 * time.Millisecond

// Listener accepts TCP connections, serves each on its own goroutine and
// drains on Close: it stops accepting, a connection waiting for its next
// request ends at once, and a response already being answered is written
// with a write deadline no later than drainGrace after Close began. Its zero
// value is ready for Listen; the storage Server and the gateway's wire
// server embed one.
type Listener struct {
	ln net.Listener

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	// drainBy is the UnixNano drain deadline, 0 until Close begins. It is
	// read without mu on every response (drainConn.SetWriteDeadline).
	drainBy atomic.Int64
	wg      sync.WaitGroup
}

// Listen binds addr ("host:0" picks a free port) and serves each accepted
// connection with serve until serve returns; the connection is closed then.
// serve sees a connection whose write deadline never passes the drain
// deadline, so it arms one per response as usual.
func (l *Listener) Listen(addr string, serve func(net.Conn)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	l.ln = ln
	l.conns = make(map[net.Conn]struct{})
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		l.accept(serve)
	}()
	return nil
}

// Addr returns the bound listen address.
func (l *Listener) Addr() string { return l.ln.Addr().String() }

// Draining reports whether Close has begun; a server ends a connection
// after the response it is writing.
func (l *Listener) Draining() bool { return l.drainBy.Load() != 0 }

// Open returns how many accepted connections are still being served.
func (l *Listener) Open() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.conns)
}

// Close stops accepting and drains (see Listener), returning once every
// connection's serve has returned. open is how many connections were being
// served when the drain began. A second Close returns at once.
func (l *Listener) Close() (open int, err error) {
	l.mu.Lock()
	if l.Draining() {
		l.mu.Unlock()
		return 0, nil
	}
	now := time.Now()
	by := now.Add(drainGrace)
	l.drainBy.Store(by.UnixNano())
	conns := make([]net.Conn, 0, len(l.conns))
	for c := range l.conns {
		conns = append(conns, c)
	}
	l.mu.Unlock()
	err = l.ln.Close()
	for _, c := range conns {
		_ = c.SetReadDeadline(now)
		_ = c.SetWriteDeadline(by)
	}
	l.wg.Wait()
	return len(conns), err
}

func (l *Listener) accept(serve func(net.Conn)) {
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			return // listener closed
		}
		// Registered under the lock Close starts the drain with, so a
		// connection is either in Close's list or refused here.
		l.mu.Lock()
		if l.Draining() {
			l.mu.Unlock()
			_ = conn.Close()
			return
		}
		l.conns[conn] = struct{}{}
		l.mu.Unlock()
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			defer func() {
				l.mu.Lock()
				delete(l.conns, conn)
				l.mu.Unlock()
				_ = conn.Close()
			}()
			serve(drainConn{conn, l})
		}()
	}
}

// drainConn is a served connection: a write deadline armed on it never
// passes its Listener's drain deadline.
type drainConn struct {
	net.Conn
	l *Listener
}

// SetWriteDeadline arms t, or the drain deadline if Close has begun and it
// comes first. It takes no lock: Close stores the drain deadline before it
// arms it on each connection, so when the second look here still finds no
// drain, Close's own arm comes after this one and wins.
func (c drainConn) SetWriteDeadline(t time.Time) error {
	by := c.l.drainBy.Load()
	if by == 0 {
		if err := c.Conn.SetWriteDeadline(t); err != nil {
			return err
		}
		if by = c.l.drainBy.Load(); by == 0 {
			return nil
		}
	}
	if d := time.Unix(0, by); d.Before(t) {
		t = d
	}
	return c.Conn.SetWriteDeadline(t)
}
