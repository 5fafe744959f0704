package rpc

import (
	"net"
	"sync"
)

// Listener is the accept half the two listeners share: it accepts
// connections, keeps the set of live ones, and severs them all on Close.
// The zero value is ready to use.
type Listener struct {
	mu     sync.Mutex
	lis    net.Listener
	conns  map[net.Conn]struct{}
	closed bool
}

// Bind makes lis the listener Serve accepts on and Close closes. After
// Close it closes lis instead and reports false.
func (l *Listener) Bind(lis net.Listener) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		lis.Close()
		return false
	}
	l.lis = lis
	if l.conns == nil {
		l.conns = make(map[net.Conn]struct{})
	}
	return true
}

// Serve accepts on the bound listener until Close, registering each
// connection and handing it to start — which runs before Close can see
// the connection, so it is where the owner's WaitGroups are raised, and
// must not block. It returns nil after Close and the accept error
// otherwise.
func (l *Listener) Serve(start func(net.Conn)) error {
	for {
		nc, err := l.lis.Accept()
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			if err == nil {
				nc.Close()
			}
			return nil
		}
		if err != nil {
			l.mu.Unlock()
			return err
		}
		l.conns[nc] = struct{}{}
		start(nc)
		l.mu.Unlock()
	}
}

// Forget drops a finished connection from the set.
func (l *Listener) Forget(nc net.Conn) {
	l.mu.Lock()
	delete(l.conns, nc)
	l.mu.Unlock()
}

// Len returns how many connections are live.
func (l *Listener) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.conns)
}

// Close stops accepting and closes every live connection. It reports
// whether this call was the first.
func (l *Listener) Close() bool {
	l.mu.Lock()
	first := !l.closed
	l.closed = true
	lis := l.lis
	for nc := range l.conns {
		nc.Close()
	}
	l.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	return first
}
