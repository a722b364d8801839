package diet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Link keeps the idle connections to one agent for reuse, so repeated
// exchanges with a SeD do not pay a TCP connect each. An exchange takes an
// idle connection when there is one and dials otherwise; each connection
// carries one exchange at a time, so concurrent exchanges use separate
// connections and no request ID is needed on the wire. Safe for concurrent
// use.
//
// A connection goes back to the pool only after a clean response (a
// RemoteError is one); after a ctx abort, a deadline or any transport error
// it closes. A reused connection that fails before any response byte
// arrives — the agent closed it while it sat idle, or restarted — is
// retried once on a fresh dial. That retry is only sound for requests that
// are pure functions of their payload, as SeD perf and exec requests are;
// a RemoteError is an answer and is never retried.
//
// An agent drops a connection that sat idle for dialTimeout, so the link
// closes pooled connections idle for maxIdleAge, a margin short of that,
// instead of trying them: traffic sparser than one exchange per agent every
// maxIdleAge dials each time, as a one-shot exchange does.
type Link struct {
	addr    string
	maxIdle int

	mu     sync.Mutex
	idle   []idleConn // oldest first: the pool is a stack
	closed bool
}

type idleConn struct {
	c     *countingConn
	since time.Time
}

// maxIdleAge is how long a pooled connection may sit idle before the link
// closes it rather than risk the agent's idle timeout closing it first.
const maxIdleAge = dialTimeout - time.Second

// NewLink returns a link to addr that keeps at most maxIdle idle
// connections (at least one).
func NewLink(addr string, maxIdle int) *Link {
	return &Link{addr: addr, maxIdle: max(maxIdle, 1)}
}

// RoundTrip sends req over the link and decodes the response: the
// exchange of RoundTripContext, bounded by d and aborted by ctx, on a
// reused connection when one is idle.
func (l *Link) RoundTrip(ctx context.Context, req *Request, d time.Duration) (*Response, error) {
	if c := l.get(); c != nil {
		resp, retry, err := l.exchange(ctx, c, req, d)
		if !retry {
			return resp, err
		}
	}
	conn, err := Dial(ctx, l.addr, d)
	if err != nil {
		return nil, fmt.Errorf("diet: dialing %s: %w", l.addr, err)
	}
	resp, _, err := l.exchange(ctx, &countingConn{Conn: conn}, req, d)
	return resp, err
}

// exchange runs one exchange on c and pools or closes c by its outcome. A
// response read in full is returned even when an abort landing right after
// it keeps c out of the pool. retry reports that c failed before any
// response byte and not by an abort or a deadline: the agent closed it or
// is gone, and one fresh dial tells which.
func (l *Link) exchange(ctx context.Context, c *countingConn, req *Request, d time.Duration) (resp *Response, retry bool, err error) {
	c.rx = 0
	resp, clean, err := exchange(ctx, c, l.addr, req, d)
	if clean {
		l.put(c)
		return resp, false, err
	}
	c.Close()
	var ne net.Error
	timeout := errors.As(err, &ne) && ne.Timeout()
	return resp, err != nil && c.rx == 0 && ctx.Err() == nil && !timeout, err
}

// get pops the most recently used idle connection, nil when none is idle.
func (l *Link) get() *countingConn {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.prune(time.Now())
	n := len(l.idle)
	if n == 0 {
		return nil
	}
	c := l.idle[n-1].c
	l.idle[n-1] = idleConn{}
	l.idle = l.idle[:n-1]
	return c
}

// put pools c, or closes it when the link is closed or its pool is full.
func (l *Link) put(c *countingConn) {
	now := time.Now()
	l.mu.Lock()
	l.prune(now)
	if !l.closed && len(l.idle) < l.maxIdle {
		l.idle = append(l.idle, idleConn{c, now})
		l.mu.Unlock()
		return
	}
	l.mu.Unlock()
	c.Close()
}

// prune closes the pooled connections idle for maxIdleAge. l.mu is held.
func (l *Link) prune(now time.Time) {
	i := 0
	for i < len(l.idle) && now.Sub(l.idle[i].since) >= maxIdleAge {
		l.idle[i].c.Close()
		i++
	}
	if i > 0 {
		n := copy(l.idle, l.idle[i:])
		clear(l.idle[n:])
		l.idle = l.idle[:n]
	}
}

// Close closes the idle connections. Exchanges in flight finish on their
// connection, which then closes; a closed link still serves exchanges, one
// dial each, and pools nothing.
func (l *Link) Close() {
	l.mu.Lock()
	idle := l.idle
	l.idle = nil
	l.closed = true
	l.mu.Unlock()
	for _, ic := range idle {
		ic.c.Close()
	}
}
