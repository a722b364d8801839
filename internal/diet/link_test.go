package diet

import (
	"context"
	"errors"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oagrid/internal/core"
	"oagrid/internal/engine"
	"oagrid/internal/exec"
)

// countedListener counts the connections an agent accepts.
type countedListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return conn, err
}

func listen(t *testing.T) *countedListener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countedListener{Listener: ln}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// startCountedAgent serves handle like a SeD does, counting connections.
func startCountedAgent(t *testing.T, handle func(*Request) *Response) *countedListener {
	t.Helper()
	ln := listen(t)
	go Serve(ln, handle)
	return ln
}

// startOneShotAgent serves handle the way every agent did before
// connections were kept alive: one request, one response, then close.
func startOneShotAgent(t *testing.T, handle func(*Request) *Response) *countedListener {
	t.Helper()
	ln := listen(t)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				dec := GetFrameDecoder(false)
				defer PutFrameDecoder(dec)
				req, err := dec.ReadRequest(conn)
				if err != nil {
					return
				}
				resp := handle(req)
				resp.Version = NegotiateVersion(req.Version)
				_ = WriteResponseFrame(conn, resp)
			}()
		}
	}()
	return ln
}

func testHandler(t *testing.T) *Handler {
	t.Helper()
	h, err := NewHandler(smallClusters()[0], nil, engine.Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func execRequest(ns int) *Request {
	ids := make([]int, ns)
	for i := range ids {
		ids[i] = i
	}
	return &Request{Version: ProtocolVersion, Kind: KindExec, Exec: &ExecRequest{
		ScenarioIDs: ids, Months: 12, Heuristic: core.NameKnapsack,
	}}
}

// oneShotMakespan is the reference answer: ns scenarios evaluated over a
// fresh one-shot round trip.
func oneShotMakespan(t *testing.T, addr string, ns int) float64 {
	t.Helper()
	resp, err := RoundTripContext(context.Background(), addr, execRequest(ns), dialTimeout)
	if err != nil {
		t.Fatal(err)
	}
	return resp.Exec.Makespan
}

func linkMakespan(t *testing.T, l *Link, ns int) float64 {
	t.Helper()
	resp, err := l.RoundTrip(context.Background(), execRequest(ns), dialTimeout)
	if err != nil {
		t.Fatal(err)
	}
	return resp.Exec.Makespan
}

// TestLinkReusesConnection: sequential exchanges over a link share one
// connection, one dial, and answer bit for bit like one-shot round trips.
func TestLinkReusesConnection(t *testing.T) {
	ln := startCountedAgent(t, testHandler(t).serve)
	addr := ln.Addr().String()
	want := oneShotMakespan(t, addr, 3)

	l := NewLink(addr, 2)
	defer l.Close()
	accepted, dials := ln.accepted.Load(), WireStats().Dials
	for i := 0; i < 20; i++ {
		if got := linkMakespan(t, l, 3); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("exchange %d: makespan %g, one-shot %g", i, got, want)
		}
	}
	if n := ln.accepted.Load() - accepted; n != 1 {
		t.Fatalf("20 exchanges opened %d connections, want 1", n)
	}
	if n := WireStats().Dials - dials; n != 1 {
		t.Fatalf("20 exchanges dialed %d times, want 1", n)
	}
}

// TestLinkRemoteErrorNotRetried: a RemoteError is an answer — it comes back
// after one request, is not retried, and its connection stays pooled.
func TestLinkRemoteErrorNotRetried(t *testing.T) {
	h := testHandler(t)
	var calls, fail atomic.Int64
	ln := startCountedAgent(t, func(req *Request) *Response {
		calls.Add(1)
		if fail.CompareAndSwap(1, 0) {
			return &Response{Err: "injected exec failure"}
		}
		return h.serve(req)
	})
	l := NewLink(ln.Addr().String(), 1)
	defer l.Close()
	linkMakespan(t, l, 2) // pools the connection

	fail.Store(1)
	_, err := l.RoundTrip(context.Background(), execRequest(2), dialTimeout)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("got %v, want a RemoteError", err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("agent served %d requests, want 2: the RemoteError was retried", n)
	}
	linkMakespan(t, l, 2)
	if n := ln.accepted.Load(); n != 1 {
		t.Fatalf("agent accepted %d connections, want 1: the RemoteError's connection was dropped", n)
	}
}

// TestLinkOneShotPeer: an agent that closes each connection after one
// response still answers every exchange, bit for bit: the closed pooled
// connection fails before any response byte and is retried once on a fresh
// dial. Once the agent is gone, that single redial is the only one.
func TestLinkOneShotPeer(t *testing.T) {
	h := testHandler(t)
	ln := startOneShotAgent(t, h.serve)
	addr := ln.Addr().String()
	want := oneShotMakespan(t, addr, 4)

	l := NewLink(addr, 2)
	defer l.Close()
	accepted := ln.accepted.Load()
	for i := 0; i < 5; i++ {
		if got := linkMakespan(t, l, 4); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("exchange %d: makespan %g, one-shot %g", i, got, want)
		}
	}
	if n := ln.accepted.Load() - accepted; n != 5 {
		t.Fatalf("5 exchanges opened %d connections, want 5", n)
	}

	ln.Close()
	dials := WireStats().Dials
	if _, err := l.RoundTrip(context.Background(), execRequest(4), dialTimeout); err == nil {
		t.Fatal("exchange with a closed agent succeeded")
	}
	if n := WireStats().Dials - dials; n != 1 {
		t.Fatalf("failed exchange dialed %d times, want 1 retry", n)
	}
}

// startAbortingAgent serves handle on kept-alive connections and calls
// after once each response frame is written, before reading the next
// request.
func startAbortingAgent(t *testing.T, handle func(*Request) *Response, after func()) *countedListener {
	t.Helper()
	ln := listen(t)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				dec := GetFrameDecoder(false)
				defer PutFrameDecoder(dec)
				for {
					req, err := dec.ReadRequest(conn)
					if err != nil {
						return
					}
					resp := handle(req)
					resp.Version = NegotiateVersion(req.Version)
					if WriteResponseFrame(conn, resp) != nil {
						return
					}
					after()
				}
			}()
		}
	}()
	return ln
}

// TestLinkAbortAfterResponse: a ctx that ends while or just after a
// response arrives never yields (nil, nil). The agent cancels each
// exchange's ctx right after writing its response, so the abort races the
// client's read; the exchange either fails or returns the whole response,
// bit for bit. An already-cancelled ctx on a warm link obeys the same rule.
func TestLinkAbortAfterResponse(t *testing.T) {
	h := testHandler(t)
	var cancel atomic.Pointer[context.CancelFunc]
	ln := startAbortingAgent(t, h.serve, func() {
		if c := cancel.Load(); c != nil {
			(*c)()
		}
	})
	addr := ln.Addr().String()
	l := NewLink(addr, 1)
	defer l.Close()
	want := linkMakespan(t, l, 2)

	check := func(i int, resp *Response, err error) {
		t.Helper()
		switch {
		case resp == nil && err == nil:
			t.Fatalf("exchange %d returned neither a response nor an error", i)
		case resp != nil && err != nil:
			t.Fatalf("exchange %d returned a response and %v", i, err)
		case resp != nil && math.Float64bits(resp.Exec.Makespan) != math.Float64bits(want):
			t.Fatalf("exchange %d: makespan %g, want %g", i, resp.Exec.Makespan, want)
		}
	}
	for i := 0; i < 1000; i++ {
		ctx, c := context.WithCancel(context.Background())
		cancel.Store(&c)
		resp, err := l.RoundTrip(ctx, execRequest(2), dialTimeout)
		cancel.Store(nil)
		c()
		check(i, resp, err)
	}
	done, c := context.WithCancel(context.Background())
	c()
	for i := 0; i < 200; i++ {
		linkMakespan(t, l, 2) // keep a connection pooled
		resp, err := l.RoundTrip(done, execRequest(2), dialTimeout)
		check(i, resp, err)
	}
}

// TestLinkExpiresIdle: a pooled connection idle for maxIdleAge is closed
// and replaced by a fresh dial instead of being tried, since its agent is
// about to drop it.
func TestLinkExpiresIdle(t *testing.T) {
	ln := startCountedAgent(t, testHandler(t).serve)
	l := NewLink(ln.Addr().String(), 2)
	defer l.Close()
	want := linkMakespan(t, l, 2)

	l.mu.Lock()
	stale := l.idle[0].c
	l.idle[0].since = time.Now().Add(-maxIdleAge)
	l.mu.Unlock()
	dials := WireStats().Dials
	if got := linkMakespan(t, l, 2); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("makespan %g, want %g", got, want)
	}
	if n := WireStats().Dials - dials; n != 1 {
		t.Fatalf("exchange after the idle age dialed %d times, want 1", n)
	}
	if n := ln.accepted.Load(); n != 2 {
		t.Fatalf("agent accepted %d connections, want 2", n)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.idle) != 1 || l.idle[0].c == stale {
		t.Fatalf("link keeps %d idle connections, want the fresh one only", len(l.idle))
	}
}

// TestLinkConcurrentUse: many goroutines share one link; each exchange gets
// a connection of its own, every answer is bit-identical, and the pool
// keeps no more than its cap once they are done.
func TestLinkConcurrentUse(t *testing.T) {
	ln := startCountedAgent(t, testHandler(t).serve)
	addr := ln.Addr().String()
	want := make([]float64, 5)
	for ns := 1; ns < len(want); ns++ {
		want[ns] = oneShotMakespan(t, addr, ns)
	}

	const workers, rounds, maxIdle = 16, 10, 4
	l := NewLink(addr, maxIdle)
	defer l.Close()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				ns := 1 + (w+i)%4
				resp, err := l.RoundTrip(context.Background(), execRequest(ns), 30*time.Second)
				if err != nil {
					errs <- err
					return
				}
				if math.Float64bits(resp.Exec.Makespan) != math.Float64bits(want[ns]) {
					errs <- errors.New("makespan differs from the one-shot answer")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	l.mu.Lock()
	idle := len(l.idle)
	l.mu.Unlock()
	if idle == 0 || idle > maxIdle {
		t.Fatalf("link keeps %d idle connections, want 1..%d", idle, maxIdle)
	}
}

// TestClosedAgentStopsAnswering: closing a SeD or a master agent closes the
// connections it serves, so a pooled connection to it answers nothing.
func TestClosedAgentStopsAnswering(t *testing.T) {
	sed, err := StartSeD("127.0.0.1:0", smallClusters()[0], exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ma, err := StartMasterAgent("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		addr  string
		req   *Request
		close func() error
	}{
		{"SeD", sed.Addr(), execRequest(2), sed.Close},
		{"master agent", ma.Addr(), &Request{Version: ProtocolVersion, Kind: KindList, List: &ListRequest{}}, ma.Close},
	} {
		l := NewLink(tc.addr, 1)
		if _, err := l.RoundTrip(context.Background(), tc.req, dialTimeout); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := tc.close(); err != nil {
			t.Fatalf("%s: close: %v", tc.name, err)
		}
		if _, err := l.RoundTrip(context.Background(), tc.req, dialTimeout); err == nil {
			t.Fatalf("closed %s still answered on a pooled connection", tc.name)
		}
		l.Close()
	}
}
