package main

import (
	"context"
	"net"
	"net/http"
	"sync"
	"time"
)

// maxConns is how many connections the benchmark may hold to platformd:
// one per core of the 2-core machine the figures are taken on.
const maxConns = 2

// transport is the client side of every request the benchmark makes.
// wire.Client sends through http.DefaultTransport, so the benchmark
// installs one of these there: it caps connections at maxConns and notes
// every 503 refusal, which wire.Client retries without telling its caller.
type transport struct {
	base *http.Transport
	// slots holds one token per open connection, so that no more than
	// maxConns are ever open. http.Transport frees its own per-host slot
	// just before it closes a dropped connection, so without this a new
	// dial could briefly overlap the old socket.
	slots chan struct{}

	mu      sync.Mutex
	refused map[string]int // request path → 503 responses
}

func installTransport() *transport {
	t := &transport{refused: make(map[string]int), slots: make(chan struct{}, maxConns)}
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	t.base = &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			select {
			case t.slots <- struct{}{}:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			c, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				<-t.slots
				return nil, err
			}
			return &slotConn{Conn: c, slots: t.slots}, nil
		},
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		IdleConnTimeout:     time.Minute,
	}
	if old, ok := http.DefaultTransport.(interface{ CloseIdleConnections() }); ok {
		old.CloseIdleConnections()
	}
	http.DefaultTransport = t
	return t
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err == nil && resp.StatusCode == http.StatusServiceUnavailable {
		t.mu.Lock()
		t.refused[req.URL.Path]++
		t.mu.Unlock()
	}
	return resp, err
}

// CloseIdleConnections drops pooled connections, e.g. to a daemon that
// was just killed.
func (t *transport) CloseIdleConnections() { t.base.CloseIdleConnections() }

// refusals reports how many 503s requests to path have drawn so far.
func (t *transport) refusals(path string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.refused[path]
}

// slotConn gives its slot back when it is closed.
type slotConn struct {
	net.Conn
	slots chan struct{}
	once  sync.Once
}

func (c *slotConn) Close() error {
	err := c.Conn.Close()
	c.once.Do(func() { <-c.slots })
	return err
}
