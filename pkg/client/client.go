// Package client is the Go client for the PPC serving fleet's binary
// protocol (internal/netproto): predict RPCs against a leader or any
// predict-only replica, over pooled TCP connections.
//
// Usage:
//
//	cl, err := client.Dial(client.Options{Addr: "10.0.0.5:7071"})
//	res, err := cl.Predict("Q1", []float64{900, 1200})
//	if err == nil && res.Status == netproto.StatusOK {
//	    // res.Plan / res.Fingerprint / res.Confidence
//	}
//
// A result with StatusNoPrediction is an answer, not an error: the learner
// declined (warm-up, low confidence) and the caller should fall back to
// its optimizer path, exactly as the in-process serving path would.
//
// The deadlines, retries and in-flight cap are fixed. A connection attempt
// gets 2s and a call (its write and its response read) 2s. A transport
// failure is retried at most twice on a fresh connection, after 25ms and
// then 50ms; a typed protocol rejection is never retried. At most 64 calls
// are in flight: callers past the cap block until a slot frees, so
// backpressure degrades caller latency instead of piling unbounded work
// onto a struggling server. Dial pings the server, so a wrong address or
// version fails there, not on the first call.
package client

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netproto"
)

const (
	// dialTimeout bounds one connection attempt, callTimeout one call.
	dialTimeout = 2 * time.Second
	callTimeout = 2 * time.Second
	// maxRetries bounds the retries after transport failures; the first
	// waits retryBackoff and each later one twice the one before.
	maxRetries   = 2
	retryBackoff = 25 * time.Millisecond
	// maxInFlight caps concurrent calls.
	maxInFlight = 64
)

// Options configures a Client.
type Options struct {
	// Addr is the server address (leader or replica).
	Addr string
	// PoolSize caps pooled idle connections (default 4). A call checks a
	// connection out exclusively and dials a fresh one when none is idle,
	// so PoolSize bounds only what is kept between calls; the in-flight
	// cap bounds concurrent calls, each holding one connection.
	PoolSize int
}

// ErrClosed reports a call on a closed client.
var ErrClosed = errors.New("client: closed")

// Client is a pooled predict-RPC client. Safe for concurrent use.
type Client struct {
	opts   Options
	sem    chan struct{}
	nextID atomic.Uint64

	mu     sync.Mutex
	idle   []*netproto.Conn
	closed bool
}

// Dial validates the options and probes the server with a ping so a wrong
// address or version fails here, not on the first call.
func Dial(opts Options) (*Client, error) {
	if opts.Addr == "" {
		return nil, fmt.Errorf("client: empty address")
	}
	if opts.PoolSize <= 0 {
		opts.PoolSize = 4
	}
	c := &Client{opts: opts, sem: make(chan struct{}, maxInFlight)}
	if err := c.Ping(); err != nil {
		return nil, err
	}
	return c, nil
}

// Close releases the pooled connections. In-flight calls finish on their
// own connections; subsequent calls fail with ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	idle := c.idle
	c.idle = nil
	c.closed = true
	c.mu.Unlock()
	for _, conn := range idle {
		conn.NetConn().Close() //nolint:errcheck
	}
	return nil
}

// Predict asks the server for a plan prediction. Transport failures are
// retried (bounded, with backoff) on a fresh connection; a typed protocol
// rejection comes back as a netproto.ErrorMsg without retry.
// A StatusNoPrediction result has a nil error — NULL is an answer.
func (c *Client) Predict(template string, point []float64) (netproto.PredictResult, error) {
	req := netproto.PredictRequest{
		ID:       c.nextID.Add(1),
		Template: template,
		Point:    point,
	}
	var res netproto.PredictResult
	err := c.call(func(conn *netproto.Conn, scratch []byte) error {
		if werr := conn.WriteMsg(netproto.MsgPredict, req.Encode(scratch[:0])); werr != nil {
			return werr
		}
		_, body, rerr := conn.ReadExpect(netproto.MsgPredictResult)
		if rerr != nil {
			return rerr
		}
		r, derr := netproto.DecodePredictResult(body)
		if derr != nil {
			return derr
		}
		if r.ID != req.ID {
			return fmt.Errorf("client: response id %d for request %d", r.ID, req.ID)
		}
		res = r
		return nil
	})
	if err != nil {
		return netproto.PredictResult{}, err
	}
	return res, res.Err()
}

// Ping round-trips a liveness probe.
func (c *Client) Ping() error {
	return c.call(func(conn *netproto.Conn, _ []byte) error {
		if err := conn.WriteMsg(netproto.MsgPing, nil); err != nil {
			return err
		}
		_, _, err := conn.ReadExpect(netproto.MsgPong)
		return err
	})
}

// call runs fn against a checked-out connection under the in-flight cap
// and the per-call deadline, retrying transport failures on a fresh
// connection with exponential backoff. A netproto.ErrorMsg from fn is a
// server-side rejection: the connection is still healthy protocol-wise,
// but the request will keep failing — returned without retry.
func (c *Client) call(fn func(conn *netproto.Conn, scratch []byte) error) error {
	c.sem <- struct{}{}
	defer func() { <-c.sem }()

	var scratch [256]byte
	backoff := retryBackoff
	var lastErr error
	for attempt := 0; attempt <= maxRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		conn, err := c.get()
		if err != nil {
			if errors.Is(err, ErrClosed) {
				return err
			}
			lastErr = err
			continue
		}
		conn.NetConn().SetDeadline(time.Now().Add(callTimeout)) //nolint:errcheck
		err = fn(conn, scratch[:])
		if err == nil {
			c.put(conn)
			return nil
		}
		// Any failure poisons the connection (a half-read frame cannot be
		// resynchronized); typed rejections additionally stop the retries.
		conn.NetConn().Close() //nolint:errcheck
		var em netproto.ErrorMsg
		if errors.As(err, &em) {
			return em
		}
		lastErr = err
	}
	return lastErr
}

// get checks out an idle connection or dials a fresh one (sending the
// client hello — the server answers typed errors on mismatch, which the
// first call surfaces).
func (c *Client) get() (*netproto.Conn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if n := len(c.idle); n > 0 {
		conn := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return conn, nil
	}
	c.mu.Unlock()

	raw, err := net.DialTimeout("tcp", c.opts.Addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", c.opts.Addr, err)
	}
	conn := netproto.NewConn(raw, nil)
	hello := netproto.Hello{Version: netproto.Version, Role: netproto.RoleClient}
	raw.SetWriteDeadline(time.Now().Add(dialTimeout)) //nolint:errcheck
	if err := conn.WriteMsg(netproto.MsgHello, hello.Encode(nil)); err != nil {
		raw.Close() //nolint:errcheck
		return nil, err
	}
	return conn, nil
}

// put returns a healthy connection to the pool (or closes it when the
// pool is full or the client closed).
func (c *Client) put(conn *netproto.Conn) {
	conn.NetConn().SetDeadline(time.Time{}) //nolint:errcheck
	c.mu.Lock()
	if !c.closed && len(c.idle) < c.opts.PoolSize {
		c.idle = append(c.idle, conn)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	conn.NetConn().Close() //nolint:errcheck
}
