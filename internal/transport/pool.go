package transport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
)

// Pool defaults.
const (
	// DefaultPoolSize bounds the connections (and therefore the
	// concurrent calls) a pool opens to one server.
	DefaultPoolSize = 4
	// DefaultCallTimeout is the per-call deadline a pool applies when
	// the caller does not choose one.
	DefaultCallTimeout = 30 * time.Second

	dialAttempts = 3
	dialBackoff  = 10 * time.Millisecond

	// failThreshold and failCooldown configure the dead-peer breaker:
	// after this many consecutive dial failures (each already a full
	// retry-with-backoff cycle) the pool marks the peer down, evicts
	// its idle connections, and fails calls fast with ErrPeerDown
	// until the cooldown elapses — so a tree fan-out hitting a dead
	// station pays the dial cost once, not on every branch.
	failThreshold = 2
	failCooldown  = 250 * time.Millisecond
)

// Pool is a bounded set of connections to one server address with lazy
// dialing, reconnect-with-backoff and a per-call timeout; it is the one
// way to call a peer. A connection carries one call at a time, so a
// pool lets bulk fan-out — the fabric pushing bundles to m children at
// once — use parallel streams while capping the sockets held per peer.
// Call is safe for concurrent use; calls beyond the pool size queue for
// a free slot.
type Pool struct {
	addr    string
	timeout time.Duration
	slots   chan struct{}

	mu        sync.Mutex
	idle      []*conn
	closed    bool
	dialFails int       // consecutive failed dial cycles
	downUntil time.Time // breaker open until this instant
}

// NewPool builds a pool for one server address. size <= 0 selects
// DefaultPoolSize; timeout <= 0 selects DefaultCallTimeout. No
// connection is opened until the first Call.
func NewPool(addr string, size int, timeout time.Duration) *Pool {
	if size <= 0 {
		size = DefaultPoolSize
	}
	if timeout <= 0 {
		timeout = DefaultCallTimeout
	}
	return &Pool{addr: addr, timeout: timeout, slots: make(chan struct{}, size)}
}

// Call invokes a method through a pooled connection, dialing lazily
// when no idle connection exists: req is encoded by Marshal, the reply
// decoded into resp (nil discards it). The pool's timeout bounds the
// whole call, dial included, from the moment it holds a slot. A
// connection that suffered a transport-level failure (closed, timed
// out, write error) is discarded; if that connection came from the idle
// set — it may simply have gone stale while parked, e.g. across a peer
// restart — the call retries once on a freshly dialed connection.
// Timed-out calls are never retried (the server may still be executing
// them). Server-side errors travel back as ordinary errors and keep the
// connection pooled.
//
// The stale-idle retry is deliberately at-least-once: a parked
// connection that dies mid-call cannot prove whether the server saw
// the request, and refusing to retry would strand every first call
// across a peer restart. Callers whose methods are not idempotent
// must dedupe server-side — the fabric's install/migrate handlers
// are idempotent by construction for exactly this reason.
func (p *Pool) Call(method string, req, resp any) error {
	return p.CallTrace(method, req, resp, obs.TraceContext{}, 0)
}

// CallTrace is Call carrying a trace context downstream: the serving
// hop records a span for tc's trace, parented to tc's span, so the
// fabric's tree RPCs stitch a whole traversal into one TraceID. d
// overrides the pool's timeout for this call; d <= 0 keeps it.
func (p *Pool) CallTrace(method string, req, resp any, tc obs.TraceContext, d time.Duration) error {
	_, err := p.roundTrip(method, req, tc, resp, nil, d)
	return err
}

// CallStream invokes a streamed-response method (the server handler
// returned an io.Reader) through a pooled connection, writing the
// chunks to w and returning the byte count. The pool's timeout bounds
// each frame's arrival (the first one's dial included), not the whole
// transfer, so a multi-gigabyte catch-up stream survives as long as
// bytes keep flowing; the consumer's pace is the connection's
// backpressure. A stale idle connection is retried once, but only
// while nothing has been written to w yet — a partial stream is never
// silently restarted.
func (p *Pool) CallStream(method string, req any, w io.Writer) (int64, error) {
	return p.roundTrip(method, req, obs.TraceContext{}, nil, w, 0)
}

// roundTrip is the one call path: it takes a slot and a connection,
// runs the call, parks or discards the connection by the outcome, and
// makes the stale-idle retry. resp receives a unary reply and w a
// streamed one; a call sets at most one of them.
func (p *Pool) roundTrip(method string, req any, tc obs.TraceContext, resp any, w io.Writer, d time.Duration) (int64, error) {
	b := getBuilder()
	defer putBuilder(b)
	body, err := marshalSegments(b, req)
	if err != nil {
		return 0, err
	}
	if d <= 0 {
		d = p.timeout
	}
	env := &envelope{Method: method, TraceID: tc.TraceID, Parent: tc.SpanID}
	p.slots <- struct{}{}
	defer func() { <-p.slots }()
	deadline := time.Now().Add(d)
	c, fromIdle, err := p.get(deadline)
	for err == nil {
		var n int64
		var reusable bool
		n, err, reusable = c.roundTrip(env, body, resp, w, d, deadline)
		if reusable {
			p.put(c)
			return n, err
		}
		c.Close()
		if !fromIdle || n > 0 || errors.Is(err, ErrTimeout) {
			return n, err
		}
		fromIdle = false
		c, err = p.dial(deadline)
	}
	return 0, err
}

// get pops an idle connection (reporting that it did) or dials a fresh
// one by the deadline. While the breaker is open it fails fast with
// ErrPeerDown instead of dialing.
func (p *Pool) get(deadline time.Time) (*conn, bool, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, false, ErrClosed
	}
	if time.Now().Before(p.downUntil) {
		p.mu.Unlock()
		return nil, false, fmt.Errorf("%w: %s", ErrPeerDown, p.addr)
	}
	if n := len(p.idle); n > 0 {
		c := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return c, true, nil
	}
	p.mu.Unlock()
	c, err := p.dial(deadline)
	return c, false, err
}

// dial opens a fresh connection — the one place a station opens one —
// retrying a cold peer a few times with exponential backoff (a station
// that is restarting comes back within the window). Attempts and
// backoff both stop at the call's deadline, so a peer that accepts no
// connections costs a call its timeout, not a fixed dial budget. A
// failed cycle counts against the breaker; enough consecutive failures
// open it and evict any idle connections, which are stale by the same
// evidence.
func (p *Pool) dial(deadline time.Time) (*conn, error) {
	backoff := dialBackoff
	var err error
	for attempt := 0; attempt < dialAttempts; attempt++ {
		if attempt > 0 {
			if time.Until(deadline) <= backoff {
				break
			}
			time.Sleep(backoff)
			backoff *= 4
		}
		var nc net.Conn
		if nc, err = (&net.Dialer{Deadline: deadline}).Dial("tcp", p.addr); err == nil {
			p.mu.Lock()
			p.dialFails = 0
			p.downUntil = time.Time{}
			p.mu.Unlock()
			return newConn(nc), nil
		}
	}
	p.mu.Lock()
	p.dialFails++
	var evict []*conn
	if p.dialFails >= failThreshold {
		p.downUntil = time.Now().Add(failCooldown)
		evict = p.idle
		p.idle = nil
	}
	p.mu.Unlock()
	for _, c := range evict {
		c.Close()
	}
	return nil, err
}

func (p *Pool) put(c *conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		c.Close()
		return
	}
	p.idle = append(p.idle, c)
}

// Close discards every idle connection; subsequent calls fail with
// ErrClosed. Connections busy in a call close when their call returns.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
}

// conn is one pooled connection. The pool hands it to one call at a
// time, so the reply is read in the caller's own goroutine: no reader
// loop, no correlation table, and a deadline on the socket is the
// call's timeout. Every reply frame is read through the connection's
// own buffered reader.
type conn struct {
	net.Conn
	r      *bufio.Reader
	in     envelope // the reply frame in hand
	lastID uint64
}

func newConn(nc net.Conn) *conn { return &conn{Conn: nc, r: newFrameReader(nc)} }

// roundTrip sends one request, whose body is the segments body, and
// reads its reply — a stream of More-flagged chunks ending in a final
// frame, of which a unary reply is the one-frame case. Chunks go to w;
// a final frame's body is decoded into resp when the caller asked for
// one, and written to w otherwise. The first frame must arrive by deadline, each later one
// within d of the one before. reusable reports whether the connection
// is still trustworthy: true when the server's final frame (even an
// error frame) arrived, false on any transport-level failure.
func (c *conn) roundTrip(env *envelope, body [][]byte, resp any, w io.Writer, d time.Duration, deadline time.Time) (n int64, err error, reusable bool) {
	c.lastID++
	env.ID = c.lastID
	if err := c.SetDeadline(deadline); err != nil {
		return 0, broken(err, env.Method, d), false
	}
	if err := writeFrame(c.Conn, env, body); err != nil {
		return 0, broken(err, env.Method, d), false
	}
	got := &c.in
	defer func() { *got = envelope{} }() // the reply's frame is the caller's now, or garbage
	for {
		if err := readFrame(c.r, got, nil); err != nil {
			return n, broken(err, env.Method, d), false
		}
		if got.ID != env.ID || (got.More && w == nil) {
			return n, fmt.Errorf("%w: reply frame %d (more=%v) to call %d of %s", ErrBadHeader, got.ID, got.More, env.ID, env.Method), false
		}
		if got.Err != "" {
			return n, errors.New(got.Err), true
		}
		if !got.More && resp != nil {
			return n, Unmarshal(got.Body, resp), true
		}
		if len(got.Body) > 0 && w != nil {
			m, err := w.Write(got.Body)
			n += int64(m)
			if err != nil {
				return n, err, false
			}
		}
		if !got.More {
			return n, nil, true
		}
		if err := c.SetReadDeadline(time.Now().Add(d)); err != nil {
			return n, broken(err, env.Method, d), false
		}
	}
}

// broken names a connection's failed read or write for the caller: a
// passed deadline is ErrTimeout, a frame over MaxFrame is ErrTooLarge,
// and anything else ErrClosed. The connection is done either way.
func broken(err error, method string, d time.Duration) error {
	var ne net.Error
	switch {
	case errors.As(err, &ne) && ne.Timeout():
		return fmt.Errorf("%w: %s after %v", ErrTimeout, method, d)
	case errors.Is(err, ErrTooLarge):
		return err
	}
	return fmt.Errorf("%w: %v", ErrClosed, err)
}
