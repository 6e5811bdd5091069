package transport

import (
	"errors"
	"fmt"
	"io"
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

	// DefaultFailThreshold and DefaultFailCooldown configure the
	// dead-peer breaker: after this many consecutive dial failures
	// (each already a full retry-with-backoff cycle) the pool marks
	// the peer down, evicts its idle connections, and fails calls
	// fast with ErrPeerDown until the cooldown elapses — so a tree
	// fan-out hitting a dead station pays the dial cost once, not on
	// every branch.
	DefaultFailThreshold = 2
	DefaultFailCooldown  = 250 * time.Millisecond
)

// Pool is a bounded set of client connections to one server address
// with lazy dialing, reconnect-with-backoff and a per-call timeout.
// A single Client serializes nothing (calls are correlated), but one
// TCP stream still carries every frame; a pool lets bulk fan-out —
// the fabric pushing bundles to m children at once — use parallel
// streams while capping the sockets held per peer. Call is safe for
// concurrent use; calls beyond the pool size queue for a free slot.
type Pool struct {
	addr    string
	timeout time.Duration
	slots   chan struct{}

	mu        sync.Mutex
	idle      []*Client
	closed    bool
	dialFails int       // consecutive failed dial cycles
	downUntil time.Time // breaker open until this instant
	threshold int
	cooldown  time.Duration
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
	return &Pool{
		addr:      addr,
		timeout:   timeout,
		slots:     make(chan struct{}, size),
		threshold: DefaultFailThreshold,
		cooldown:  DefaultFailCooldown,
	}
}

// Addr returns the server address the pool dials.
func (p *Pool) Addr() string { return p.addr }

// Down reports whether the breaker is currently open (the peer was
// recently undialable and calls are failing fast).
func (p *Pool) Down() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return time.Now().Before(p.downUntil)
}

// Call invokes a method through a pooled connection, dialing lazily
// when no idle connection exists. A connection that suffered a
// transport-level failure (closed, timed out, write error) is
// discarded; if that connection came from the idle set — it may simply
// have gone stale while parked, e.g. across a peer restart — the call
// retries once on a freshly dialed connection. Timed-out calls are
// never retried (the server may still be executing them). Server-side
// errors travel back as ordinary errors and keep the connection
// pooled.
//
// The stale-idle retry is deliberately at-least-once: a parked
// connection that dies mid-call cannot prove whether the server saw
// the request, and refusing to retry would strand every first call
// across a peer restart. Callers whose methods are not idempotent
// must dedupe server-side — the fabric's install/migrate handlers
// are idempotent by construction for exactly this reason.
func (p *Pool) Call(method string, req, resp any) error {
	return p.CallTrace(method, req, resp, obs.TraceContext{}, p.timeout)
}

// CallWithTimeout is Call with a per-call deadline overriding the
// pool's default — liveness probes want a much shorter timeout than
// the bundle transfers sharing the same peer pool.
func (p *Pool) CallWithTimeout(method string, req, resp any, d time.Duration) error {
	return p.CallTrace(method, req, resp, obs.TraceContext{}, d)
}

// CallTrace is CallWithTimeout carrying a trace context downstream
// (see Client.CallTrace); the fabric's tree RPCs use it so one TraceID
// stitches a whole traversal. d <= 0 selects the pool's default
// timeout.
func (p *Pool) CallTrace(method string, req, resp any, tc obs.TraceContext, d time.Duration) error {
	if d <= 0 {
		d = p.timeout
	}
	p.slots <- struct{}{}
	defer func() { <-p.slots }()
	c, fromIdle, err := p.get()
	if err != nil {
		return err
	}
	err, reusable := c.do(method, req, resp, d, tc)
	if reusable {
		p.put(c)
		return err
	}
	c.Close()
	if !fromIdle || errors.Is(err, ErrTimeout) {
		return err
	}
	fresh, dialErr := p.dial()
	if dialErr != nil {
		return dialErr
	}
	err, reusable = fresh.do(method, req, resp, d, tc)
	if reusable {
		p.put(fresh)
	} else {
		fresh.Close()
	}
	return err
}

// CallStream invokes a streamed-response method (the server handler
// returned an io.Reader) through a pooled connection, writing the
// chunks to w and returning the byte count. The pool's timeout bounds
// each frame's arrival, not the whole transfer, so a multi-gigabyte
// catch-up stream survives as long as bytes keep flowing. A stale idle
// connection is retried once, but only while nothing has been written
// to w yet — a partial stream is never silently restarted.
func (p *Pool) CallStream(method string, req any, w io.Writer) (int64, error) {
	p.slots <- struct{}{}
	defer func() { <-p.slots }()
	c, fromIdle, err := p.get()
	if err != nil {
		return 0, err
	}
	n, err, reusable := c.doStream(method, req, w, p.timeout)
	if reusable {
		p.put(c)
		return n, err
	}
	c.Close()
	if !fromIdle || n > 0 || errors.Is(err, ErrTimeout) {
		return n, err
	}
	fresh, dialErr := p.dial()
	if dialErr != nil {
		return n, dialErr
	}
	n, err, reusable = fresh.doStream(method, req, w, p.timeout)
	if reusable {
		p.put(fresh)
	} else {
		fresh.Close()
	}
	return n, err
}

// get pops an idle connection (reporting that it did) or dials a fresh
// one. While the breaker is open it fails fast with ErrPeerDown
// instead of dialing.
func (p *Pool) get() (*Client, bool, error) {
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
	c, err := p.dial()
	return c, false, err
}

// dial opens a fresh connection, retrying a cold peer a few times with
// exponential backoff (a station that is restarting comes back within
// the window). A fully failed cycle counts against the breaker; enough
// consecutive failures open it and evict any idle connections, which
// are stale by the same evidence.
func (p *Pool) dial() (*Client, error) {
	backoff := dialBackoff
	var lastErr error
	for attempt := 0; attempt < dialAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 4
		}
		c, err := Dial(p.addr)
		if err == nil {
			p.mu.Lock()
			p.dialFails = 0
			p.downUntil = time.Time{}
			p.mu.Unlock()
			return c, nil
		}
		lastErr = err
	}
	p.mu.Lock()
	p.dialFails++
	var evict []*Client
	if p.dialFails >= p.threshold {
		p.downUntil = time.Now().Add(p.cooldown)
		evict = p.idle
		p.idle = nil
	}
	p.mu.Unlock()
	for _, c := range evict {
		c.Close()
	}
	return nil, lastErr
}

func (p *Pool) put(c *Client) {
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
