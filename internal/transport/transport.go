// Package transport is a length-prefixed request/response layer over
// TCP: the wire protocol between the paper's three tiers (Web client
// front ends, the class administrator middle tier, and the database
// stations). It offers named-method dispatch on the server and one
// client, Pool: a bounded set of connections to one peer, each carrying
// one call at a time, whose per-call timeout bounds the dial as well as
// the reply — the slice of ODBC/HTTP plumbing the 1999 system obtained
// from its platform. A message body is one of three things, and Marshal and
// Unmarshal are the only place that tells them apart: a Raw is relayed
// as the bytes it is; a value with an AppendWire/DecodeWire pair
// encodes itself (the bodies that carry bundles and need a header-only
// decode or media that aliases the frame); anything else goes through
// internal/wire's plan-cached body codec, a positional binary encoding
// with no type descriptors. There is no fourth, slower arm: a value
// the codec cannot encode is an error naming its type and field.
package transport

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Protocol limits.
const (
	// MaxFrame bounds a single message; bundles with full-size video
	// fit comfortably.
	MaxFrame = 256 << 20

	// StreamChunk is the body size of one streamed-response frame. A
	// handler that returns an io.Reader has its bytes relayed in
	// chunks of this size (see Pool.CallStream), so arbitrarily
	// large payloads — checkpoint images crossing the wire during
	// rejoin catch-up — never need a single arbitrarily large frame.
	StreamChunk = 1 << 20
)

// Transport errors. ErrBadHeader and ErrChecksum are distinct on
// purpose: the first means a frame's structure could not be parsed
// (bad magic, version, or field layout), the second that a
// structurally complete frame failed integrity verification (CRC32C
// mismatch).
// Neither means the peer is unreachable — see Unreachable.
var (
	ErrClosed    = errors.New("transport: connection closed")
	ErrTooLarge  = errors.New("transport: frame exceeds limit")
	ErrNoMethod  = errors.New("transport: no such method")
	ErrBadHeader = errors.New("transport: corrupt frame header")
	ErrChecksum  = errors.New("transport: frame failed checksum")
	ErrTimeout   = errors.New("transport: call timed out")
	ErrPeerDown  = errors.New("transport: peer marked down")
)

// Unreachable reports whether an error means the peer could not be
// reached at the transport level (dead connection, dial failure,
// timeout, tripped breaker) as opposed to a server-side error the peer
// answered with. Failure-aware callers — the distribution fabric's
// tree repair — use it to decide between routing around a station and
// surfacing the peer's own answer.
func Unreachable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrClosed) || errors.Is(err, ErrTimeout) || errors.Is(err, ErrPeerDown) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// envelope is the wire message (see frame.go for the binary frame
// layout). More marks a streamed-response chunk: the response
// continues in further frames with the same ID, and the stream ends
// with a frame whose More is false (or whose Err reports a mid-stream
// failure). TraceID/Parent carry the distributed-tracing context
// hop-by-hop: a non-zero TraceID makes the serving hop record a span
// whose parent is the caller's span (Parent).
type envelope struct {
	ID      uint64
	Method  string
	IsResp  bool
	More    bool
	Err     string
	Body    []byte
	TraceID uint64
	Parent  uint64
}

// Raw is an envelope body passed through verbatim. Sending a Raw
// (as a request, or as a handler's response value) puts its bytes on
// the wire without encoding anything; decoding into a *Raw hands the
// received body back without decoding anything. A relay that only
// forwards a message — the fabric pushing one bundle down a tree, or
// passing a resolve reply back up — holds it as Raw and never pays the
// codec. A decoded Raw aliases the envelope's body, which the
// transport never recycles: it stays valid as long as it is
// referenced.
type Raw []byte

// WireAppender is a body value that encodes itself (with the
// internal/wire primitives) instead of going through the body codec.
// The codec honours the same pair on a field of a plan-encoded body.
type WireAppender = wire.Appender

// WireDecoder is the decode half of WireAppender. body is the whole
// envelope body and outlives the call, so an implementation may keep
// slices that alias it (and must document that it does).
type WireDecoder = wire.Decoder

// Marshal encodes a payload value for an envelope body: a Raw is
// passed through, a WireAppender encodes itself, anything else is
// encoded by wire.AppendBody.
func Marshal(v any) ([]byte, error) {
	switch x := v.(type) {
	case Raw:
		return x, nil
	case WireAppender:
		return x.AppendWire(nil)
	}
	return wire.AppendBody(nil, v)
}

// Unmarshal decodes an envelope body into the caller's value, the
// mirror of Marshal: *Raw receives the body itself, a WireDecoder
// decodes itself, anything else is decoded by wire.DecodeBody.
func Unmarshal(data []byte, v any) error {
	switch x := v.(type) {
	case *Raw:
		*x = data
		return nil
	case WireDecoder:
		return x.DecodeWire(data)
	}
	return wire.DecodeBody(data, v)
}

// Handler serves one method: decode the request with the provided
// function, return the response value (encoded for the caller by
// Marshal) or an error.
type Handler func(decode func(any) error) (any, error)

// Ctx carries per-request observability state into handlers registered
// with HandleCtx: the span the server opened for a traced request (nil
// for untraced ones — every method tolerates that).
type Ctx struct {
	span *obs.ActiveSpan
}

// Span returns the request's span, nil when the request is untraced.
func (c *Ctx) Span() *obs.ActiveSpan {
	if c == nil {
		return nil
	}
	return c.span
}

// Trace returns the context downstream calls should propagate: this
// hop's span as parent. Zero when untraced.
func (c *Ctx) Trace() obs.TraceContext { return c.Span().Context() }

// Annotate appends a note to the request's span, if any.
func (c *Ctx) Annotate(format string, args ...any) { c.Span().Annotate(format, args...) }

// CtxHandler is a Handler that also receives the request Ctx. Only
// methods that propagate traces downstream need it; everything else
// registers a plain Handler and still gets histograms and a span for
// the hop itself.
type CtxHandler func(ctx *Ctx, decode func(any) error) (any, error)

// Server dispatches requests to named handlers. Each connection gets a
// reader goroutine; each request runs in its own goroutine, so slow
// handlers do not stall the connection.
type Server struct {
	mu       sync.RWMutex
	handlers map[string]CtxHandler
	ln       net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	closed   bool

	// observer, when set, receives a latency-histogram observation for
	// every dispatched request and a span for every traced one. An
	// atomic pointer so benchmarks can toggle observability on a live
	// server and measure its overhead.
	observer atomic.Pointer[obs.Observer]

	// Wire accounting, scraped by the Stats RPC of the station layer:
	// every byte read from or written to an accepted connection, and
	// the number of requests dispatched per method. The byte counters
	// are atomics (they tick on every frame); the per-method map has
	// its own mutex so counting a call never contends with the
	// handler-table RLock on the hot dispatch path.
	bytesIn  atomic.Int64
	bytesOut atomic.Int64
	statMu   sync.Mutex
	calls    map[string]int64
}

// ServerStats is a point-in-time accounting snapshot of a server's
// wire activity.
type ServerStats struct {
	BytesIn  int64            // bytes read from accepted connections
	BytesOut int64            // bytes written to accepted connections
	Calls    map[string]int64 // requests dispatched, per method
}

// NewServer returns a server with no handlers.
func NewServer() *Server {
	return &Server{
		handlers: make(map[string]CtxHandler),
		conns:    make(map[net.Conn]struct{}),
		calls:    make(map[string]int64),
	}
}

// SetObserver installs (or, with nil, removes) the server's observer.
func (s *Server) SetObserver(o *obs.Observer) { s.observer.Store(o) }

// Observer returns the installed observer, nil when none.
func (s *Server) Observer() *obs.Observer { return s.observer.Load() }

// Stats returns the server's wire accounting so far. The Calls map is
// a copy, safe to retain.
func (s *Server) Stats() ServerStats {
	st := ServerStats{BytesIn: s.bytesIn.Load(), BytesOut: s.bytesOut.Load()}
	s.statMu.Lock()
	st.Calls = make(map[string]int64, len(s.calls))
	for m, n := range s.calls {
		st.Calls[m] = n
	}
	s.statMu.Unlock()
	return st
}

func (s *Server) noteCall(method string) {
	s.statMu.Lock()
	s.calls[method]++
	s.statMu.Unlock()
}

// countingConn threads the server's byte counters under every read
// and write of an accepted connection.
type countingConn struct {
	net.Conn
	srv *Server
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.srv.bytesIn.Add(int64(n))
	return n, err
}

// Write counts the bytes before they leave: a peer that has read a
// reply may scrape Stats at once, and must find that reply counted.
func (c *countingConn) Write(p []byte) (int, error) {
	c.srv.bytesOut.Add(int64(len(p)))
	n, err := c.Conn.Write(p)
	c.srv.bytesOut.Add(int64(n - len(p)))
	return n, err
}

// writeBuffers is Write for a whole frame (see writeFrame): the
// segments leave in one vectored write on the connection beneath and
// are counted the same way.
func (c *countingConn) writeBuffers(bufs net.Buffers) (int64, error) {
	var size int64
	for _, b := range bufs {
		size += int64(len(b))
	}
	c.srv.bytesOut.Add(size)
	n, err := bufs.WriteTo(c.Conn)
	c.srv.bytesOut.Add(n - size)
	return n, err
}

// Handle registers a method handler; it panics on duplicate names
// (registration is static wiring).
func (s *Server) Handle(method string, h Handler) {
	s.HandleCtx(method, func(_ *Ctx, decode func(any) error) (any, error) {
		return h(decode)
	})
}

// HandleCtx registers a context-aware handler (see CtxHandler); it
// panics on duplicate names.
func (s *Server) HandleCtx(method string, h CtxHandler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.handlers[method]; ok {
		panic("transport: duplicate handler for " + method)
	}
	s.handlers[method] = h
}

// Listen starts accepting on the address (e.g. "127.0.0.1:0") and
// returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	cc := &countingConn{Conn: conn, srv: s}
	var writeMu sync.Mutex
	for {
		env, err := readFrame(cc)
		if err != nil {
			return
		}
		s.noteCall(env.Method)
		s.mu.RLock()
		h, ok := s.handlers[env.Method]
		s.mu.RUnlock()
		go func(env *envelope) {
			// Per-request observability: every dispatch lands in the
			// method's latency histogram; a traced request (non-zero
			// TraceID) additionally records a span parented to the
			// caller's hop.
			o := s.Observer()
			span := o.Begin(obs.TraceContext{TraceID: env.TraceID, SpanID: env.Parent}, env.Method)
			start := time.Now()
			resp := &envelope{ID: env.ID, Method: env.Method, IsResp: true}
			if !ok {
				resp.Err = ErrNoMethod.Error() + ": " + env.Method
			} else {
				out, err := h(&Ctx{span: span}, func(v any) error { return Unmarshal(env.Body, v) })
				if err != nil {
					resp.Err = err.Error()
				} else if r, streamed := out.(io.Reader); streamed {
					// A handler returning a reader streams its bytes
					// in StreamChunk frames; the caller receives them
					// through CallStream.
					span.Annotate("streamed response")
					n := streamResponse(cc, &writeMu, env, r)
					o.Observe(env.Method, time.Since(start), false)
					span.AddBytes(int64(len(env.Body)) + n)
					span.End(nil)
					return
				} else if out != nil {
					body, err := Marshal(out)
					if err != nil {
						resp.Err = err.Error()
					} else {
						resp.Body = body
					}
				}
			}
			o.Observe(env.Method, time.Since(start), resp.Err != "")
			span.AddBytes(int64(len(env.Body) + len(resp.Body)))
			if resp.Err != "" {
				span.End(errors.New(resp.Err))
			} else {
				span.End(nil)
			}
			writeMu.Lock()
			defer writeMu.Unlock()
			writeFrame(cc, resp) // a write failure also ends the reader
		}(env)
	}
}

// streamResponse relays a handler's reader to the caller as a chunk
// sequence: zero or more More-flagged frames followed by a bare final
// frame (or an Err frame on a mid-stream read failure). The reader is
// closed when it implements io.Closer. Each chunk is encoded under the
// connection's write lock, so chunks from concurrent handlers
// interleave at frame granularity without corruption. Returns the
// body bytes relayed, for span accounting.
func streamResponse(conn net.Conn, writeMu *sync.Mutex, env *envelope, r io.Reader) int64 {
	if c, ok := r.(io.Closer); ok {
		defer c.Close()
	}
	send := func(resp *envelope) bool {
		writeMu.Lock()
		defer writeMu.Unlock()
		return writeFrame(conn, resp) == nil
	}
	var total int64
	buf := make([]byte, StreamChunk)
	for {
		n, err := r.Read(buf)
		if n > 0 {
			total += int64(n)
			if !send(&envelope{ID: env.ID, Method: env.Method, IsResp: true, More: true, Body: buf[:n]}) {
				return total
			}
		}
		switch {
		case errors.Is(err, io.EOF):
			send(&envelope{ID: env.ID, Method: env.Method, IsResp: true})
			return total
		case err != nil:
			send(&envelope{ID: env.ID, Method: env.Method, IsResp: true, Err: err.Error()})
			return total
		}
	}
}

// Close stops accepting and closes every live connection.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}
