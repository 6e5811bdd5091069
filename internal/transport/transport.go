// Package transport is a length-prefixed request/response layer over
// TCP: the wire protocol between the paper's three tiers (Web client
// front ends, the class administrator middle tier, and the database
// stations). It offers named-method dispatch on the server and one
// client, Pool: a bounded set of connections to one peer, each carrying
// one call at a time, whose per-call timeout bounds the dial as well as
// the reply — the slice of ODBC/HTTP plumbing the 1999 system obtained
// from its platform. The server serves a connection's requests in
// order on the connection's own goroutine, and Server.Close does not
// wait for a handler that is still running. Each connection reads
// through one buffered reader of its own, so a small frame costs one
// read, and writes each frame in one write: a small one copied whole,
// a larger one as a vector of segments.
//
// A message body is one of five things, and marshalSegments (for the
// send path) and Marshal (the same bytes as one slice) are the only
// places that tell them apart: a Raw is relayed as the bytes it is,
// and Segments as the segments they are; a wire.Segmenter (the three
// bodies that carry bundles) encodes itself into segments, its media
// spliced in as the BLOB store views they are, so a medium reaches the
// socket without a copy and stays a view until its write returns; a
// value with only an AppendWire/DecodeWire pair encodes itself flat;
// anything else goes through internal/wire's plan-cached body codec, a
// positional binary encoding with no type descriptors. There is no
// slower arm: a value the codec cannot encode is an error naming its
// type and field.
package transport

import (
	"bufio"
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
// whose parent is the caller's span (Parent). Body is a received
// frame's body; a frame being sent carries its body as writeFrame's
// segments.
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

// Segments is a body already encoded, held as the segments it is sent
// as: the root encodes a push once and relays these to every child,
// with no copy and no second encode.
type Segments [][]byte

// marshalSegments encodes a payload value for an envelope body into b
// and returns the body's segments: a Raw and Segments are passed
// through, a wire.Segmenter splices its bulk bytes in, a WireAppender
// appends itself, and anything else is encoded by wire.AppendBody. The
// segments alias b and v's own bytes until b is reset.
func marshalSegments(b *wire.Builder, v any) ([][]byte, error) {
	var err error
	switch x := v.(type) {
	case Raw:
		b.Splice(x)
	case Segments:
		return x, nil
	case wire.Segmenter:
		err = x.AppendSegments(b)
	case WireAppender:
		b.Buf, err = x.AppendWire(b.Buf)
	default:
		b.Buf, err = wire.AppendBody(b.Buf, v)
	}
	return b.Segments(), err
}

// Marshal encodes a payload value for an envelope body as one slice:
// the bytes marshalSegments sends, joined. A Raw is passed through,
// Segments are joined, a WireAppender (every wire.Segmenter is one)
// appends itself flat, and anything else is encoded by wire.AppendBody.
func Marshal(v any) ([]byte, error) {
	switch x := v.(type) {
	case Raw:
		return x, nil
	case Segments:
		return wire.Join(nil, x), nil
	case WireAppender:
		return x.AppendWire(nil)
	}
	return wire.AppendBody(nil, v)
}

// builders recycles the builders outgoing bodies are encoded into. A
// builder whose running buffer grew past maxBuilder is not kept.
var builders = sync.Pool{New: func() any { return new(wire.Builder) }}

const maxBuilder = 64 << 10

func getBuilder() *wire.Builder { return builders.Get().(*wire.Builder) }

// putBuilder returns a builder once the frame its segments went out in
// has been written.
func putBuilder(b *wire.Builder) {
	b.Reset()
	if cap(b.Buf) <= maxBuilder {
		builders.Put(b)
	}
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
// function, which is valid until the handler returns, and return the
// response value (encoded for the caller as Marshal encodes it) or an
// error.
type Handler func(decode func(any) error) (any, error)

// Ctx carries per-request observability state into handlers registered
// with HandleCtx: the span the server opened for a traced request (nil
// for untraced ones — every method tolerates that). A connection
// reuses one Ctx for each request it serves, so a handler must not
// keep it past its return; work that outlives the handler takes the
// span instead.
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

// Server dispatches requests to named handlers. A connection's
// requests are served in order on its own goroutine, each answered
// before the next is read, as a pooled caller sends them; a slow
// handler holds only its own connection.
type Server struct {
	mu       sync.RWMutex
	handlers map[string]registered
	ln       net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup // the accept loop
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
		handlers: make(map[string]registered),
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
func (c *countingConn) writeBuffers(bufs *net.Buffers) (int64, error) {
	var size int64
	for _, b := range *bufs {
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
	s.handlers[method] = registered{name: method, h: h}
}

// registered is a handler with the name it was registered under, which
// every request for it carries as its method.
type registered struct {
	name string
	h    CtxHandler
}

// methodName returns the registered name of the method a request
// names, so decoding a request copies no method; an unknown method is
// copied, for the error that names it.
func (s *Server) methodName(raw []byte) string {
	s.mu.RLock()
	reg, ok := s.handlers[string(raw)]
	s.mu.RUnlock()
	if !ok {
		return string(raw)
	}
	return reg.name
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
		go s.serveConn(conn)
	}
}

// serverConn is one accepted connection's state. The connection
// carries one request at a time, so the request in hand, decoded into
// the connection's one envelope, the Ctx its handler gets and the
// decode function over its body belong to the connection, bound once:
// a handler must not keep either past its return.
type serverConn struct {
	s      *Server
	w      countingConn
	r      *bufio.Reader
	in     envelope
	names  func([]byte) string
	ctx    Ctx
	decode func(any) error
}

// serveConn answers each request before it reads the next; a failed
// read or write ends the connection.
func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	sc := &serverConn{s: s, w: countingConn{Conn: conn, srv: s}, names: s.methodName}
	sc.r = newFrameReader(&sc.w)
	sc.decode = func(v any) error { return Unmarshal(sc.in.Body, v) }
	for {
		if readFrame(sc.r, &sc.in, sc.names) != nil || sc.serve() != nil {
			return
		}
	}
}

// serve runs the handler of the request in hand and answers it,
// returning the write's error; it then drops the request, so its frame
// is not kept until the next one arrives. Every dispatch lands in the
// method's latency histogram; a traced request (non-zero TraceID) also
// records a span parented to the caller's hop.
func (sc *serverConn) serve() error {
	env := &sc.in
	defer func() { *env = envelope{} }()
	s := sc.s
	s.noteCall(env.Method)
	s.mu.RLock()
	reg, ok := s.handlers[env.Method]
	s.mu.RUnlock()
	o := s.Observer()
	span := o.Begin(obs.TraceContext{TraceID: env.TraceID, SpanID: env.Parent}, env.Method)
	start := time.Now()
	var out any
	var err error
	if !ok {
		err = errors.New(ErrNoMethod.Error() + ": " + env.Method)
	} else {
		sc.ctx.span = span
		out, err = reg.h(&sc.ctx, sc.decode)
		sc.ctx.span = nil
	}
	if r, streamed := out.(io.Reader); streamed && err == nil {
		// A handler returning a reader streams its bytes in StreamChunk
		// frames; the caller receives them through CallStream.
		span.Annotate("streamed response")
		n, err := streamResponse(&sc.w, env.ID, r)
		o.Observe(env.Method, time.Since(start), false)
		span.AddBytes(int64(len(env.Body)) + n)
		span.End(nil)
		return err
	}
	resp := &envelope{ID: env.ID, IsResp: true}
	b := getBuilder()
	defer putBuilder(b)
	var body [][]byte
	if err == nil && out != nil {
		body, err = marshalSegments(b, out)
	}
	if err != nil {
		body, resp.Err = nil, err.Error()
	}
	o.Observe(env.Method, time.Since(start), err != nil)
	span.AddBytes(int64(len(env.Body) + bodyLen(body)))
	span.End(err)
	return writeFrame(&sc.w, resp, body)
}

// streamResponse relays a handler's reader to the caller of request id
// as a chunk sequence: zero or more More-flagged frames followed by a
// bare final frame (or an Err frame on a mid-stream read failure). The
// reader is closed when it implements io.Closer. Returns the body bytes
// relayed, for span accounting, and the first write error.
func streamResponse(w io.Writer, id uint64, r io.Reader) (int64, error) {
	if c, ok := r.(io.Closer); ok {
		defer c.Close()
	}
	var total int64
	buf := make([]byte, StreamChunk)
	for {
		n, err := r.Read(buf)
		if n > 0 {
			total += int64(n)
			if err := writeFrame(w, &envelope{ID: id, IsResp: true, More: true}, [][]byte{buf[:n]}); err != nil {
				return total, err
			}
		}
		switch {
		case errors.Is(err, io.EOF):
			return total, writeFrame(w, &envelope{ID: id, IsResp: true}, nil)
		case err != nil:
			return total, writeFrame(w, &envelope{ID: id, IsResp: true, Err: err.Error()}, nil)
		}
	}
}

// Close stops accepting and closes every live connection. It waits for
// the accept loop but not for a handler still running: that handler's
// reply fails on its closed connection, whose goroutine then ends.
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
