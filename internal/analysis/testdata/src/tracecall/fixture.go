// Fixture for the tracecall analyzer: traced scopes (HandleCtx
// handlers, trace-context-carrying functions, and methods of a
// CtxHandler-registering type) must propagate via CallTrace.
package tc

import (
	"repro/internal/obs"
	"repro/internal/transport"
)

type server struct {
	srv  *transport.Server
	pool *transport.Pool
}

func (s *server) register() {
	s.srv.HandleCtx("Push", s.handlePush)
	s.srv.HandleCtx("Lit", func(ctx *transport.Ctx, decode func(any) error) (any, error) {
		return nil, s.pool.Call("Down", struct{}{}, nil) // want `pool\.Call inside a traced scope drops the trace context`
	})
}

// handlePush is HandleCtx-registered: its downstream calls must carry
// ctx.Span().Context().
func (s *server) handlePush(ctx *transport.Ctx, decode func(any) error) (any, error) {
	err := s.pool.Call("Down", struct{}{}, nil) // want `pool\.Call inside a traced scope drops the trace context`
	return nil, err
}

// helper is not itself registered, but server registers CtxHandlers,
// so its whole method set is the traced data plane.
func (s *server) helper() error {
	return s.pool.Call("Down", struct{}{}, nil) // want `pool\.Call inside a traced scope drops the trace context`
}

// fanOut received a trace context, so dropping it downstream loses
// the traversal.
func fanOut(p *transport.Pool, tc obs.TraceContext) error {
	return p.Call("Down", struct{}{}, nil) // want `pool\.Call inside a traced scope drops the trace context`
}

// relay propagates: no diagnostic.
func relay(p *transport.Pool, tc obs.TraceContext) error {
	return p.CallTrace("Down", struct{}{}, nil, tc, 0)
}

// handleGood reads its ctx: no diagnostic.
func (s *server) handleGood(ctx *transport.Ctx, decode func(any) error) (any, error) {
	return nil, s.pool.CallTrace("Down", struct{}{}, nil, ctx.Span().Context(), 0)
}

// client registers nothing and carries no context; its plain calls
// are legitimate control-plane traffic.
type client struct{ pool *transport.Pool }

func (c *client) ping() error {
	return c.pool.Call("Ping", struct{}{}, nil)
}
