package fabric

import (
	"time"

	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/transport"
)

// BroadcastRequest asks the root to run a tree-wide broadcast. URLs
// (when set) selects the batched form: every document rides one
// coalesced frame per tree edge; URL is the single-document form.
type BroadcastRequest struct {
	URL     string
	URLs    []string
	RefOnly bool
}

// FetchRequest asks a station to resolve a document for itself.
type FetchRequest struct {
	URL string
}

// EndLectureRequest asks the root to run a tree-wide migration.
type EndLectureRequest struct {
	URL string
}

// handleBroadcast lets an administrative client trigger Broadcast on
// the root station. The client's trace context (ctx.Span) becomes the
// root span of the whole tree traversal.
func (s *Station) handleBroadcast(ctx *transport.Ctx, decode func(any) error) (any, error) {
	var req BroadcastRequest
	if err := decode(&req); err != nil {
		return nil, err
	}
	urls := req.URLs
	if len(urls) == 0 {
		urls = []string{req.URL}
	}
	res, err := s.broadcastAllSpanned(urls, req.RefOnly, ctx.Span())
	if err != nil {
		return nil, err
	}
	return *res, nil
}

// handleFetch lets an administrative client make a station resolve a
// document for itself, applying its watermark policy.
func (s *Station) handleFetch(ctx *transport.Ctx, decode func(any) error) (any, error) {
	var req FetchRequest
	if err := decode(&req); err != nil {
		return nil, err
	}
	return s.resolveSpanned(req.URL, ctx.Span())
}

// handleEndLecture lets an administrative client trigger the
// end-of-lecture migration on the root station.
func (s *Station) handleEndLecture(ctx *transport.Ctx, decode func(any) error) (any, error) {
	var req EndLectureRequest
	if err := decode(&req); err != nil {
		return nil, err
	}
	return s.endLecture(req.URL, ctx.Span())
}

// Admin is a typed administrative client for fabric stations — the
// class administrator front end of the distribution layer, used by
// webdocctl.
type Admin struct {
	pool *transport.Pool
}

// DialAdmin builds an administrative client for one station address.
// Connections open lazily on first use.
func DialAdmin(addr string) *Admin {
	return &Admin{pool: transport.NewPool(addr, 2, 5*time.Minute)}
}

// Close releases the client's connections.
func (a *Admin) Close() { a.pool.Close() }

// Topology fetches the station's view of the fabric.
func (a *Admin) Topology() (TopologyReply, error) {
	var reply TopologyReply
	err := a.pool.Call(methodTopology, struct{}{}, &reply)
	return reply, err
}

// adminTrace mints a fresh trace context for one administrative
// operation, so every tree traversal an Admin triggers is traceable by
// a single ID even though the client itself keeps no span ring.
func adminTrace() obs.TraceContext {
	return obs.TraceContext{TraceID: obs.NewTraceID()}
}

// Broadcast runs a tree-wide broadcast from the root station.
func (a *Admin) Broadcast(url string, refOnly bool) (BroadcastResult, error) {
	var reply BroadcastResult
	err := a.pool.CallTrace(methodBroadcast, BroadcastRequest{URL: url, RefOnly: refOnly}, &reply, adminTrace(), 0)
	return reply, err
}

// BroadcastAll runs one batched tree-wide broadcast of several
// documents from the root station (one coalesced frame per tree edge).
func (a *Admin) BroadcastAll(urls []string, refOnly bool) (BroadcastResult, error) {
	var reply BroadcastResult
	err := a.pool.CallTrace(methodBroadcast, BroadcastRequest{URLs: urls, RefOnly: refOnly}, &reply, adminTrace(), 0)
	return reply, err
}

// Fetch makes the dialed station resolve a document for itself via its
// parent route.
func (a *Admin) Fetch(url string) (FetchResult, error) {
	var reply FetchResult
	err := a.pool.CallTrace(methodFetch, FetchRequest{URL: url}, &reply, adminTrace(), 0)
	return reply, err
}

// EndLecture runs the post-lecture migration from the root station.
func (a *Admin) EndLecture(url string) (MigrateReply, error) {
	var reply MigrateReply
	err := a.pool.CallTrace(methodEndLecture, EndLectureRequest{URL: url}, &reply, adminTrace(), 0)
	return reply, err
}

// Search runs a federation-wide full-text query through the dialed
// station: the station forwards to the root, which scatters the query
// down the distribution tree and merges the top-k hits per hop.
func (a *Admin) Search(terms []string, phrase bool, topK int) (SearchReply, error) {
	var reply SearchReply
	err := a.pool.CallTrace(methodSearch, gatherRequest[search.Query]{Query: search.Query{Terms: terms, Phrase: phrase, TopK: topK}}, &reply, adminTrace(), 0)
	return reply, err
}

// Trace collects every span recorded fabric-wide for one trace ID: the
// dialed station forwards to the root, which scatters the collection
// down the distribution tree and concatenates each hop's contribution.
func (a *Admin) Trace(id uint64) (TraceReply, error) {
	var reply TraceReply
	err := a.pool.Call(methodTrace, gatherRequest[uint64]{Query: id}, &reply)
	return reply, err
}

// Events collects the fabric-wide journal timeline matching the
// filter: the dialed station forwards to the root, which scatters the
// collection down the distribution tree and merges each hop's journal.
func (a *Admin) Events(f obs.EventFilter) (EventsReply, error) {
	var reply EventsReply
	err := a.pool.Call(methodEvents, gatherRequest[obs.EventFilter]{Query: f}, &reply)
	return reply, err
}

// Health fetches the station's liveness view of the fabric (the
// root's view is authoritative).
func (a *Admin) Health() (HealthReply, error) {
	var reply HealthReply
	err := a.pool.Call(methodHealth, struct{}{}, &reply)
	return reply, err
}

// Evict force-marks a station dead on the root, returning the
// resulting health view. Probes remain ground truth: a station that
// still answers heartbeats is revived on the root's next sweep, so
// eviction is for stations the prober has not caught up with, not for
// banishing healthy ones.
func (a *Admin) Evict(pos int) (HealthReply, error) {
	var reply HealthReply
	err := a.pool.Call(methodEvict, EvictRequest{Pos: pos}, &reply)
	return reply, err
}
