package fabric

import (
	"fmt"
	"time"

	"repro/internal/docdb"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/transport"
	"repro/internal/wire"
)

// PushRequest carries one broadcast hop: the bundles, the install
// policy and the epoch-numbered topology snapshot (roster plus the
// root's down-set) the receiving station fans out under. RefOnly
// bundles hold just the script and implementation rows (the metadata
// closure of a document reference).
//
// One hop frame delivers every document of a batched broadcast, so
// distributing k documents costs one RPC per tree edge instead of k.
// The request encodes itself (pushwire.go): the root encodes it once
// and every station below forwards those bytes untouched.
type PushRequest struct {
	Bundles []docdb.Bundle
	RefOnly bool
	Topology
}

// StationResult reports the outcome of a broadcast or migration on one
// station. URL names the document for batched broadcasts (one entry
// per station per document); single-document operations leave it set
// too, for uniformity.
type StationResult struct {
	Pos   int
	URL   string
	Form  string // resulting object form ("" when Err is set)
	Freed int64  // migration only: physical bytes reclaimed
	Err   string
}

// PushReply aggregates the results of a station and its whole subtree.
type PushReply struct {
	Results []StationResult
}

// BroadcastResult summarizes one tree-wide broadcast. TraceID names
// the distributed trace the traversal recorded (retrieve the hop tree
// with the Trace RPC / `webdocctl trace`); zero when the root runs
// with observability disabled. A batched broadcast (Admin.BroadcastAll)
// lists every document in URLs and leaves URL on the first one.
type BroadcastResult struct {
	URL      string
	URLs     []string
	RefOnly  bool
	Bytes    int64 // transfer size of one copy of every bundle
	TraceID  uint64
	Stations []StationResult
}

// ResolveRequest walks one hop up the parent route.
type ResolveRequest struct {
	URL string
	TTL int // remaining hops; guards against roster corruption loops
}

// ResolveReply carries the bundle back down the route.
type ResolveReply struct {
	Bundle   docdb.Bundle
	ServedBy int
}

// MigrateRequest propagates an end-of-lecture migration down the tree.
type MigrateRequest struct {
	URL string
	Topology
}

// MigrateReply aggregates a subtree's migration outcome. TraceID (set
// on the top-level reply only) names the traversal's distributed
// trace.
type MigrateReply struct {
	Freed    int64
	TraceID  uint64
	Stations []StationResult
}

// FetchResult reports one on-demand retrieval, mirroring the
// simulator's cluster.FetchResult. TraceID names the resolve's
// distributed trace.
type FetchResult struct {
	URL        string
	ServedBy   int  // position of the station that supplied the data
	Local      bool // the document was already resident
	Replicated bool // this fetch crossed the watermark and materialized a copy
	Fetches    int  // remote retrievals so far, including this one
	Bytes      int64
	TraceID    uint64
}

// Broadcast pushes a document from the root down the m-ary tree,
// hop by hop with parallel fan-out to children: the root encodes the
// push once and every relay forwards the bytes it received while it
// installs its own copy. With refOnly the stations install document
// references (the paper's broadcast-of-references when an instance is
// created); otherwise they import full instances (pre-broadcast before
// a lecture). Dead hops are routed around — their children graft onto
// the nearest live ancestor — and unreachable stations are reported
// per station in the result, not as a call failure.
func (s *Station) Broadcast(url string, refOnly bool) (*BroadcastResult, error) {
	// An in-process broadcast roots its own trace; the RPC path
	// (handleBroadcast) reuses the span the transport already opened.
	span := s.observer().BeginLocal(methodBroadcast)
	res, err := s.broadcastAllSpanned([]string{url}, refOnly, span)
	span.End(err)
	return res, err
}

func (s *Station) broadcastAllSpanned(urls []string, refOnly bool, span *obs.ActiveSpan) (*BroadcastResult, error) {
	if !s.isRoot {
		return nil, fmt.Errorf("%w: broadcast", ErrNotRoot)
	}
	if len(urls) == 0 {
		return nil, fmt.Errorf("fabric: broadcast of zero documents")
	}
	bundles := make([]docdb.Bundle, 0, len(urls))
	var total int64
	for _, url := range urls {
		bundle, err := s.bundleFor(url, refOnly)
		if err != nil {
			return nil, err
		}
		total += bundle.TotalBytes()
		bundles = append(bundles, *bundle)
	}
	v := s.view()
	// The one encode of the whole broadcast: every station in the tree
	// receives, and relays, exactly these bytes. The root sends them as
	// segments, its media spliced in as the store views they are.
	var b wire.Builder
	if err := (PushRequest{Bundles: bundles, RefOnly: refOnly, Topology: v.Topology}).AppendSegments(&b); err != nil {
		return nil, err
	}
	body := transport.Segments(b.Segments())
	// The catalog entries land before the fan-out: a station rejoining
	// while this broadcast is still in flight must see the documents in
	// its catch-up catalog — the root holds the bundles either way.
	for _, url := range urls {
		s.recordBroadcast(url, refOnly)
	}
	results := s.fanOut(v.pos, v.Topology, body, span)
	sortResults(results)
	return &BroadcastResult{
		URL: urls[0], URLs: urls, RefOnly: refOnly, Bytes: total,
		TraceID: span.Context().TraceID, Stations: results,
	}, nil
}

// bundleFor builds one document's transfer closure: the metadata rows
// alone for a reference broadcast, the full bundle otherwise. The
// rejoin state stream ships its documents through it too.
func (s *Station) bundleFor(url string, refOnly bool) (*docdb.Bundle, error) {
	if refOnly {
		return s.store.ExportReference(url)
	}
	return s.store.ExportBundle(url)
}

// handlePush relays a push and installs it, in that order of starting:
// it reads only the body's topology header, hands the body it received
// — the root's bytes, never re-encoded — to its children, and decodes
// and imports its own copy while they are in flight. Both finish
// before it replies, so the reply still carries the whole subtree's
// per-station results. The hop's span (opened by the transport when
// the push is traced) rides down to the children, so the whole
// traversal shares one TraceID.
//
// Forwarding first means a relay can die after its children have the
// push but before its parent has the reply; the parent then grafts and
// delivers to those children a second time. That window predates this
// ordering (a relay could always die between fan-out and reply) and is
// covered where it always was: ImportBundle and ImportReference are
// no-ops on a document that is already resident.
func (s *Station) handlePush(ctx *transport.Ctx, decode func(any) error) (any, error) {
	var body transport.Raw
	if err := decode(&body); err != nil {
		return nil, err
	}
	req, bundles, err := decodePushHeader(body)
	if err != nil {
		return nil, err
	}
	pos, err := s.enterTree(req.Topology)
	if err != nil {
		return nil, err
	}
	var sub []StationResult
	relayed := make(chan struct{})
	go func() {
		defer close(relayed)
		sub = s.fanOut(pos, req.Topology, transport.Segments{body}, ctx.Span())
	}()
	local := s.installPush(pos, req.RefOnly, bundles)
	<-relayed
	return PushReply{Results: append(local, sub...)}, nil
}

// fanOut relays a push body to every child of pos, grafting around
// dead hops: body is what this station was sent, as one segment (or,
// at the root, the segments it encoded), and every delivery — to a
// child, or to a dead child's children — puts those same bytes on the
// wire. The hop's span context rides on each child call.
func (s *Station) fanOut(pos int, topo Topology, body transport.Segments, span *obs.ActiveSpan) []StationResult {
	return fanOutTree(s, span, pos, topo, false, func(addr string, timeout time.Duration) (subtree[struct{}], error) {
		var reply PushReply
		err := s.pool(addr).CallTrace(methodPush, body, &reply, span.Context(), timeout)
		return subtree[struct{}]{Stations: reply.Results}, err
	}).Stations
}

// installPush decodes the bundles of a received push and installs them
// on this station, one result per document. A body whose bundles do
// not decode costs this station its copy, reported under its position;
// the subtree, which was sent the same bytes, reports for itself.
func (s *Station) installPush(pos int, refOnly bool, r *wire.Reader) []StationResult {
	bundles, err := decodePushBundles(r)
	if err != nil {
		return []StationResult{{Pos: pos, Err: err.Error()}}
	}
	local := make([]StationResult, 0, len(bundles))
	s.importMu.Lock()
	defer s.importMu.Unlock()
	for i := range bundles {
		bundle := &bundles[i]
		res := StationResult{Pos: pos, URL: bundle.Impl.StartingURL}
		var obj docdb.DocObject
		if refOnly {
			obj, err = s.store.ImportReference(bundle.Script, bundle.Impl, pos, 1)
		} else {
			obj, err = s.store.ImportBundle(bundle, pos, false)
		}
		if err != nil {
			res.Err = err.Error()
		} else {
			res.Form = obj.Form
		}
		local = append(local, res)
	}
	return local
}

// Resolve retrieves a document for this station: served locally when
// an instance is resident, otherwise pulled via the parent route (each
// ancestor serves from a local instance or relays upward), skipping
// dead ancestors on the way. Crossing the watermark frequency imports
// the bundle, materializing local BLOBs.
//
//lint:ignore unreached test hook: the root package's TestResolveHopAllocBudget and fabric's resolve tests pull a document in process through it
func (s *Station) Resolve(url string) (FetchResult, error) {
	span := s.observer().BeginLocal(methodFetch)
	res, err := s.resolveSpanned(url, span)
	span.End(err)
	return res, err
}

func (s *Station) resolveSpanned(url string, span *obs.ActiveSpan) (FetchResult, error) {
	s.mu.Lock()
	pos, n := s.pos, s.n
	s.mu.Unlock()
	if pos == 0 {
		return FetchResult{}, ErrNotJoined
	}
	trace := span.Context().TraceID
	if obj, err := s.store.ObjectByURL(url); err == nil && obj.Form != schema.FormReference {
		return FetchResult{URL: url, Local: true, ServedBy: pos, TraceID: trace}, nil
	}
	if pos == 1 {
		return FetchResult{}, fmt.Errorf("%w: %s", ErrNoInstance, url)
	}
	var reply ResolveReply
	if err := s.resolveViaAncestors(url, n+1, span, &reply); err != nil {
		return FetchResult{}, err
	}
	fetches, materialize := s.noteFetch(url)
	res := FetchResult{
		URL:      url,
		ServedBy: reply.ServedBy,
		Fetches:  fetches,
		Bytes:    reply.Bundle.TotalBytes(),
		TraceID:  trace,
	}
	if materialize {
		span.Annotate("watermark pull: materializing after %d fetches", fetches)
		s.importMu.Lock()
		_, err := s.store.ImportBundle(&reply.Bundle, pos, false)
		s.importMu.Unlock()
		if err != nil {
			return res, err
		}
		res.Replicated = true
	}
	return res, nil
}

// noteFetch counts one remote retrieval of url and reports its number
// and whether it materializes a local instance. Resolve and the rejoin
// state stream both count through it.
func (s *Station) noteFetch(url string) (fetches int, materialize bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fetches[url]++
	fetches = s.fetches[url]
	return fetches, s.crossesWatermarkLocked(fetches)
}

// crossesWatermarkLocked is the watermark rule: the fetch numbered
// fetches materializes a local instance once it exceeds the watermark
// frequency; a negative watermark never replicates (mu held).
func (s *Station) crossesWatermarkLocked(fetches int) bool {
	return s.watermark >= 0 && fetches > s.watermark
}

// handleResolve serves a bundle from a local instance or relays the
// request further up the parent route, skipping dead ancestors. A
// relaying station hands the ancestor's reply body down untouched:
// only the station that serves the bundle encodes it and only the one
// that asked decodes it. The hop's span context relays with the
// request, so a traced resolve records every ancestor it crossed.
func (s *Station) handleResolve(ctx *transport.Ctx, decode func(any) error) (any, error) {
	var req ResolveRequest
	if err := decode(&req); err != nil {
		return nil, err
	}
	if req.TTL <= 0 {
		return nil, ErrRouteLoop
	}
	s.mu.Lock()
	pos := s.pos
	s.mu.Unlock()
	if pos == 0 {
		return nil, ErrNotJoined
	}
	bundle, err := s.exportLocal(req.URL)
	if err != nil {
		return nil, err
	}
	if bundle != nil {
		ctx.Annotate("served from local instance")
		return ResolveReply{Bundle: *bundle, ServedBy: pos}, nil
	}
	if pos == 1 {
		return nil, fmt.Errorf("%w: %s", ErrNoInstance, req.URL)
	}
	var reply transport.Raw
	if err := s.resolveViaAncestors(req.URL, req.TTL-1, ctx.Span(), &reply); err != nil {
		return nil, err
	}
	return reply, nil
}

// exportLocal exports the document if this station holds it as an
// instance, nil otherwise. The residency check and the export run
// under importMu, which local migrations and installs also take:
// without it an end-of-lecture migration could drop the content
// between the check and the export (or halfway through it) and the
// resolve would be served a bundle missing pages or media.
func (s *Station) exportLocal(url string) (*docdb.Bundle, error) {
	s.importMu.Lock()
	defer s.importMu.Unlock()
	obj, err := s.store.ObjectByURL(url)
	if err != nil || obj.Form == schema.FormReference {
		return nil, nil
	}
	return s.store.ExportBundle(url)
}

// EndLecture migrates every non-persistent instance of the document in
// the tree back to a reference, reclaiming the buffer space — "after a
// lecture is presented, duplicated document instances migrate to
// document references." Dead stations are routed around; their copies
// are reconciled at rejoin, when catch-up rebuilds the document as a
// reference.
//
//lint:ignore unreached test hook: the root package's BenchmarkFabricBroadcast pairs and fabric's lecture tests end a lecture in process through it
func (s *Station) EndLecture(url string) (*MigrateReply, error) {
	span := s.observer().BeginLocal(methodEndLecture)
	res, err := s.endLectureSpanned(url, span)
	span.End(err)
	return res, err
}

func (s *Station) endLectureSpanned(url string, span *obs.ActiveSpan) (*MigrateReply, error) {
	if !s.isRoot {
		return nil, fmt.Errorf("%w: end-lecture migration", ErrNotRoot)
	}
	v := s.view()
	// Flip the catalog before the fan-out, as in Broadcast: a rejoin
	// racing this migration should rebuild a reference, which is where
	// the whole tree is headed anyway.
	s.markMigrated(url)
	reply := s.migrateSubtree(v.pos, MigrateRequest{URL: url, Topology: v.Topology}, span)
	reply.TraceID = span.Context().TraceID
	sortResults(reply.Stations)
	return &reply, nil
}

// migrateLocal migrates this station's own copy if it is a
// non-persistent instance, reporting the physical bytes reclaimed. The
// migration holds importMu, so a resolve never exports the document
// while its content is being dropped (see exportLocal).
func (s *Station) migrateLocal(url string, pos int) *StationResult {
	obj, err := s.store.ObjectByURL(url)
	if err != nil || obj.Form != schema.FormInstance || obj.Persistent {
		return nil
	}
	res := StationResult{Pos: pos}
	s.importMu.Lock()
	before := s.store.Blobs().Stats().PhysicalBytes
	err = s.store.MigrateToReference(obj.ID, 1)
	freed := before - s.store.Blobs().Stats().PhysicalBytes
	s.importMu.Unlock()
	if err != nil {
		res.Err = err.Error()
	} else {
		res.Form = schema.FormReference
		res.Freed = freed
		s.mu.Lock()
		delete(s.fetches, url)
		s.mu.Unlock()
	}
	return &res
}

// migrateSubtree migrates this station's copy, relays the migration to
// the children of pos (grafting around dead hops) and totals the bytes
// the subtree reclaimed. A dead station's own copy cannot be reclaimed
// now; it is reported and reconciled when the station rejoins (its
// catch-up rebuilds the document as a reference).
func (s *Station) migrateSubtree(pos int, req MigrateRequest, span *obs.ActiveSpan) MigrateReply {
	local := s.migrateLocal(req.URL, pos)
	below := fanOutTree(s, span, pos, req.Topology, false, func(addr string, timeout time.Duration) (subtree[struct{}], error) {
		var reply MigrateReply
		err := s.pool(addr).CallTrace(methodMigrate, req, &reply, span.Context(), timeout)
		return subtree[struct{}]{Stations: reply.Stations}, err
	})
	out := MigrateReply{Stations: below.Stations}
	if local != nil {
		out.Stations = append(out.Stations, *local)
	}
	for _, st := range out.Stations {
		out.Freed += st.Freed
	}
	return out
}

// handleMigrate migrates the local copy and relays down the subtree.
func (s *Station) handleMigrate(ctx *transport.Ctx, decode func(any) error) (any, error) {
	var req MigrateRequest
	if err := decode(&req); err != nil {
		return nil, err
	}
	pos, err := s.enterTree(req.Topology)
	if err != nil {
		return nil, err
	}
	return s.migrateSubtree(pos, req, ctx.Span()), nil
}
