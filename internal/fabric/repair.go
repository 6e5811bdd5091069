package fabric

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/docdb"
	"repro/internal/mtree"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/search"
	"repro/internal/transport"
)

// Tree repair. A broadcast or migration hop that cannot reach a child
// retries once (store-and-forward retry), then grafts the dead child's
// children onto itself — the same rule mtree.LiveChildren expresses
// and the netsim simulator models — so a dead interior station costs
// its own copy, never its subtree's. Resolve applies the dual rule:
// the parent route skips dead ancestors (mtree.LiveAncestors) and
// falls back to suspects only when nothing else answers.

// CatalogEntry is one broadcast the root remembers for rejoin
// catch-up: the document URL and whether the tree currently holds it
// as references (a reference broadcast, or a full one that has since
// migrated) or as full instances.
type CatalogEntry struct {
	URL     string
	RefOnly bool
}

// CatalogReply lists the root's broadcast history, most recent form
// per URL.
type CatalogReply struct {
	Entries []CatalogEntry
}

// RefsRequest asks a station for a document's metadata closure (script
// and implementation rows only) — the payload of a reference import.
type RefsRequest struct {
	URL string
}

// RefsReply carries the metadata closure.
type RefsReply struct {
	Bundle docdb.Bundle
}

// CatchUpResult summarizes a rejoin catch-up.
type CatchUpResult struct {
	// References counts the reference scaffolds installed for
	// documents the station had never seen.
	References int
	// Migrated counts stale local instances (restored from the WAL
	// across a crash) reclaimed because the tree migrated the document
	// while this station was dark.
	Migrated int
	// Resolved holds the per-document outcome of re-pulling missed
	// full broadcasts under the watermark policy.
	Resolved []FetchResult
	// Streamed reports that the missing documents arrived as one
	// checkpoint stream from the root (the far-behind path) instead of
	// per-entry pulls; StreamedBytes is the stream's transfer size.
	Streamed      bool
	StreamedBytes int64
}

// recordBroadcast notes a tree-wide broadcast in the root's catalog so
// rejoining stations can catch up on it. The latest form per URL wins:
// a full broadcast that later migrated is remembered as references.
func (s *Station) recordBroadcast(url string, refOnly bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.catalog {
		if s.catalog[i].URL == url {
			s.catalog[i].RefOnly = refOnly
			return
		}
	}
	s.catalog = append(s.catalog, CatalogEntry{URL: url, RefOnly: refOnly})
}

// markMigrated flips an existing catalog entry to reference form after
// an end-of-lecture migration; a rejoiner should rebuild the reference,
// not re-materialize a reclaimed instance.
func (s *Station) markMigrated(url string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.catalog {
		if s.catalog[i].URL == url {
			s.catalog[i].RefOnly = true
			return
		}
	}
}

// treeAgg is what one subtree's fan-out returns: the per-station
// results plus whatever payload the operation aggregates — freed bytes
// for migrations, ranked hits for scatter-gather searches, collected
// spans for trace gathers, journal events for event gathers. Pushes
// use the results alone.
type treeAgg struct {
	Stations []StationResult
	Freed    int64
	Hits     []search.Hit
	Spans    []obs.Span
	Events   []obs.Event
}

// fanOutTree delivers one tree operation (push, migrate, search or
// trace gather) to every child of pos in parallel and collects the
// subtree aggregates, routing around dead hops: a known-down child is
// skipped outright, an unreachable one gets the store-and-forward
// retry, and either way the dead station's children are served
// directly by this station via a recursive fan-out from the dead
// position (grafting). The dead hop itself is reported per station in
// the result, never as a call failure. send delivers to one child
// address and returns that subtree's aggregate; routeAround classifies
// which send errors are safe to repair by grafting (canRouteAround for
// one-shot deliveries, a looser rule for idempotent reads — see
// searchFanOut). span, when the operation is traced, collects graft
// annotations for this hop (nil is fine).
func (s *Station) fanOutTree(span *obs.ActiveSpan, pos, m, n int, roster map[int]string, routeAround func(error) bool, send func(addr string) (treeAgg, error)) treeAgg {
	kids, err := mtree.Children(pos, m, n)
	if err != nil {
		return treeAgg{Stations: []StationResult{{Pos: pos, Err: err.Error()}}}
	}
	var mu sync.Mutex
	var agg treeAgg
	var wg sync.WaitGroup
	for _, kid := range kids {
		kid := kid
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub := s.childSubtree(span, kid, m, n, roster, routeAround, send)
			mu.Lock()
			agg.Stations = append(agg.Stations, sub.Stations...)
			agg.Freed += sub.Freed
			agg.Hits = append(agg.Hits, sub.Hits...)
			agg.Spans = append(agg.Spans, sub.Spans...)
			agg.Events = append(agg.Events, sub.Events...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return agg
}

// childSubtree covers one child's subtree for fanOutTree: a reachable
// child relays onward itself; a dead one is reported and its children
// grafted onto this station — annotated on the hop's span and emitted
// as a graft event so repairs are visible in traces and logs.
func (s *Station) childSubtree(span *obs.ActiveSpan, kid, m, n int, roster map[int]string, routeAround func(error) bool, send func(addr string) (treeAgg, error)) treeAgg {
	s.mu.Lock()
	dead := s.down[kid] || s.suspect[kid]
	s.mu.Unlock()
	failure := "station down"
	fresh := false // a live delivery attempt failed just now
	if !dead {
		fresh = true
		addr := roster[kid]
		if addr == "" {
			failure = "no address in roster"
		} else {
			agg, err := send(addr)
			if err == nil {
				return agg
			}
			if !routeAround(err) {
				// The station answered (it is alive, the operation
				// just failed there) or the call timed out (it may
				// still be executing and fanning out). No grafting —
				// doubling the delivery would be worse than reporting
				// the hop.
				return treeAgg{Stations: []StationResult{{Pos: kid, Err: err.Error()}}}
			}
			// Suspicion is recorded only for hard unreachability
			// (canRouteAround), never for timeouts: an idempotent
			// search may graft around a merely slow station, but
			// marking it suspect would make the next one-shot
			// broadcast skip delivering to it outright.
			if canRouteAround(err) {
				s.noteSuspect(kid)
			}
			failure = err.Error()
		}
	}
	span.Annotate("grafted dead child %d: %s", kid, failure)
	if fresh {
		// Journal the discovery, not every traversal that recalls it:
		// routing around a child the roster already declares down is
		// policy, and journaling it would make each Events collection
		// around a dead station write its own scatter into the ring it
		// is reading.
		s.eventSpan(span, "graft", "station", s.Pos(), "child", kid, "cause", failure)
	}
	sub := s.fanOutTree(span, kid, m, n, roster, routeAround, send)
	sub.Stations = append([]StationResult{{Pos: kid, Err: failure}}, sub.Stations...)
	return sub
}

// fanOut relays a push body to every child of pos, grafting around
// dead hops: body is what this station was sent (or, at the root, what
// it encoded), and every delivery — to a child, or to a dead child's
// children — puts those same bytes on the wire. Every failure mode
// lands as a per-station result entry, never as a call failure. The
// hop's span context rides on each child call.
func (s *Station) fanOut(pos, m, n int, roster map[int]string, body transport.Raw, span *obs.ActiveSpan) []StationResult {
	tc := span.Context()
	agg := s.fanOutTree(span, pos, m, n, roster, canRouteAround, func(addr string) (treeAgg, error) {
		var reply PushReply
		if err := s.callWithRetry(addr, methodPush, body, &reply, tc); err != nil {
			return treeAgg{}, err
		}
		return treeAgg{Stations: reply.Results}, nil
	})
	return agg.Stations
}

// canRouteAround reports whether a failed tree call is safe to repair
// by grafting: the peer must have been unreachable at the transport
// level, and NOT by timeout — a timed-out peer may still be executing
// the call (and relaying to its own subtree), so re-delivering its
// work would duplicate it. Timed-out stations are left to the
// heartbeat prober, whose probes carry no side effects.
func canRouteAround(err error) bool {
	return transport.Unreachable(err) && !errors.Is(err, transport.ErrTimeout)
}

// callWithRetry is one store-and-forward delivery attempt cycle: an
// unreachable peer gets pushAttempts tries a short delay apart before
// the caller routes around it. Timed-out calls are never re-sent (the
// transport layer's own rule: the server may still be executing them).
// tc carries the operation's trace context to the peer.
func (s *Station) callWithRetry(addr, method string, req, reply any, tc obs.TraceContext) error {
	var err error
	for attempt := 0; attempt < pushAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(pushRetryDelay)
		}
		err = s.pool(addr).CallTrace(method, req, reply, tc, 0)
		if err == nil || !canRouteAround(err) {
			return err
		}
	}
	return err
}

// migrateFanOut is fanOut for end-of-lecture migrations: the same
// grafting, aggregating freed bytes beside the per-station results. A
// dead station's own copy cannot be reclaimed now; it is reported and
// reconciled when the station rejoins (its catch-up rebuilds the
// document as a reference).
func (s *Station) migrateFanOut(pos int, req MigrateRequest, span *obs.ActiveSpan) MigrateReply {
	tc := span.Context()
	agg := s.fanOutTree(span, pos, req.M, req.N, req.Roster, canRouteAround, func(addr string) (treeAgg, error) {
		var reply MigrateReply
		if err := s.callWithRetry(addr, methodMigrate, req, &reply, tc); err != nil {
			return treeAgg{}, err
		}
		return treeAgg{Stations: reply.Stations, Freed: reply.Freed}, nil
	})
	return MigrateReply{Freed: agg.Freed, Stations: agg.Stations}
}

// resolveViaAncestors walks the parent route for a missing document,
// skipping dead ancestors: the request goes to the nearest live
// ancestor (which relays further up itself), and only if every live
// candidate proves unreachable are the suspected ones tried as a last
// resort — they may have recovered since the last epoch reached this
// station. The answer lands in reply: a *ResolveReply for the station
// that wants the bundle, a *transport.Raw for one that only passes the
// answer down the route. span, when the resolve is traced, records
// skipped ancestors and carries the trace context up the route.
func (s *Station) resolveViaAncestors(url string, ttl int, span *obs.ActiveSpan, reply any) error {
	v := s.view()
	tc := span.Context()
	live, err := mtree.LiveAncestors(v.pos, v.m, v.dead)
	if err != nil {
		return err
	}
	skipped, err := mtree.LiveAncestors(v.pos, v.m, func(p int) bool { return !v.dead(p) })
	if err != nil {
		return err
	}
	var lastErr error
	for _, p := range append(live, skipped...) {
		addr := v.roster[p]
		if addr == "" {
			continue
		}
		err := s.pool(addr).CallTrace(methodResolve, ResolveRequest{URL: url, TTL: ttl}, reply, tc, 0)
		if err == nil {
			return nil
		}
		if !transport.Unreachable(err) {
			// A live ancestor answered with a definitive error (for
			// example: no instance anywhere on its own route).
			return err
		}
		span.Annotate("skipped unreachable ancestor %d", p)
		s.noteSuspect(p)
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("%w: %s", ErrNoInstance, url)
	}
	return fmt.Errorf("%w from station %d: %v", ErrNoRoute, v.pos, lastErr)
}

// CatchUp reconciles a (re)joined station with the broadcasts it
// missed: the root's catalog lists every tree-wide distribution; for
// each document the station lacks it installs the reference scaffold
// (metadata closure from the root), and for full broadcasts it
// re-pulls the bundle under the watermark policy — so a watermark-0
// fabric rematerializes immediately while a conservative one defers
// the bytes until students actually ask.
//
// A station missing only a document or two walks the catalog entry by
// entry (Refs RPC plus parent-route resolve). One that is far behind —
// catchUpStreamThreshold or more missed documents — pulls the root's
// state snapshot in a single chunked stream instead, so the cost of
// coming back is proportional to the state, not to the number of
// broadcasts that happened while it was dark.
func (s *Station) CatchUp() (*CatchUpResult, error) {
	v := s.view()
	if v.pos == 0 {
		return nil, ErrNotJoined
	}
	out := &CatchUpResult{}
	if v.isRoot {
		return out, nil // the root authored everything it broadcast
	}
	rootAddr := v.roster[1]
	if rootAddr == "" {
		return nil, fmt.Errorf("fabric: no root address in roster")
	}
	var cat CatalogReply
	//lint:ignore tracecall rejoin catch-up runs before the station serves traced traffic; it is its own root operation, not a hop in some caller's traversal
	if err := s.pool(rootAddr).Call(methodCatalog, struct{}{}, &cat); err != nil {
		return nil, fmt.Errorf("fabric: fetching catch-up catalog: %w", err)
	}
	// Sort the catalog into what this station already holds and what
	// it lacks entirely.
	var missing, refHeld []CatalogEntry
	for _, e := range cat.Entries {
		obj, err := s.store.ObjectByURL(e.URL)
		if err != nil {
			missing = append(missing, e)
			continue
		}
		if obj.Form != schema.FormReference {
			// Resident as an instance (or the class). If the tree
			// migrated this document while the station was dark, a
			// WAL-restored copy is the one straggler the migration
			// could not reach — reclaim it now, as EndLecture's dead
			// hop report promised.
			if e.RefOnly && obj.Form == schema.FormInstance && !obj.Persistent {
				s.importMu.Lock()
				merr := s.store.MigrateToReference(obj.ID, 1)
				s.importMu.Unlock()
				if merr != nil {
					return out, merr
				}
				s.mu.Lock()
				delete(s.fetches, e.URL)
				s.mu.Unlock()
				out.Migrated++
			}
			continue
		}
		// Holds the reference already; a full broadcast still owes a
		// re-pull.
		if !e.RefOnly {
			refHeld = append(refHeld, e)
		}
	}
	if len(missing) >= catchUpStreamThreshold {
		if err := s.catchUpStreamed(v, rootAddr, missing, out); err != nil {
			return out, err
		}
	} else {
		for _, e := range missing {
			var refs RefsReply
			//lint:ignore tracecall rejoin catch-up runs before the station serves traced traffic; it is its own root operation, not a hop in some caller's traversal
			if err := s.pool(rootAddr).Call(methodRefs, RefsRequest{URL: e.URL}, &refs); err != nil {
				return out, fmt.Errorf("fabric: pulling reference closure for %s: %w", e.URL, err)
			}
			s.importMu.Lock()
			_, ierr := s.store.ImportReference(refs.Bundle.Script, refs.Bundle.Impl, v.pos, 1)
			s.importMu.Unlock()
			if ierr != nil {
				return out, ierr
			}
			out.References++
			if !e.RefOnly {
				res, err := s.Resolve(e.URL)
				if err != nil {
					return out, err
				}
				out.Resolved = append(out.Resolved, res)
			}
		}
	}
	for _, e := range refHeld {
		res, err := s.Resolve(e.URL)
		if err != nil {
			return out, err
		}
		out.Resolved = append(out.Resolved, res)
	}
	return out, nil
}

// handleCatalog serves the root's broadcast history for catch-up.
func (s *Station) handleCatalog(decode func(any) error) (any, error) {
	var req struct{}
	if err := decode(&req); err != nil {
		return nil, err
	}
	if !s.isRoot {
		return nil, fmt.Errorf("%w: catalog", ErrNotRoot)
	}
	s.mu.Lock()
	entries := make([]CatalogEntry, len(s.catalog))
	copy(entries, s.catalog)
	s.mu.Unlock()
	return CatalogReply{Entries: entries}, nil
}

// handleRefs serves a document's metadata closure from the local
// store.
func (s *Station) handleRefs(decode func(any) error) (any, error) {
	var req RefsRequest
	if err := decode(&req); err != nil {
		return nil, err
	}
	impl, err := s.store.Implementation(req.URL)
	if err != nil {
		return nil, err
	}
	script, err := s.store.Script(impl.ScriptName)
	if err != nil {
		return nil, err
	}
	return RefsReply{Bundle: docdb.Bundle{Script: script, Impl: impl}}, nil
}
