package fabric

import (
	"fmt"

	"repro/internal/mtree"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/transport"
)

// Rejoin catch-up and the parent-route walk. (The downward repair —
// grafting a dead child's subtree onto the sender — lives with the
// fan-out in tree.go; resolveViaAncestors below is its dual.)

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
	// StreamedBytes is the transfer size of the root's state stream.
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
	live, err := mtree.LiveAncestors(v.pos, v.M, v.dead)
	if err != nil {
		return err
	}
	skipped, err := mtree.LiveAncestors(v.pos, v.M, func(p int) bool { return !v.dead(p) })
	if err != nil {
		return err
	}
	var lastErr error
	for _, p := range append(live, skipped...) {
		addr := v.Roster[p]
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
// missed. It fetches the root's catalog of every tree-wide
// distribution and sorts it against the local store: a resident
// instance of a document the tree migrated while the station was dark
// is reclaimed on the spot, and everything owed — documents the
// station lacks, and references a full broadcast still owes a re-pull
// — arrives in one state stream from the root (statesync.go). The
// stream installs the reference scaffolds and counts the re-pulls
// under the watermark policy, so a watermark-0 fabric rematerializes
// immediately while a conservative one defers the bytes until
// students actually ask.
func (s *Station) CatchUp() (*CatchUpResult, error) {
	v := s.view()
	if v.pos == 0 {
		return nil, ErrNotJoined
	}
	out := &CatchUpResult{}
	if v.isRoot {
		return out, nil // the root authored everything it broadcast
	}
	rootAddr := v.Roster[1]
	if rootAddr == "" {
		return nil, fmt.Errorf("fabric: no root address in roster")
	}
	var cat CatalogReply
	//lint:ignore tracecall rejoin catch-up runs before the station serves traced traffic; it is its own root operation, not a hop in some caller's traversal
	if err := s.pool(rootAddr).Call(methodCatalog, struct{}{}, &cat); err != nil {
		return nil, fmt.Errorf("fabric: fetching catch-up catalog: %w", err)
	}
	var owed []string
	for _, e := range cat.Entries {
		obj, err := s.store.ObjectByURL(e.URL)
		switch {
		case err != nil || (obj.Form == schema.FormReference && !e.RefOnly):
			owed = append(owed, e.URL)
		case e.RefOnly:
			// A WAL-restored instance is the one straggler a migration
			// could not reach — reclaim it now, as EndLecture's dead
			// hop report promised (migrateLocal leaves the class and
			// persistent instances alone).
			if r := s.migrateLocal(e.URL, v.pos); r != nil {
				if r.Err != "" {
					return out, fmt.Errorf("fabric: reclaiming %s: %s", e.URL, r.Err)
				}
				out.Migrated++
			}
		}
	}
	if len(owed) == 0 {
		return out, nil
	}
	return out, s.pullState(rootAddr, v.pos, owed, out)
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
