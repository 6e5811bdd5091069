package fabric

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/mtree"
	"repro/internal/obs"
	"repro/internal/transport"
)

// The tree-traversal kernel. Every operation that walks the m-ary
// distribution tree — Broadcast, Migrate, Search, Trace, Events — is a
// caller of one repairing fan-out (fanOutTree), and the three
// read-only collections are descriptors plugged into one scatter-gather
// (gather) on top of it: the one scatter/merge routine of the
// Distributed XML-Query Network, not one routine per query.
//
// Tree repair is the same rule mtree.LiveChildren expresses and the
// netsim simulator models: a hop that cannot reach a child gives it the
// store-and-forward retry, then grafts the dead child's children onto
// itself, so a dead interior station costs its own copy (or its own
// answer), never its subtree's. Resolve applies the dual rule on the
// way up (resolveViaAncestors).

// Topology is the epoch-numbered snapshot every tree RPC carries down
// the tree: the tree's shape and replication policy, the roster
// (position -> address) and the root's down-set. Stations converge on
// the newest view by folding it in on arrival (applyTopology), with no
// separate gossip channel.
type Topology struct {
	M         int
	N         int
	Watermark int
	Epoch     int
	Roster    map[int]string
	Down      map[int]bool
}

// enterTree is the preamble of every tree RPC handler: fold the
// carried topology in and report this station's position in it.
func (s *Station) enterTree(t Topology) (int, error) {
	s.mu.Lock()
	s.applyTopology(t)
	pos := s.pos
	s.mu.Unlock()
	if pos == 0 {
		return 0, ErrNotJoined
	}
	return pos, nil
}

// subtree is what one station's call returns for itself and everything
// below it: one result entry per station covered (Err set for dead
// hops) and the items the operation gathers — hits, spans, events;
// deliveries gather none.
type subtree[T any] struct {
	Stations []StationResult
	Items    []T
}

// hopCall makes one attempt at delivering a tree operation to one child
// address, within the timeout the kernel chose (0: the pool's default),
// and returns what that child answered for its whole subtree.
type hopCall[T any] func(addr string, timeout time.Duration) (subtree[T], error)

// readCallTimeout bounds one hop of an idempotent operation. A subtree
// that cannot answer within it is re-covered through the graft path,
// so a wedged interior station delays a gather by at most one timeout
// per tree level rather than stalling it forever.
const readCallTimeout = 15 * time.Second

// canRouteAround reports hard unreachability: the peer could not be
// reached at the transport level, and NOT by timeout. A timed-out peer
// may still be executing the call (and relaying to its own subtree);
// it is left to the heartbeat prober, whose probes carry no side
// effects.
func canRouteAround(err error) bool {
	return transport.Unreachable(err) && !errors.Is(err, transport.ErrTimeout)
}

// hopRules is the one place a tree operation's failure policy is
// chosen: which failed child calls are repaired by grafting, and how
// long a hop may take.
//
// A delivery (push, migrate) grafts only around hard unreachability
// and waits the pool's full timeout: a child that answered is alive
// (the operation just failed there), and one that timed out may still
// be installing and fanning out, so re-delivering its subtree's work
// would double it — the hop is reported instead. An idempotent read
// also grafts around a timeout, after a short one: re-covering a
// subtree at worst re-returns items the root deduplicates, while
// waiting out a wedged station holds a diagnostic query hostage.
func hopRules(idempotent bool) (routeAround func(error) bool, timeout time.Duration) {
	if idempotent {
		return transport.Unreachable, readCallTimeout
	}
	return canRouteAround, 0
}

// fanOutTree delivers one tree operation to every child of pos in
// parallel and collects their subtrees, routing around dead hops. Every
// failure mode lands as a per-station result entry, never as a call
// failure. span, when the operation is traced, collects graft
// annotations for this hop (nil is fine).
func fanOutTree[T any](s *Station, span *obs.ActiveSpan, pos int, topo Topology, idempotent bool, call hopCall[T]) subtree[T] {
	kids, err := mtree.Children(pos, topo.M, topo.N)
	if err != nil {
		return subtree[T]{Stations: []StationResult{{Pos: pos, Err: err.Error()}}}
	}
	var (
		mu  sync.Mutex
		all subtree[T]
		wg  sync.WaitGroup
	)
	for _, kid := range kids {
		kid := kid
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub := childSubtree(s, span, kid, topo, idempotent, call)
			mu.Lock()
			all.Stations = append(all.Stations, sub.Stations...)
			all.Items = append(all.Items, sub.Items...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all
}

// childSubtree covers one child's subtree for fanOutTree. A reachable
// child relays onward itself. A known-down child is skipped outright;
// an unreachable one gets pushAttempts tries a short delay apart — only
// for hard unreachability: a timed-out call is never re-sent, the
// server may still be executing it. Either way the dead hop is
// reported and its children are served directly by this station, a
// recursive fan-out from the dead position — annotated on the hop's
// span and journaled as a graft event so repairs show in traces and
// logs.
func childSubtree[T any](s *Station, span *obs.ActiveSpan, kid int, topo Topology, idempotent bool, call hopCall[T]) subtree[T] {
	s.mu.Lock()
	dead := s.down[kid] || s.suspect[kid]
	s.mu.Unlock()
	failure := "station down"
	switch addr := topo.Roster[kid]; {
	case dead: // known down: no delivery attempt, straight to the graft
	case addr == "":
		failure = "no address in roster"
	default:
		routeAround, timeout := hopRules(idempotent)
		var sub subtree[T]
		var err error
		for attempt := 0; attempt < pushAttempts; attempt++ {
			if attempt > 0 {
				time.Sleep(pushRetryDelay)
			}
			if sub, err = call(addr, timeout); err == nil || !canRouteAround(err) {
				break
			}
		}
		if err == nil {
			return sub
		}
		if !routeAround(err) {
			return subtree[T]{Stations: []StationResult{{Pos: kid, Err: err.Error()}}}
		}
		// Suspicion is recorded only for hard unreachability: a read may
		// graft around a merely slow station, but marking it suspect
		// would make the next broadcast skip delivering to it outright.
		if canRouteAround(err) {
			s.noteSuspect(kid)
		}
		failure = err.Error()
	}
	span.Annotate("grafted dead child %d: %s", kid, failure)
	if !dead {
		// Journal the discovery, not every traversal that recalls it:
		// routing around a child the roster already declares down is
		// policy, and journaling it would make each Events collection
		// around a dead station write into the ring it is reading.
		s.eventSpan(span, "graft", "station", s.Pos(), "child", kid, "cause", failure)
	}
	sub := fanOutTree(s, span, kid, topo, idempotent, call)
	sub.Stations = append([]StationResult{{Pos: kid, Err: failure}}, sub.Stations...)
	return sub
}

// gatherOp describes one read-only scatter-gather over the tree: what
// a station contributes, how a hop folds its children's items into its
// own, and how the root shapes the client's reply. Q is the query, T
// the item gathered, R the reply a client receives. Gathers are
// idempotent by construction — that is what lets the kernel graft
// around timeouts for every one of them.
type gatherOp[Q, T, R any] struct {
	method string
	// traced operations stitch every hop into the caller's trace.
	// Collections that read the observability rings (Trace, Events)
	// run untraced: reading the rings must not write into them, and a
	// poller (webdocctl events -follow) would drown them.
	traced bool
	// vacuous, when set, spots a query that matches nothing anywhere;
	// it is answered on the spot instead of costing one RPC per station.
	vacuous func(q Q) bool
	// local is this station's own contribution.
	local func(s *Station, q Q, pos int) []T
	// merge folds the subtree's items into the local ones before the
	// reply travels up — per hop, so a bounded merge keeps every
	// transfer bounded no matter how large the subtree.
	merge func(q Q, local, below []T) []T
	// finish builds the client reply at the root. Stations arrive in
	// position order; a graft may have covered a subtree twice, so a
	// merge that does not deduplicate leaves that to finish.
	finish func(q Q, trace uint64, all subtree[T]) R
}

// gatherRequest is the wire request of a gather. A client entry (from
// webdocctl, the Web UI or a Station method) leaves Scatter false: the
// receiving station forwards it to the root, which stamps the topology
// and scatters. Scatter hops carry the topology like every tree RPC.
type gatherRequest[Q any] struct {
	Query   Q
	Scatter bool
	Topology
}

// gather answers a client entry at this station: the root scatters the
// query down the tree, any other station forwards it to the root (one
// hop — every roster carries the root's address) and hands the root's
// reply back. The whole fabric is covered in O(depth) round trips.
// span is the caller's hop for a traced operation, nil otherwise.
func gather[Q, T, R any](s *Station, op *gatherOp[Q, T, R], q Q, span *obs.ActiveSpan) (R, error) {
	var reply R
	v := s.view()
	if v.pos == 0 {
		return reply, ErrNotJoined
	}
	trace := span.Context().TraceID
	if op.vacuous != nil && op.vacuous(q) {
		return op.finish(q, trace, subtree[T]{}), nil
	}
	req := gatherRequest[Q]{Query: q}
	if !v.isRoot {
		rootAddr := v.Roster[1]
		if rootAddr == "" {
			return reply, fmt.Errorf("fabric: no root address in roster")
		}
		if err := s.pool(rootAddr).CallTrace(op.method, req, &reply, span.Context(), 0); err != nil {
			return reply, fmt.Errorf("fabric: forwarding %s to root: %w", op.method, err)
		}
		return reply, nil
	}
	req.Scatter, req.Topology = true, v.Topology
	all := gatherSubtree(s, op, v.pos, req, span)
	sortResults(all.Stations)
	return op.finish(q, trace, all), nil
}

// gatherSubtree answers for one station and everything below it: the
// local contribution, the children covered through the repairing
// fan-out, and one merge before the reply travels up.
func gatherSubtree[Q, T, R any](s *Station, op *gatherOp[Q, T, R], pos int, req gatherRequest[Q], span *obs.ActiveSpan) subtree[T] {
	local := op.local(s, req.Query, pos)
	below := fanOutTree(s, span, pos, req.Topology, true, func(addr string, timeout time.Duration) (subtree[T], error) {
		var reply subtree[T]
		err := s.pool(addr).CallTrace(op.method, req, &reply, span.Context(), timeout)
		return reply, err
	})
	return subtree[T]{
		Stations: append([]StationResult{{Pos: pos}}, below.Stations...),
		Items:    op.merge(req.Query, local, below.Items),
	}
}

// gatherHandler serves both roles of a gather RPC: a client entry runs
// gather's protocol, a scatter hop folds the carried topology in and
// answers for its subtree. For a traced operation the hop's span
// travels onward, so one TraceID covers the entry hop, the root and
// every scatter hop.
func gatherHandler[Q, T, R any](s *Station, op *gatherOp[Q, T, R]) transport.CtxHandler {
	return func(ctx *transport.Ctx, decode func(any) error) (any, error) {
		var req gatherRequest[Q]
		if err := decode(&req); err != nil {
			return nil, err
		}
		span := ctx.Span()
		if !op.traced {
			span = nil
		}
		if !req.Scatter {
			return gather(s, op, req.Query, span)
		}
		pos, err := s.enterTree(req.Topology)
		if err != nil {
			return nil, err
		}
		return gatherSubtree(s, op, pos, req, span), nil
	}
}

// concat is the merge of a gather whose items are not ranked: the
// subtree's follow the station's own.
func concat[Q, T any](_ Q, local, below []T) []T { return append(local, below...) }

// dedupe drops items whose key repeats, keeping the first: a grafted
// or retried hop may cover a subtree twice, and what it re-reads is
// identical.
func dedupe[T any, K comparable](items []T, key func(T) K) []T {
	seen := make(map[K]bool, len(items))
	out := items[:0]
	for _, it := range items {
		if k := key(it); !seen[k] {
			seen[k] = true
			out = append(out, it)
		}
	}
	return out
}
