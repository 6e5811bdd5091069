// Package fabric is the live distribution subsystem of the paper's
// section 4: N webdocd stations joined in linear order form a full
// m-ary distribution tree over real TCP sockets and move real document
// bundles along its edges. It is the deployed counterpart of the
// internal/cluster discrete-event simulation — the same placement
// arithmetic (internal/mtree), the same bundle closure
// (docdb.Bundle/ImportBundle) and the same watermark policy, but with
// live peers instead of simulated time.
//
// The subsystem has four moving parts:
//
//   - a join/topology protocol: a station contacts the root with its
//     listen address, is assigned the next linear position, and learns
//     the tree degree, the watermark frequency and the roster
//     (position -> address) from which it derives its parent route;
//   - Broadcast: the instructor station (the root) encodes a course's
//     bundle once and pushes it down the tree hop by hop; each station
//     forwards the bytes it received to its children in parallel and
//     imports its own copy while they are in flight, replying when
//     both are done. A reference-only broadcast carries just the
//     metadata closure and installs document references instead of
//     instances;
//   - Resolve: a station missing a document walks its parent route —
//     each ancestor either serves the bundle from a local instance or
//     relays the request to its own parent and the reply body back
//     down, untouched. Crossing the watermark frequency materializes a
//     local instance (copies the BLOBs);
//   - Migrate: after the lecture window, every non-persistent instance
//     in the tree migrates back to a document reference, reclaiming
//     the buffer space.
//
// Stations keep serving the base station RPCs (Ping, Bundle, Import,
// SQL) — the fabric methods ride on the same cluster.Node server.
//
// # Failure handling
//
// A deployed fabric loses stations mid-semester, so every layer routes
// around them with the same grafting arithmetic the netsim simulator
// models (internal/mtree's live-tree helpers):
//
//   - Failure detection: the root heartbeats every joined station
//     (StartHeartbeat); a station that misses consecutive probes — or
//     whose cluster.Node liveness check reports unhealthy — is marked
//     down. Each probe is one call on a fresh connection, closed
//     afterwards, and ends within the heartbeat timeout, dial
//     included, so a host that stopped answering costs a sweep one
//     timeout. Rosters are epoch-numbered: the root bumps the epoch on
//     every membership or liveness change and pushes the roster plus
//     its down-set on every tree RPC, so stations converge on the
//     newest view without a separate gossip channel. Relays that fail
//     to reach a peer mid-operation report it to the root
//     (Fabric.ReportDown), which confirms with one probe of the same
//     kind before declaring it dead; operators can force the matter
//     with webdocctl evict.
//
//   - Tree repair: a broadcast or migration reaching a dead child
//     retries once, then grafts the dead station's children onto the
//     sender — the subtree is served directly (for a push, with the
//     same body bytes), and the dead hop is reported per station in
//     the result instead of stalling the fan-out.
//
//   - Resolve: the parent route skips dead ancestors — the request
//     goes to the nearest live ancestor (falling back to suspected
//     ones as a last resort), so one dead interior station cannot cut
//     its descendants off from the instructor's copy.
//
//   - Rejoin: a restarted webdocd re-contacts the root (Rejoin) and is
//     re-assigned its old position — or a fresh one — then catches up
//     (CatchUp): the root's broadcast catalog tells it what it
//     missed, and everything owed arrives in one chunked transport
//     stream of the root's state (see statesync.go) — reference
//     scaffolds, plus the instances the watermark policy materializes
//     — so catching up costs O(state), not O(missed broadcasts).
package fabric

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/docdb"
	"repro/internal/obs"
	"repro/internal/transport"
)

// Fabric errors.
var (
	ErrNotRoot    = errors.New("fabric: operation requires the root station")
	ErrNotJoined  = errors.New("fabric: station has not joined a fabric")
	ErrNoInstance = errors.New("fabric: no station on the parent route holds an instance")
	ErrBadDegree  = errors.New("fabric: tree degree must be >= 1")
	ErrRouteLoop  = errors.New("fabric: resolve exceeded the route length")
	ErrNoRoute    = errors.New("fabric: no live ancestor reachable")
)

// Tuning knobs for the per-peer connection pools, the join handshake
// and the failure-handling machinery.
const (
	peerPoolSize = 4
	callTimeout  = 2 * time.Minute
	joinAttempts = 20
	joinBackoff  = 150 * time.Millisecond

	// pushAttempts and pushRetryDelay are the store-and-forward retry
	// a relay gives an unreachable child before grafting its subtree.
	pushAttempts   = 2
	pushRetryDelay = 25 * time.Millisecond

	// hbFailThreshold consecutive failed probes declare a station
	// dead; DefaultHeartbeatInterval/Timeout are the daemon defaults.
	hbFailThreshold          = 2
	DefaultHeartbeatInterval = 2 * time.Second
	DefaultHeartbeatTimeout  = 1500 * time.Millisecond
)

// RPC method names. They live beside the base station methods on the
// same transport server.
const (
	methodJoin       = "Fabric.Join"
	methodTopology   = "Fabric.Topology"
	methodPush       = "Fabric.Push"
	methodResolve    = "Fabric.Resolve"
	methodMigrate    = "Fabric.Migrate"
	methodBroadcast  = "Fabric.Broadcast"
	methodFetch      = "Fabric.Fetch"
	methodEndLecture = "Fabric.EndLecture"
	methodHeartbeat  = "Fabric.Heartbeat"
	methodHealth     = "Fabric.Health"
	methodEvict      = "Fabric.Evict"
	methodReportDown = "Fabric.ReportDown"
	methodCatalog    = "Fabric.Catalog"
	methodState      = "Fabric.State"
	methodSearch     = "Fabric.Search"
	methodTrace      = "Fabric.Trace"
	methodEvents     = "Fabric.Events"
)

// JoinRequest announces a new station's listen address to the root.
// A rejoining station sets Rejoin and its previous position so the
// root can graft it back into the tree where it used to sit.
type JoinRequest struct {
	Addr   string
	OldPos int
	Rejoin bool
}

// JoinReply assigns the joiner its linear position and hands it the
// policy and the epoch-numbered roster it derives its parent route
// from.
type JoinReply struct {
	Pos int
	Topology
}

// TopologyReply describes a station's view of the fabric.
type TopologyReply struct {
	Pos    int
	IsRoot bool
	Topology
}

// Station is one live fabric member: a cluster.Node (the base station
// RPC service) plus the distribution state — position, roster, fetch
// counters and the connection pools to its peers.
type Station struct {
	node   *cluster.Node
	store  *docdb.Store
	isRoot bool
	addr   string

	mu        sync.Mutex
	closed    bool
	pos       int
	m         int
	n         int
	watermark int
	epoch     int
	roster    map[int]string
	down      map[int]bool // root-declared failures (epoch-stamped)
	suspect   map[int]bool // locally observed failures, pending root confirmation
	fetches   map[string]int
	pools     map[string]*transport.Pool
	catalog   []CatalogEntry // root only: every broadcast, for rejoin catch-up

	// heartbeat state (root only).
	hbStop  chan struct{}
	hbFails map[int]int

	// importMu serializes the operations that change or read a whole
	// document on this station — installs, end-of-lecture migrations
	// and the export that serves a resolve: a broadcast push racing an
	// on-demand materialization of the same URL would otherwise both
	// pass ImportBundle's residency check and collide on the file rows,
	// and an export racing a migration would ship a half-dropped bundle.
	importMu sync.Mutex

	// evSink, when set, receives structured one-line records for the
	// otherwise-silent fault paths (suspicion, confirmation, grafts,
	// rejoin grants). Quiet by default.
	evSink atomic.Value // obs.EventSink
}

// SetEventSink installs a consumer for the station's fault-path event
// lines (webdocd's -log-events wires it to the process log). Safe to
// call while serving; nil-tolerant call sites stay silent without one.
func (s *Station) SetEventSink(sink obs.EventSink) {
	s.evSink.Store(sink)
}

// event emits one structured fault-path record, outside any traced
// scope: it lands in the station's event journal (queryable over the
// Events RPC) and, when a sink is attached, on the log tail.
func (s *Station) event(name string, kv ...any) {
	s.eventTrace(0, name, kv...)
}

// eventSpan emits a record correlated to the span's trace, so the
// event shows up both in the fabric timeline and beside the trace's
// hop tree. A nil span degrades to an uncorrelated event.
func (s *Station) eventSpan(span *obs.ActiveSpan, name string, kv ...any) {
	s.eventTrace(span.Context().TraceID, name, kv...)
}

// eventTrace builds the structured event, stamps the trace ID, admits
// it to the journal (always on when the node has an observer), and
// renders the legacy one-line form for the sink if one is attached.
func (s *Station) eventTrace(trace uint64, name string, kv ...any) {
	e := obs.NewEvent(name, kv...)
	e.TraceID = trace
	e = s.observer().Emit(e)
	if sink, _ := s.evSink.Load().(obs.EventSink); sink != nil {
		sink(e.Line())
	}
}

// observer returns the station's observability state (nil-safe to use
// when the node runs with observability disabled).
func (s *Station) observer() *obs.Observer { return s.node.Observer() }

func newStation(store *docdb.Store, isRoot bool, m, watermark int) *Station {
	s := &Station{
		store:     store,
		isRoot:    isRoot,
		m:         m,
		watermark: watermark,
		roster:    make(map[int]string),
		down:      make(map[int]bool),
		suspect:   make(map[int]bool),
		fetches:   make(map[string]int),
		pools:     make(map[string]*transport.Pool),
		hbFails:   make(map[int]int),
	}
	s.node = cluster.NewNode(0, store)
	s.node.Handle(methodJoin, s.handleJoin)
	s.node.Handle(methodTopology, s.handleTopology)
	// Tree operations register trace-aware: the transport opens a span
	// per traced request and the handler threads its context down the
	// tree, so one TraceID stitches a whole traversal.
	s.node.HandleCtx(methodPush, s.handlePush)
	s.node.HandleCtx(methodResolve, s.handleResolve)
	s.node.HandleCtx(methodMigrate, s.handleMigrate)
	s.node.HandleCtx(methodBroadcast, s.handleBroadcast)
	s.node.HandleCtx(methodFetch, s.handleFetch)
	s.node.HandleCtx(methodEndLecture, s.handleEndLecture)
	s.node.Handle(methodHeartbeat, s.handleHeartbeat)
	s.node.Handle(methodHealth, s.handleHealth)
	s.node.Handle(methodEvict, s.handleEvict)
	s.node.Handle(methodReportDown, s.handleReportDown)
	s.node.Handle(methodCatalog, s.handleCatalog)
	s.node.Handle(methodState, s.handleState)
	// The three gathers are one handler with three descriptors (tree.go).
	s.node.HandleCtx(methodSearch, gatherHandler(s, searchOp))
	s.node.HandleCtx(methodTrace, gatherHandler(s, traceOp))
	s.node.HandleCtx(methodEvents, gatherHandler(s, eventsOp))
	return s
}

// NewRoot starts the instructor station: position 1, the root of the
// m-ary distribution tree, and the authority for join requests. A
// negative watermark means on-demand pulls never replicate.
func NewRoot(store *docdb.Store, addr string, m, watermark int) (*Station, error) {
	if m < 1 {
		return nil, fmt.Errorf("%w: %d", ErrBadDegree, m)
	}
	s := newStation(store, true, m, watermark)
	// The root's own position is fixed before the socket opens; until
	// its bound address lands in the roster, handleJoin turns joiners
	// away with a retryable not-ready error.
	s.mu.Lock()
	s.pos = 1
	s.n = 1
	s.epoch = 1
	s.mu.Unlock()
	s.node.SetPos(1)
	bound, err := s.node.Start(addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.addr = bound
	s.roster[1] = bound
	s.mu.Unlock()
	return s, nil
}

// Join starts a station and registers it with the fabric root at
// rootAddr: the station begins serving on addr first (so the root can
// reach it), then asks the root for its linear position, the degree,
// the watermark policy and the roster. The handshake retries with
// backoff, so joiners may start concurrently with (or slightly before)
// their root.
func Join(store *docdb.Store, addr, rootAddr string) (*Station, error) {
	return join(store, addr, rootAddr, 0)
}

// Rejoin is Join for a restarted station: it asks the root for its
// previous position back. The root grants it when that position is
// marked down — or, for a restart that beat the failure detector, when
// a confirmation probe of the position's old address fails — and
// assigns a fresh position otherwise. The caller follows up with
// CatchUp to pull whatever was broadcast while the station was dark.
func Rejoin(store *docdb.Store, addr, rootAddr string, oldPos int) (*Station, error) {
	return join(store, addr, rootAddr, oldPos)
}

func join(store *docdb.Store, addr, rootAddr string, oldPos int) (*Station, error) {
	s := newStation(store, false, 0, 0)
	bound, err := s.node.Start(addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.addr = bound
	s.mu.Unlock()
	req := JoinRequest{Addr: bound, OldPos: oldPos, Rejoin: oldPos > 0}
	var reply JoinReply
	for attempt := 0; ; attempt++ {
		err = s.pool(rootAddr).Call(methodJoin, req, &reply)
		if err == nil {
			break
		}
		if attempt+1 >= joinAttempts {
			s.Close()
			return nil, fmt.Errorf("fabric: joining via %s: %w", rootAddr, err)
		}
		time.Sleep(joinBackoff)
	}
	s.mu.Lock()
	s.applyTopology(reply.Topology)
	s.mu.Unlock()
	return s, nil
}

// Addr returns the station's bound listen address.
func (s *Station) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addr
}

// Pos returns the station's linear position (0 before a join
// completes).
func (s *Station) Pos() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pos
}

// Store exposes the station's document database.
func (s *Station) Store() *docdb.Store { return s.store }

// Node exposes the underlying base station service.
func (s *Station) Node() *cluster.Node { return s.node }

// Close stops serving, halts the heartbeat loop and releases every
// peer connection.
func (s *Station) Close() error {
	s.StopHeartbeat()
	err := s.node.Close()
	s.mu.Lock()
	s.closed = true
	pools := s.pools
	s.pools = make(map[string]*transport.Pool)
	s.mu.Unlock()
	for _, p := range pools {
		p.Close()
	}
	return err
}

// pool returns the connection pool for a peer address, creating it
// lazily. After Close it hands out an already-closed pool, so an
// in-flight handler's late fan-out fails fast with ErrClosed instead
// of leaking an untracked pool.
func (s *Station) pool(addr string) *transport.Pool {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pools[addr]
	if !ok {
		p = transport.NewPool(addr, peerPoolSize, callTimeout)
		if s.closed {
			p.Close()
			return p
		}
		s.pools[addr] = p
	}
	return p
}

// pruneStalePoolsLocked drops the pools of addresses that left the
// roster (mu held). Rejoins put restarted stations on fresh sockets,
// so without pruning a long-lived fabric leaks one pool per crash.
// The closes run off-thread: a pool close touches sockets, and the
// caller holds the station lock.
func (s *Station) pruneStalePoolsLocked() {
	live := make(map[string]bool, len(s.roster))
	for _, addr := range s.roster {
		live[addr] = true
	}
	var stale []*transport.Pool
	for addr, p := range s.pools {
		if !live[addr] {
			stale = append(stale, p)
			delete(s.pools, addr)
		}
	}
	if len(stale) > 0 {
		go func() {
			for _, p := range stale {
				p.Close()
			}
		}()
	}
}

// applyTopology folds a roster snapshot and the root's policy into the
// station's state (mu held). Snapshots originate at the root and are
// epoch-numbered — the root bumps the epoch on every membership or
// liveness change, so a higher epoch always wins and stale snapshots
// riding on slow RPCs are ignored. The station derives its own
// position by finding its address, which also covers the race where a
// broadcast reaches a joiner before its JoinReply does — carrying the
// watermark here means that station also runs the configured
// replication policy, not the zero value. Applying a snapshot also
// clears local suspicions — the root has spoken: a same-epoch snapshot
// means the root refuted (or never heard) the suspicion, a newer one
// supersedes it either way — so a transiently unreachable peer is
// retried on the next tree operation instead of being shunned forever.
func (s *Station) applyTopology(t Topology) {
	if t.Epoch < s.epoch || len(t.Roster) == 0 {
		return
	}
	if t.Epoch == s.epoch {
		s.suspect = make(map[int]bool)
		return
	}
	s.m = t.M
	s.n = t.N
	s.watermark = t.Watermark
	s.epoch = t.Epoch
	s.roster = make(map[int]string, len(t.Roster))
	for pos, addr := range t.Roster {
		s.roster[pos] = addr
	}
	s.down = make(map[int]bool, len(t.Down))
	for pos := range t.Down {
		s.down[pos] = true
	}
	s.suspect = make(map[int]bool)
	for pos, addr := range t.Roster {
		if addr == s.addr {
			s.pos = pos
			s.node.SetPos(pos)
			break
		}
	}
	s.pruneStalePoolsLocked()
}

// view is a consistent copy of the station's topology state for use
// outside the lock.
type view struct {
	Topology
	pos     int
	isRoot  bool
	addr    string
	suspect map[int]bool
}

// dead reports whether a position is either root-declared down or
// locally suspected.
func (v view) dead(pos int) bool { return v.Down[pos] || v.suspect[pos] }

func (s *Station) view() view {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := view{
		Topology: s.topologyLocked(),
		pos:      s.pos,
		isRoot:   s.isRoot,
		addr:     s.addr,
		suspect:  make(map[int]bool, len(s.suspect)),
	}
	for p := range s.suspect {
		v.suspect[p] = true
	}
	return v
}

// topologyLocked copies the station's topology state into the snapshot
// a tree RPC or a join reply carries (mu held).
func (s *Station) topologyLocked() Topology {
	t := Topology{
		M: s.m, N: s.n, Watermark: s.watermark, Epoch: s.epoch,
		Roster: make(map[int]string, len(s.roster)),
		Down:   make(map[int]bool, len(s.down)),
	}
	for p, a := range s.roster {
		t.Roster[p] = a
	}
	for p := range s.down {
		t.Down[p] = true
	}
	return t
}

// handleJoin assigns the next linear position. Only the root holds the
// authoritative roster. Joining is idempotent per address: a joiner
// whose reply was lost retries and gets its original position back
// instead of a duplicate roster entry. A rejoin request takes its old
// position back (with the new address) when that position is marked
// down — or, if the failure detector has not caught up with the crash
// yet, when a confirmation probe of the old address fails; anything
// else falls through to a fresh assignment.
func (s *Station) handleJoin(decode func(any) error) (any, error) {
	var req JoinRequest
	if err := decode(&req); err != nil {
		return nil, err
	}
	if !s.isRoot {
		return nil, fmt.Errorf("%w: join", ErrNotRoot)
	}
	if req.Addr == "" {
		return nil, errors.New("fabric: join without a listen address")
	}
	// A supervisor restart can beat the failure detector to the punch:
	// the rejoiner asks for a position the root still believes is
	// alive. Confirm with a probe (outside the lock) before handing
	// the position over.
	takeoverAddr := ""
	if req.Rejoin && req.OldPos >= 2 {
		s.mu.Lock()
		oldAddr, held := s.roster[req.OldPos]
		down := s.down[req.OldPos]
		s.mu.Unlock()
		if held && oldAddr != req.Addr && (down || s.probe(req.OldPos, oldAddr, DefaultHeartbeatTimeout) != nil) {
			takeoverAddr = oldAddr
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.roster[1] == "" {
		return nil, errors.New("fabric: root is still starting, retry")
	}
	pos := 0
	for p, a := range s.roster {
		if a == req.Addr {
			pos = p
			break
		}
	}
	changed := false
	// The probed address must still hold the position: a concurrent
	// rejoiner may have claimed it while the lock was released.
	if pos == 0 && takeoverAddr != "" && s.roster[req.OldPos] == takeoverAddr {
		pos = req.OldPos
		s.roster[pos] = req.Addr
		changed = true
		s.event("rejoin-grant", "pos", pos, "addr", req.Addr, "old-addr", takeoverAddr)
	}
	if pos == 0 {
		s.n++
		pos = s.n
		s.roster[pos] = req.Addr
		changed = true
	}
	if s.down[pos] || s.suspect[pos] {
		delete(s.down, pos)
		delete(s.suspect, pos)
		s.hbFails[pos] = 0
		changed = true
		if req.Rejoin {
			s.event("rejoin-grant", "pos", pos, "addr", req.Addr)
		}
	}
	if changed {
		s.epoch++
		s.pruneStalePoolsLocked()
	}
	return JoinReply{Pos: pos, Topology: s.topologyLocked()}, nil
}

// handleTopology reports the station's current view of the fabric.
func (s *Station) handleTopology(decode func(any) error) (any, error) {
	var req struct{}
	if err := decode(&req); err != nil {
		return nil, err
	}
	v := s.view()
	return TopologyReply{Pos: v.pos, IsRoot: v.isRoot, Topology: v.Topology}, nil
}

// sortResults orders per-station results by linear position, then by
// document URL so batched broadcasts report deterministically.
func sortResults(rs []StationResult) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Pos != rs[j].Pos {
			return rs[i].Pos < rs[j].Pos
		}
		return rs[i].URL < rs[j].URL
	})
}
