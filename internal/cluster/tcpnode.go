package cluster

import (
	"fmt"
	"sync/atomic"

	"repro/internal/docdb"
	"repro/internal/minisql"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/transport"
)

// Node exposes one station's document database over TCP — the deployed
// (non-simulated) form of a station, served by every fabric.Station (so
// by every webdocd daemon) and by the multi-node integration tests. The
// same docdb semantics run under both fabrics; netsim measures time,
// Node moves real bytes.
type Node struct {
	pos   atomic.Int64
	Store *docdb.Store
	srv   *transport.Server
	sql   *minisql.Session
	check atomic.Value // func() error, see SetLivenessCheck
}

// PingReply describes a station to administrative clients.
type PingReply struct {
	Pos     int
	Tables  []string
	Objects int64
}

// BundleRequest asks for a document's transferable closure.
type BundleRequest struct {
	URL string
}

// ImportRequest installs a bundle on the receiving station.
type ImportRequest struct {
	Bundle     docdb.Bundle
	Persistent bool
}

// ImportReply reports the resulting document object.
type ImportReply struct {
	ObjectID string
	Form     string
}

// SQLRequest carries one minisql statement.
type SQLRequest struct {
	Stmt string
}

// SearchLocalRequest queries one station's content index.
type SearchLocalRequest struct {
	Terms  []string
	Phrase bool
	TopK   int
}

// SearchLocalReply carries the station's ranked hits.
type SearchLocalReply struct {
	Hits []search.Hit
}

// CheckOutRequest opens a checkout of a course component on the
// station's configuration-management ledger.
type CheckOutRequest struct {
	Kind     string
	ObjectID string
	User     string
}

// CheckOutReply carries the checkout id CheckIn closes.
type CheckOutReply struct {
	CheckoutID string
}

// CheckInRequest closes a checkout, recording a new component version.
type CheckInRequest struct {
	CheckoutID string
	Comment    string
}

// CheckpointReply reports a checkpoint generation the station wrote on
// request.
type CheckpointReply struct {
	Gen      uint64
	Seq      uint64
	Bytes    int64
	Snapshot string
}

// SQLReply carries a rendered result set (values are formatted, so the
// reply has one wire shape regardless of column types).
type SQLReply struct {
	Columns  []string
	Rows     [][]string
	Affected int
	Msg      string
}

// NewNode wraps a station store in an RPC service. Every node carries
// an observer from birth: per-method latency histograms plus the span
// ring that the fabric's Trace RPC collects from.
func NewNode(pos int, store *docdb.Store) *Node {
	n := &Node{Store: store, sql: minisql.NewSession(store.Rel())}
	n.pos.Store(int64(pos))
	n.srv = transport.NewServer()
	o := obs.NewObserver(0)
	o.SetPos(pos)
	n.srv.SetObserver(o)
	n.srv.Handle("Ping", n.handlePing)
	n.srv.Handle("Bundle", n.handleBundle)
	n.srv.Handle("Import", n.handleImport)
	n.srv.Handle("SQL", n.handleSQL)
	n.srv.Handle("Checkpoint", n.handleCheckpoint)
	n.srv.Handle("SearchLocal", n.handleSearchLocal)
	n.srv.Handle("Stats", n.handleStats)
	n.srv.Handle("CheckOut", n.handleCheckOut)
	n.srv.Handle("CheckIn", n.handleCheckIn)
	return n
}

// Pos returns the station's linear position in the joining order.
func (n *Node) Pos() int { return int(n.pos.Load()) }

// SetPos records the linear position once it is known. A station that
// joins a live distribution fabric learns its position from the root
// after its RPC service is already up, so the field must be safe to
// set while handlers run. The observer follows, so spans recorded
// after a join/rejoin carry the settled position.
func (n *Node) SetPos(pos int) {
	n.pos.Store(int64(pos))
	n.srv.Observer().SetPos(pos)
}

// Observer returns the node's observability state (nil when disabled
// via SetObserver(nil) — every obs method tolerates that).
func (n *Node) Observer() *obs.Observer { return n.srv.Observer() }

// SetObserver replaces (or with nil disables) the node's observer —
// the switch the tracing-overhead benchmark flips.
func (n *Node) SetObserver(o *obs.Observer) {
	o.SetPos(n.Pos())
	n.srv.SetObserver(o)
}

// Handle registers an additional RPC method on the node's server —
// the extension point the distribution fabric uses to add its
// join/broadcast/resolve protocol beside the base station methods.
// Like transport.Server.Handle it must be called before Start.
func (n *Node) Handle(method string, h transport.Handler) { n.srv.Handle(method, h) }

// HandleCtx registers a trace-aware RPC method (see
// transport.CtxHandler) — used by fabric methods that propagate trace
// context further down the tree.
func (n *Node) HandleCtx(method string, h transport.CtxHandler) { n.srv.HandleCtx(method, h) }

// SetLivenessCheck installs a health predicate consulted by liveness
// probes — the fabric's heartbeat handler reports the check's error to
// the root, which treats an unhealthy station like an unreachable one
// (its subtree is grafted onto live ancestors until the check clears).
// A nil check (the default) means the station is healthy whenever it
// answers at all. Safe to call while the node is serving.
func (n *Node) SetLivenessCheck(check func() error) {
	n.check.Store(&check)
}

// LivenessCheck runs the installed health predicate, reporting nil
// when none is installed.
func (n *Node) LivenessCheck() error {
	p, _ := n.check.Load().(*func() error)
	if p == nil || *p == nil {
		return nil
	}
	return (*p)()
}

// Start begins serving on the address and returns the bound address.
func (n *Node) Start(addr string) (string, error) {
	return n.srv.Listen(addr)
}

// Close stops the service.
func (n *Node) Close() error { return n.srv.Close() }

func (n *Node) handlePing(decode func(any) error) (any, error) {
	var req struct{}
	if err := decode(&req); err != nil {
		return nil, err
	}
	var objects int64
	if count, err := n.Store.Rel().Count("doc_objects"); err == nil {
		objects = int64(count)
	}
	return PingReply{Pos: n.Pos(), Tables: n.Store.Rel().Tables(), Objects: objects}, nil
}

func (n *Node) handleBundle(decode func(any) error) (any, error) {
	var req BundleRequest
	if err := decode(&req); err != nil {
		return nil, err
	}
	b, err := n.Store.ExportBundle(req.URL)
	if err != nil {
		return nil, err
	}
	return *b, nil
}

// handleImport installs a bundle a client sent. This is where media
// enter the fabric, so each one is hashed here and a medium whose
// bytes do not match the hash it carries is refused
// (blob.ErrHashMismatch) before ImportBundle adopts anything under it.
func (n *Node) handleImport(decode func(any) error) (any, error) {
	var req ImportRequest
	if err := decode(&req); err != nil {
		return nil, err
	}
	for _, m := range req.Bundle.Media {
		if err := n.Store.Blobs().Verify(m.Hash, m.Data); err != nil {
			return nil, fmt.Errorf("cluster: medium %q of %s: %w", m.Name, req.Bundle.Impl.StartingURL, err)
		}
	}
	obj, err := n.Store.ImportBundle(&req.Bundle, n.Pos(), req.Persistent)
	if err != nil {
		return nil, err
	}
	return ImportReply{ObjectID: obj.ID, Form: obj.Form}, nil
}

// handleCheckpoint writes a checkpoint generation on operator request
// (the webdocctl checkpoint verb). Stations running without a
// durability directory answer with an error.
func (n *Node) handleCheckpoint(decode func(any) error) (any, error) {
	var req struct{}
	if err := decode(&req); err != nil {
		return nil, err
	}
	info, err := n.Store.CheckpointNow()
	if err != nil {
		return nil, err
	}
	return CheckpointReply{Gen: info.Gen, Seq: info.Seq, Bytes: info.Bytes, Snapshot: info.Snapshot}, nil
}

// handleSearchLocal answers a full-text query from this station's
// content index alone — the base-station extension point the
// distribution fabric's scatter-gather search builds on, also useful
// for administrative "what does THIS station hold" queries. The index
// arrives through docdb's ContentIndex attachment (search.Attach); a
// station running without one answers with an error.
func (n *Node) handleSearchLocal(decode func(any) error) (any, error) {
	var req SearchLocalRequest
	if err := decode(&req); err != nil {
		return nil, err
	}
	ix, ok := n.Store.ContentIndex().(search.Searcher)
	if !ok {
		return nil, fmt.Errorf("cluster: station %d has no content index attached", n.Pos())
	}
	hits := ix.Search(search.Query{Terms: req.Terms, Phrase: req.Phrase, TopK: req.TopK})
	for i := range hits {
		hits[i].Station = n.Pos()
	}
	return SearchLocalReply{Hits: hits}, nil
}

// handleCheckOut opens a checkout on the station's ledger — the wire
// form of docdb.CheckOut, so remote class administrators (and the
// load harness's editing traffic) contend on the same transactional
// single-winner semantics as local callers.
func (n *Node) handleCheckOut(decode func(any) error) (any, error) {
	var req CheckOutRequest
	if err := decode(&req); err != nil {
		return nil, err
	}
	id, err := n.Store.CheckOut(req.Kind, req.ObjectID, req.User)
	if err != nil {
		return nil, err
	}
	return CheckOutReply{CheckoutID: id}, nil
}

// handleCheckIn closes a checkout, bumping the component version.
func (n *Node) handleCheckIn(decode func(any) error) (any, error) {
	var req CheckInRequest
	if err := decode(&req); err != nil {
		return nil, err
	}
	if err := n.Store.CheckIn(req.CheckoutID, req.Comment); err != nil {
		return nil, err
	}
	return struct{}{}, nil
}

func (n *Node) handleSQL(decode func(any) error) (any, error) {
	var req SQLRequest
	if err := decode(&req); err != nil {
		return nil, err
	}
	res, err := n.sql.Exec(req.Stmt)
	if err != nil {
		return nil, err
	}
	return SQLReply{Columns: res.Columns, Rows: res.Cells(), Affected: res.Affected, Msg: res.Msg}, nil
}

// RemoteStation is a typed client for a Node.
type RemoteStation struct {
	c *transport.Client
}

// DialStation connects to a station daemon.
func DialStation(addr string) (*RemoteStation, error) {
	c, err := transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &RemoteStation{c: c}, nil
}

// Close releases the connection.
func (r *RemoteStation) Close() error { return r.c.Close() }

// Ping fetches station info.
func (r *RemoteStation) Ping() (PingReply, error) {
	var reply PingReply
	err := r.c.Call("Ping", struct{}{}, &reply)
	return reply, err
}

// FetchBundle pulls a document's closure from the station.
func (r *RemoteStation) FetchBundle(url string) (*docdb.Bundle, error) {
	var b docdb.Bundle
	if err := r.c.Call("Bundle", BundleRequest{URL: url}, &b); err != nil {
		return nil, err
	}
	return &b, nil
}

// Import pushes a bundle onto the station.
func (r *RemoteStation) Import(b *docdb.Bundle, persistent bool) (ImportReply, error) {
	var reply ImportReply
	err := r.c.Call("Import", ImportRequest{Bundle: *b, Persistent: persistent}, &reply)
	return reply, err
}

// SQL executes a minisql statement on the station.
func (r *RemoteStation) SQL(stmt string) (SQLReply, error) {
	var reply SQLReply
	err := r.c.Call("SQL", SQLRequest{Stmt: stmt}, &reply)
	return reply, err
}

// Checkpoint makes the station write a checkpoint generation now.
func (r *RemoteStation) Checkpoint() (CheckpointReply, error) {
	var reply CheckpointReply
	err := r.c.Call("Checkpoint", struct{}{}, &reply)
	return reply, err
}

// CheckOut opens a checkout of a course component on the station.
func (r *RemoteStation) CheckOut(kind, objectID, user string) (string, error) {
	var reply CheckOutReply
	err := r.c.Call("CheckOut", CheckOutRequest{Kind: kind, ObjectID: objectID, User: user}, &reply)
	return reply.CheckoutID, err
}

// CheckIn closes a checkout on the station.
func (r *RemoteStation) CheckIn(checkoutID, comment string) error {
	var reply struct{}
	return r.c.Call("CheckIn", CheckInRequest{CheckoutID: checkoutID, Comment: comment}, &reply)
}

// SearchLocal queries the station's own content index.
func (r *RemoteStation) SearchLocal(terms []string, phrase bool, topK int) ([]search.Hit, error) {
	var reply SearchLocalReply
	err := r.c.Call("SearchLocal", SearchLocalRequest{Terms: terms, Phrase: phrase, TopK: topK}, &reply)
	return reply.Hits, err
}
