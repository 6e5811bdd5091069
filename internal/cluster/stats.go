package cluster

import (
	"repro/internal/obs"
	"repro/internal/search"
)

// The unified Stats RPC: one scrape returns everything an operator or
// a load harness needs to judge a station — per-RPC-method operation
// counters and wire bytes (from the transport server), relational and
// document sizes, the WAL/checkpoint generation and tail, BLOB store
// accounting and the content index's dimensions. It replaces the
// ad-hoc probing that stitched Ping, Checkpoint and SQL row counts
// together to answer "what is this station doing".

// StatsReply is one station's accounting snapshot.
type StatsReply struct {
	Pos int

	// Wire activity since the station started serving.
	Ops      map[string]int64 // requests served, per RPC method
	BytesIn  int64            // bytes received on the station socket
	BytesOut int64            // bytes sent on the station socket

	// Per-method latency digests from the station's histograms
	// (p50/p95/p99/max/mean, error counts). Empty when observability
	// is disabled on the node.
	Latency map[string]obs.Summary

	// Event journal accounting: total admissions per category since
	// the station started (counts survive ring eviction) and the
	// journal's latest sequence number — the cursor an Events RPC
	// poller resumes from. Empty/zero when observability is disabled.
	Events   map[string]int64
	EventSeq uint64

	// Relational engine and durability.
	Tables        int
	Objects       int64  // doc_objects rows
	CheckpointGen uint64 // newest installed checkpoint generation (0 = none)
	WALSeq        uint64 // last appended WAL sequence number
	WALTailBytes  int64  // bytes in the WAL tail since that generation
	Durable       bool   // station runs with a durability directory

	// BLOB store.
	BlobObjects   int
	PhysicalBytes int64
	LogicalBytes  int64

	// Content index ("" dimensions stay zero when none is attached).
	Indexed       bool
	IndexDocs     int
	IndexTerms    int
	IndexPostings int
}

// handleStats gathers the unified station snapshot.
func (n *Node) handleStats(decode func(any) error) (any, error) {
	var req struct{}
	if err := decode(&req); err != nil {
		return nil, err
	}
	return n.StatsNow(), nil
}

// StatsNow assembles the station's current Stats snapshot locally —
// the same value the Stats RPC serves, usable in-process by the
// daemon and the tests.
func (n *Node) StatsNow() StatsReply {
	rel := n.Store.Rel()
	srv := n.srv.Stats()
	reply := StatsReply{
		Pos:           n.Pos(),
		Ops:           srv.Calls,
		BytesIn:       srv.BytesIn,
		BytesOut:      srv.BytesOut,
		Tables:        len(rel.Tables()),
		CheckpointGen: rel.Generation(),
		WALSeq:        rel.LastSeq(),
		WALTailBytes:  rel.WALTailBytes(),
		Durable:       n.Store.DurableDir() != "",
	}
	if o := n.Observer(); o != nil {
		reply.Latency = o.Metrics.Summaries()
		reply.Events = o.EventCounts()
		reply.EventSeq = o.EventSeq()
	}
	if count, err := rel.Count("doc_objects"); err == nil {
		reply.Objects = int64(count)
	}
	bs := n.Store.Blobs().Stats()
	reply.BlobObjects = bs.Objects
	reply.PhysicalBytes = bs.PhysicalBytes
	reply.LogicalBytes = bs.LogicalBytes
	if ix, ok := n.Store.ContentIndex().(*search.Index); ok && ix != nil {
		st := ix.Stats()
		reply.Indexed = true
		reply.IndexDocs = st.Docs
		reply.IndexTerms = st.Terms
		reply.IndexPostings = st.Postings
	}
	return reply
}

// Stats scrapes the station's unified accounting snapshot.
func (r *RemoteStation) Stats() (StatsReply, error) {
	var reply StatsReply
	err := r.pool.Call("Stats", struct{}{}, &reply)
	return reply, err
}
