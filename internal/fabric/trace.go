package fabric

import (
	"repro/internal/obs"
)

// Fabric-wide trace collection. Every station keeps its own bounded
// span ring (internal/obs); reconstructing one distributed operation
// means asking every live station for its spans with the operation's
// TraceID. The gather kernel (tree.go) does the asking; there is no
// per-hop truncation — a trace is bounded by the rings themselves (in
// practice a handful of spans per station per traversal).

// TraceReply is every span recorded fabric-wide under one TraceID, in
// start order, plus one result entry per station covered (Err set for
// dead hops).
type TraceReply struct {
	ID       uint64
	Spans    []obs.Span
	Stations []StationResult
}

var traceOp = &gatherOp[uint64, obs.Span, *TraceReply]{
	method: methodTrace,
	local: func(s *Station, id uint64, _ int) []obs.Span {
		return s.observer().ForTrace(id)
	},
	merge: concat[uint64, obs.Span],
	finish: func(id, _ uint64, all subtree[obs.Span]) *TraceReply {
		spans := dedupe(all.Items, func(sp obs.Span) uint64 { return sp.SpanID })
		obs.SortSpans(spans)
		return &TraceReply{ID: id, Spans: spans, Stations: all.Stations}
	},
}
