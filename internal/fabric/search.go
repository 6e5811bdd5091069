package fabric

import (
	"repro/internal/search"
)

// Federation-wide full-text search: a query issued at ANY station is
// answered by the gather kernel (tree.go) — each station contributes
// the hits of its local content index (internal/search, attached
// through docdb's ContentIndex extension point) and every hop merges
// its subtree's hits into one bounded top-k set, so a reply carries at
// most TopK hits however large the subtree below it. Reference-only
// stations answer from their index (catalog metadata and whatever
// content they hold) without materializing any BLOBs.

// SearchReply is the federation's answer: the merged top-k hits and one
// result entry per station covered (Err set for dead hops). TraceID
// names the query's distributed trace.
type SearchReply struct {
	Hits     []search.Hit
	TraceID  uint64
	Stations []StationResult
}

var searchOp = &gatherOp[search.Query, search.Hit, *SearchReply]{
	method: methodSearch,
	traced: true,
	vacuous: func(q search.Query) bool {
		return len(search.NormalizeTerms(q.Terms)) == 0
	},
	local: (*Station).localHits,
	// Merge ranks, bounds and deduplicates (a document replicated by a
	// broadcast is credited to its lowest-positioned holder), so a
	// subtree a graft covered twice needs nothing more at the root.
	merge: func(q search.Query, local, below []search.Hit) []search.Hit {
		return search.Merge(q.TopK, local, below)
	},
	finish: func(_ search.Query, trace uint64, all subtree[search.Hit]) *SearchReply {
		return &SearchReply{Hits: all.Items, TraceID: trace, Stations: all.Stations}
	},
}

// Search answers a federation-wide full-text query from this station,
// at the extra cost of one round trip to the root.
func (s *Station) Search(q search.Query) (*SearchReply, error) {
	span := s.observer().BeginLocal(methodSearch)
	reply, err := gather(s, searchOp, q, span)
	span.End(err)
	return reply, err
}

// localHits queries this station's content index, stamping the hits
// with the station position. A station without an attached index (or
// one whose index lacks the query capability) contributes nothing but
// still relays — the tree must stay connected.
func (s *Station) localHits(q search.Query, pos int) []search.Hit {
	ix, ok := s.store.ContentIndex().(search.Searcher)
	if !ok {
		return nil
	}
	hits := ix.Search(q)
	for i := range hits {
		hits[i].Station = pos
	}
	return hits
}
