package cluster

import (
	"time"

	"repro/internal/search"
)

// Simulated scatter-gather: the discrete-event model of the live
// fabric's gather kernel (fabric.Station.Search / Trace / Events), so
// the real implementation's results and costs can be pinned against
// controlled simulated time the same way broadcast, resolve, migration
// and catch-up are. The requesting station sends the request to the
// root, the root scatters it down the m-ary tree (one small request
// transfer per edge), every station contributes locally, and each hop
// merges its subtree's contribution into one reply before it travels
// back up. Down stations are grafted around with the liveChildren rule
// the broadcasts use: their subtrees stay covered, their own
// contribution is lost until they rejoin.
//
// What differs between the three operations is only the cost model.
// Search merges to a bounded top-k, so an edge carries at most TopK
// hits however large the subtree below it. Span and event sets
// concatenate, so an edge near the root carries its whole subtree's
// items: collection traffic grows with the footprint of the operation
// or incident being reconstructed — the price of a complete
// reconstruction, and the reason the rings are bounded and event
// requests carry a since-seq cursor.

// Cost model: a request is a small fixed message; a reply costs the
// same fixed overhead plus a per-item share (a hit's key, score and
// snippet; a span's method, timing, byte counts and annotations; an
// event's name, category, timing and key/value pairs).
const (
	searchRequestBytes = 256
	searchHitBytes     = 256
	traceRequestBytes  = 128
	traceSpanBytes     = 192
	eventRequestBytes  = 96
	eventRecordBytes   = 160
)

// replyCost prices a reply by the number of items it carries.
func replyCost(requestBytes, itemBytes int64) func(n int) int64 {
	return func(n int) int64 { return requestBytes + int64(n)*itemBytes }
}

// gatherReport is what every simulated gather measures.
type gatherReport struct {
	// Covered counts the stations that answered the scatter (down
	// stations are routed around and cannot answer).
	Covered int
	// Latency is the simulated time from issuing the request at the
	// requesting station to the merged reply arriving back there.
	Latency time.Duration
	// WireBytes is the total traffic the gather moved.
	WireBytes int64
}

// gatherUp runs one scatter-gather issued at station pos: a request
// costs requestBytes per edge, local is a station's own contribution,
// merge folds a station's contribution and its children's replies
// (local first) into the reply it sends up, and replyBytes prices that
// reply. The requesting station must be live; the root cannot fail
// (the same assumption the rest of the simulator makes).
func gatherUp[T any](c *Cluster, pos int, requestBytes int64, local func(p int) T, merge func(parts []T) T, replyBytes func(T) int64) (T, gatherReport, error) {
	var result T
	var rep gatherReport
	if _, err := c.liveStation(pos); err != nil {
		return result, rep, err
	}
	start := c.sim.Now()
	bytesBefore := c.sim.Stats().TotalBytes
	var failure error

	// gather answers for one station and its (live-grafted) subtree,
	// delivering the merged reply and the time it was complete.
	var gather func(p int, done func(T, time.Duration))
	// ask carries the request over one edge, gathers the far end's
	// subtree and carries the merged reply back.
	ask := func(from, to int, done func(T, time.Duration)) {
		err := c.sim.Transfer(c.ids[from-1], c.ids[to-1], requestBytes, func(time.Duration) {
			gather(to, func(sub T, _ time.Duration) {
				if err := c.sim.Transfer(c.ids[to-1], c.ids[from-1], replyBytes(sub), func(at time.Duration) {
					done(sub, at)
				}); err != nil {
					failure = err
				}
			})
		})
		if err != nil {
			failure = err
		}
	}
	gather = func(p int, done func(T, time.Duration)) {
		rep.Covered++
		parts := []T{local(p)}
		kids, err := c.liveChildren(p)
		if err != nil {
			failure = err
		}
		if len(kids) == 0 {
			done(parts[0], c.sim.Now())
			return
		}
		pending := len(kids)
		var latest time.Duration
		for _, kid := range kids {
			ask(p, kid, func(sub T, at time.Duration) {
				parts = append(parts, sub)
				if at > latest {
					latest = at
				}
				if pending--; pending == 0 {
					done(merge(parts), latest)
				}
			})
		}
	}
	finish := func(all T, at time.Duration) {
		result = all
		rep.Latency = at - start
	}
	if pos == 1 {
		gather(1, finish)
	} else {
		// The request rides to the root first: any station can issue a
		// gather for the cost of one round trip to the root plus the
		// tree's O(depth) scatter-gather.
		ask(pos, 1, finish)
	}
	c.sim.Run()
	rep.WireBytes = c.sim.Stats().TotalBytes - bytesBefore
	return result, rep, failure
}

// sum is the merge of a gather that models its items by count.
func sum(parts []int) int {
	total := 0
	for _, n := range parts {
		total += n
	}
	return total
}

// SearchReport summarizes one simulated federation query.
type SearchReport struct {
	Hits []search.Hit
	// Latency is the simulated time from issuing the query at the
	// requesting station to the merged reply arriving back there.
	Latency time.Duration
	// Answered counts the stations whose local index contributed to the
	// gather (down stations are covered but cannot answer).
	Answered int
	// WireBytes is the total traffic the query moved.
	WireBytes int64
}

// SearchFederated answers a full-text query issued at a station,
// modeling the scatter-gather over the simulated network.
func (c *Cluster) SearchFederated(pos int, q search.Query) (*SearchReport, error) {
	if _, err := c.liveStation(pos); err != nil {
		return nil, err
	}
	// Term-less queries match nothing; skip the scatter entirely, as
	// the live fabric does.
	if len(search.NormalizeTerms(q.Terms)) == 0 {
		return &SearchReport{}, nil
	}
	cost := replyCost(searchRequestBytes, searchHitBytes)
	hits, rep, err := gatherUp(c, pos, searchRequestBytes,
		func(p int) []search.Hit {
			// Stamp the answering station into its hits, as the fabric does.
			hits := c.stations[p-1].Index.Search(q)
			for i := range hits {
				hits[i].Station = p
			}
			return hits
		},
		func(parts [][]search.Hit) []search.Hit { return search.Merge(q.TopK, parts...) },
		func(hits []search.Hit) int64 { return cost(len(hits)) })
	if err != nil {
		return nil, err
	}
	return &SearchReport{Hits: hits, Latency: rep.Latency, Answered: rep.Covered, WireBytes: rep.WireBytes}, nil
}

// TraceCollectReport summarizes one simulated trace collection: Spans
// is the total gathered (down stations' contributions are lost until
// they rejoin).
type TraceCollectReport struct {
	Spans int
	gatherReport
}

// CollectTrace models collecting one trace's spans fabric-wide from a
// requesting station. spanCount reports how many spans each station's
// ring holds for the trace (the simulator has no real rings; the
// caller supplies the footprint of the operation being reconstructed).
func (c *Cluster) CollectTrace(pos int, spanCount func(p int) int) (*TraceCollectReport, error) {
	spans, rep, err := gatherUp(c, pos, traceRequestBytes, spanCount, sum, replyCost(traceRequestBytes, traceSpanBytes))
	if err != nil {
		return nil, err
	}
	return &TraceCollectReport{Spans: spans, gatherReport: rep}, nil
}

// EventCollectReport summarizes one simulated event collection: Events
// is the total gathered (down stations' journals are unreadable until
// they rejoin).
type EventCollectReport struct {
	Events int
	gatherReport
}

// CollectEvents models collecting the filtered journal timeline
// fabric-wide from a requesting station. eventCount reports how many
// events each station's journal contributes under the filter (the
// simulator has no real journals; the caller supplies the incident's
// footprint).
func (c *Cluster) CollectEvents(pos int, eventCount func(p int) int) (*EventCollectReport, error) {
	events, rep, err := gatherUp(c, pos, eventRequestBytes, eventCount, sum, replyCost(eventRequestBytes, eventRecordBytes))
	if err != nil {
		return nil, err
	}
	return &EventCollectReport{Events: events, gatherReport: rep}, nil
}
