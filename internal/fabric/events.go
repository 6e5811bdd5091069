package fabric

import (
	"repro/internal/obs"
)

// Fabric-wide event collection. Every station keeps a bounded journal
// of structured fault-path events (internal/obs EventRing); answering
// "what did station 7 see before it went down?" means asking every
// live station for its matching events and merging them into one
// timeline, which the gather kernel (tree.go) does. A gather is bounded
// by the journals themselves — each station contributes at most its
// ring capacity.
//
// The filter's SinceSeq cursor is applied per station: each journal has
// its own monotonic sequence, so a poller resuming from the max Seq it
// saw may re-see events from stations that were already past that
// number — the (Station, Seq) identity makes them droppable
// client-side.

// EventsReply is the merged fabric timeline, in time order, plus one
// result entry per station covered (Err set for dead hops).
type EventsReply struct {
	Events   []obs.Event
	Stations []StationResult
}

// eventKey identifies a journal event fabric-wide.
type eventKey struct {
	station int
	seq     uint64
}

var eventsOp = &gatherOp[obs.EventFilter, obs.Event, *EventsReply]{
	method: methodEvents,
	local: func(s *Station, f obs.EventFilter, _ int) []obs.Event {
		return s.observer().Events(f)
	},
	merge: concat[obs.EventFilter, obs.Event],
	finish: func(_ obs.EventFilter, _ uint64, all subtree[obs.Event]) *EventsReply {
		events := dedupe(all.Items, func(e obs.Event) eventKey { return eventKey{e.Station, e.Seq} })
		obs.SortEvents(events)
		return &EventsReply{Events: events, Stations: all.Stations}
	},
}
