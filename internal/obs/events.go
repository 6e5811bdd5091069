package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// EventSink consumes rendered one-line event records. Fault paths in
// the fabric (heartbeat suspicion, down confirmation, grafts, rejoin
// grants, checkpoint installs) emit through a sink when one is
// configured and stay silent otherwise — the quiet default. The
// structured journal (EventRing) records the same events regardless of
// whether a sink is attached; the sink is the log-tail view, the ring
// is the queryable one.
type EventSink func(line string)

// Severity ranks an event's operational weight. The journal's
// reservoir keeps Warn+ events past FIFO eviction so a flood of
// routine Info events cannot wash away the evidence of a fault.
type Severity int8

const (
	SevInfo Severity = iota
	SevWarn
	SevError
)

// String renders the severity the way filters accept it back.
func (s Severity) String() string {
	switch s {
	case SevWarn:
		return "warn"
	case SevError:
		return "error"
	default:
		return "info"
	}
}

// ParseSeverity maps a filter string to a Severity; unknown strings
// (and "") select SevInfo, the no-op floor.
func ParseSeverity(s string) Severity {
	switch strings.ToLower(s) {
	case "warn", "warning":
		return SevWarn
	case "error", "err":
		return SevError
	default:
		return SevInfo
	}
}

// MarshalJSON renders severities as strings in reports and CLI output.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON accepts the string form back.
func (s *Severity) UnmarshalJSON(data []byte) error {
	*s = ParseSeverity(strings.Trim(string(data), `"`))
	return nil
}

// Event is one structured journal record: what happened, where, when,
// how bad, and — when emitted inside a traced scope — which trace it
// belongs to. Seq is a per-station monotonic counter assigned at
// journal admission; (Station, Seq) uniquely identifies an event
// fabric-wide and orders events per station even when wall clocks
// disagree.
type Event struct {
	Seq      uint64
	Time     time.Time
	Severity Severity
	Category string
	Name     string
	Station  int
	TraceID  uint64 // 0 when emitted outside any traced scope
	KV       []string
}

// eventClass maps known event names to their severity and category.
// Unknown names default to info/fabric so new emission sites degrade
// gracefully instead of being dropped or misfiled as errors.
var eventClass = map[string]struct {
	sev Severity
	cat string
}{
	"suspect":            {SevWarn, "health"},
	"suspicion-refuted":  {SevInfo, "health"},
	"down-declared":      {SevError, "health"},
	"down-confirmed":     {SevError, "health"},
	"revived":            {SevInfo, "health"},
	"graft":              {SevWarn, "repair"},
	"rejoin-grant":       {SevInfo, "membership"},
	"checkpoint-install": {SevInfo, "checkpoint"},
}

// Classify returns the severity and category for an event name.
func Classify(name string) (Severity, string) {
	if c, ok := eventClass[name]; ok {
		return c.sev, c.cat
	}
	return SevInfo, "fabric"
}

// MissingValue is rendered as the value of a trailing key that arrived
// without one: a k/v slip at an emission site should surface in the
// journal, not silently drop the key.
const MissingValue = "<missing>"

// NewEvent builds a structured event from a name and alternating
// key/value arguments (rendered with %v). A trailing key with no value
// is kept with MissingValue as its value rather than dropped. Station,
// Seq and TraceID are stamped later — by Observer.Emit and the ring.
func NewEvent(name string, kv ...any) Event {
	sev, cat := Classify(name)
	e := Event{
		Time:     time.Now(),
		Severity: sev,
		Category: cat,
		Name:     name,
	}
	if len(kv) > 0 {
		e.KV = make([]string, 0, len(kv)+len(kv)%2)
		for i := 0; i < len(kv); i += 2 {
			e.KV = append(e.KV, fmt.Sprintf("%v", kv[i]))
			if i+1 < len(kv) {
				e.KV = append(e.KV, fmt.Sprintf("%v", kv[i+1]))
			} else {
				e.KV = append(e.KV, MissingValue)
			}
		}
	}
	return e
}

// Line renders the event in the legacy sink format: "event=<name>
// k=v ...". Values containing a space, tab or quote (or empty) are
// %q-quoted so lines stay machine-splittable on spaces.
func (e Event) Line() string {
	var b strings.Builder
	b.WriteString("event=")
	b.WriteString(e.Name)
	for i := 0; i+1 < len(e.KV); i += 2 {
		b.WriteByte(' ')
		b.WriteString(e.KV[i])
		b.WriteByte('=')
		val := e.KV[i+1]
		if strings.ContainsAny(val, " \t\"") || val == "" {
			val = fmt.Sprintf("%q", val)
		}
		b.WriteString(val)
	}
	return b.String()
}

// EventFilter selects journal events. The zero value selects
// everything. SinceSeq is a strict cursor: only events with
// Seq > SinceSeq match, so a poller can hand back the last Seq it saw
// and receive only news.
type EventFilter struct {
	SinceSeq    uint64
	Category    string
	MinSeverity Severity
	TraceID     uint64
}

// matches reports whether an event passes the filter.
func (f EventFilter) matches(e *Event) bool {
	if e.Seq <= f.SinceSeq {
		return false
	}
	if f.Category != "" && e.Category != f.Category {
		return false
	}
	if e.Severity < f.MinSeverity {
		return false
	}
	if f.TraceID != 0 && e.TraceID != f.TraceID {
		return false
	}
	return true
}

// EventRing is a bounded, concurrent-safe journal of events with
// severity-biased retention: recent events ride a FIFO ring, and
// Warn+ events also compete for the reservoir that survives FIFO
// eviction (the same ring SpanRing keeps). The journal owns the
// per-station monotonic Seq counter and per-category admission counts.
type EventRing struct {
	mu     sync.Mutex
	r      ring[Event]
	seq    uint64
	last   time.Time        // Time of the latest admitted event
	counts map[string]int64 // admissions per category, never evicted
}

// DefaultEventCap is the per-station journal size: fault narratives
// are tens of events, so this holds many incidents of history.
const DefaultEventCap = 1024

// NewEventRing builds a journal holding up to capacity events (<= 0
// selects DefaultEventCap).
func NewEventRing(capacity int) *EventRing {
	if capacity <= 0 {
		capacity = DefaultEventCap
	}
	return &EventRing{
		r:      newRing(capacity, outranksEvent, func(e *Event) uint64 { return e.Seq }),
		counts: make(map[string]int64),
	}
}

// outranksEvent reports whether a deserves a reservoir slot over b:
// higher severity first, then the newer event (higher seq) — within a
// severity class, recency is the tiebreak worth keeping.
func outranksEvent(a, b *Event) bool {
	if a.Severity != b.Severity {
		return a.Severity > b.Severity
	}
	return a.Seq > b.Seq
}

// Add stamps the event with the next sequence number, records it, and
// returns the stamped copy. Warn+ events also compete for a reservoir
// slot, displacing the weakest holder.
//
// NewEvent stamps Time before Add takes the lock, so two emitters can
// be admitted in the reverse of their clock order. An event stamped
// earlier than the latest admitted one is raised to that one's Time,
// which keeps the journal's Time monotonic in Seq: SortEvents (time
// first) then never reorders one station's events.
func (r *EventRing) Add(e Event) Event {
	r.mu.Lock()
	r.seq++
	e.Seq = r.seq
	if e.Time.Before(r.last) {
		e.Time = r.last
	} else {
		r.last = e.Time
	}
	r.counts[e.Category]++
	r.r.add(e, e.Severity >= SevWarn)
	r.mu.Unlock()
	return e
}

// Snapshot returns every retained event — ring plus reservoir, deduped
// by Seq — in sequence order.
func (r *EventRing) Snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshotLocked()
}

func (r *EventRing) snapshotLocked() []Event {
	out, merged := r.r.snapshot()
	if merged {
		sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	}
	return out
}

// Select returns the retained events passing the filter, in sequence
// order.
func (r *EventRing) Select(f EventFilter) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Event
	for _, e := range r.snapshotLocked() {
		if f.matches(&e) {
			out = append(out, e)
		}
	}
	return out
}

// LastSeq returns the sequence number of the most recently admitted
// event — the cursor a poller should resume from.
func (r *EventRing) LastSeq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// CategoryCounts returns total admissions per category since the ring
// was created. Counts survive eviction: they answer "how many grafts
// has this station done", not "how many are still retained".
func (r *EventRing) CategoryCounts() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counts))
	for k, v := range r.counts {
		out[k] = v
	}
	return out
}

// SortEvents orders a merged fabric-wide timeline for rendering: by
// wall time, then station, then sequence — stations' clocks break the
// tie only between stations, never within one.
func SortEvents(events []Event) {
	sort.Slice(events, func(i, j int) bool {
		if !events[i].Time.Equal(events[j].Time) {
			return events[i].Time.Before(events[j].Time)
		}
		if events[i].Station != events[j].Station {
			return events[i].Station < events[j].Station
		}
		return events[i].Seq < events[j].Seq
	})
}
