package obs

import (
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TraceContext is what rides the transport envelope: which trace this
// request belongs to, and the span of the hop that sent it (so the
// receiving hop's span can name its parent). A zero TraceID means the
// request is untraced and no span is recorded for it.
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
}

// idSeq is a process-wide Weyl sequence seeded randomly once: IDs are
// unique within a process by construction and collide across stations
// only with ordinary 64-bit-random probability, without paying a
// crypto/rand read per span on the RPC hot path.
var idSeq atomic.Uint64

func init() {
	var seed [8]byte
	if _, err := crand.Read(seed[:]); err == nil {
		idSeq.Store(binary.LittleEndian.Uint64(seed[:]))
	} else {
		idSeq.Store(uint64(time.Now().UnixNano()))
	}
}

// NewTraceID returns a non-zero identifier usable as a TraceID or
// SpanID.
func NewTraceID() uint64 {
	// splitmix64 finalizer over a Weyl step: well-mixed, never repeats
	// within a process.
	x := idSeq.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// Span is one hop's record of work done for a trace: which station
// served which method, when, for how long, how many wire bytes moved,
// and anything noteworthy that happened on the way (a grafted dead
// child, a watermark pull). Spans are assembled fabric-wide by the
// Trace RPC and stitched into a hop tree by Parent links.
type Span struct {
	TraceID  uint64
	SpanID   uint64
	Parent   uint64 // SpanID of the calling hop; 0 at the trace root
	Method   string
	Station  int // tree position of the station that served the hop
	Start    time.Time
	Duration time.Duration
	Bytes    int64 // request + response body bytes for the hop
	Err      string
	Notes    []string
}

// SpanRing is a bounded, concurrent-safe ring of completed spans:
// recent traces stay inspectable, memory stays fixed, old spans fall
// off the back. Errors and the slowest spans seen are pinned past
// eviction in the ring's reservoir.
type SpanRing struct {
	mu sync.Mutex
	r  ring[Span]
}

// DefaultSpanCap is the per-station span ring size: enough for several
// full broadcasts across a large fabric.
const DefaultSpanCap = 4096

// NewSpanRing builds a ring holding up to capacity spans (<= 0 selects
// DefaultSpanCap).
func NewSpanRing(capacity int) *SpanRing {
	if capacity <= 0 {
		capacity = DefaultSpanCap
	}
	return &SpanRing{r: newRing(capacity, outranks, func(sp *Span) uint64 { return sp.SpanID })}
}

// notableFloor is the duration above which a successful span competes
// for a reservoir slot. Fabric RPCs complete in well under a
// millisecond on a healthy station, so anything past the floor is
// evidence worth keeping; failed spans qualify at any duration.
const notableFloor = 10 * time.Millisecond

// outranks reports whether a deserves a reservoir slot over b: errors
// before successes, then the longer duration.
func outranks(a, b *Span) bool {
	if (a.Err != "") != (b.Err != "") {
		return a.Err != ""
	}
	return a.Duration > b.Duration
}

// Add records a completed span, evicting the oldest when full. Slow
// and failed spans also compete for a reservoir slot, displacing the
// weakest holder, so the one interesting span stays inspectable
// through any flood of fast ones; routine spans ride the FIFO only.
func (r *SpanRing) Add(sp Span) {
	r.mu.Lock()
	r.r.add(sp, sp.Err != "" || sp.Duration >= notableFloor)
	r.mu.Unlock()
}

// Snapshot returns every retained span — ring plus reservoir, deduped
// by span ID — oldest first.
func (r *SpanRing) Snapshot() []Span {
	r.mu.Lock()
	out, merged := r.r.snapshot()
	r.mu.Unlock()
	if merged {
		SortSpans(out)
	}
	return out
}

// ForTrace returns the retained spans belonging to one trace, oldest
// first.
func (r *SpanRing) ForTrace(id uint64) []Span {
	if id == 0 {
		return nil
	}
	var out []Span
	for _, sp := range r.Snapshot() {
		if sp.TraceID == id {
			out = append(out, sp)
		}
	}
	return out
}

// Observer is a station's observability state: the per-method latency
// histograms, the span ring and the event journal, plus the station's
// current tree position (stamped onto spans and events as they
// complete). A nil *Observer is valid everywhere and records nothing.
type Observer struct {
	Metrics Metrics
	ring    *SpanRing
	events  atomic.Pointer[EventRing]
	pos     atomic.Int64
}

// NewObserver builds an observer with a span ring of the given
// capacity (<= 0 selects DefaultSpanCap) and an event journal of
// DefaultEventCap.
func NewObserver(spanCap int) *Observer {
	o := &Observer{ring: NewSpanRing(spanCap)}
	o.events.Store(NewEventRing(0))
	return o
}

// DisableEventJournal detaches the event journal: subsequent Emit
// calls record nothing. Race-safe against concurrent emitters — the
// ops/bench knob for measuring the journal's cost.
//
//lint:ignore unreached test hook: the root package's BenchmarkFabricBroadcastEventsOff, which make obs-overhead runs, switches the journal off through it
func (o *Observer) DisableEventJournal() {
	if o != nil {
		o.events.Store(nil)
	}
}

// Emit stamps the event with this station's position, admits it to
// the journal, and returns the stamped (Seq-assigned) copy. Nil-safe;
// with no observer or a disabled journal the event passes through
// unstamped.
func (o *Observer) Emit(e Event) Event {
	if o == nil {
		return e
	}
	e.Station = o.Pos()
	if r := o.events.Load(); r != nil {
		e = r.Add(e)
	}
	return e
}

// Events returns this station's retained journal events passing the
// filter, in sequence order.
func (o *Observer) Events(f EventFilter) []Event {
	if o == nil {
		return nil
	}
	if r := o.events.Load(); r != nil {
		return r.Select(f)
	}
	return nil
}

// EventSeq returns the journal's latest sequence number — the cursor
// a poller resumes from.
func (o *Observer) EventSeq() uint64 {
	if o == nil {
		return 0
	}
	if r := o.events.Load(); r != nil {
		return r.LastSeq()
	}
	return 0
}

// EventCounts returns total journal admissions per category.
func (o *Observer) EventCounts() map[string]int64 {
	if o == nil {
		return nil
	}
	if r := o.events.Load(); r != nil {
		return r.CategoryCounts()
	}
	return nil
}

// SetPos records the station's tree position for span attribution.
func (o *Observer) SetPos(pos int) {
	if o != nil {
		o.pos.Store(int64(pos))
	}
}

// Pos returns the last recorded tree position.
func (o *Observer) Pos() int {
	if o == nil {
		return 0
	}
	return int(o.pos.Load())
}

// Observe records one method call in the latency histograms.
func (o *Observer) Observe(method string, d time.Duration, failed bool) {
	if o != nil {
		o.Metrics.Observe(method, d, failed)
	}
}

// ForTrace returns this station's retained spans for a trace.
func (o *Observer) ForTrace(id uint64) []Span {
	if o == nil || o.ring == nil {
		return nil
	}
	return o.ring.ForTrace(id)
}

// RecentSpans returns up to n most recent completed spans, newest
// first.
func (o *Observer) RecentSpans(n int) []Span {
	if o == nil || o.ring == nil {
		return nil
	}
	all := o.ring.Snapshot()
	for i, j := 0, len(all)-1; i < j; i, j = i+1, j-1 {
		all[i], all[j] = all[j], all[i]
	}
	if n > 0 && len(all) > n {
		all = all[:n]
	}
	return all
}

// Begin opens a span for a traced request arriving with the given
// context. It returns nil — which every ActiveSpan method tolerates —
// when the request is untraced or the observer absent, so call sites
// need no conditionals.
func (o *Observer) Begin(parent TraceContext, method string) *ActiveSpan {
	if o == nil || parent.TraceID == 0 {
		return nil
	}
	return &ActiveSpan{
		o: o,
		sp: Span{
			TraceID: parent.TraceID,
			SpanID:  NewTraceID(),
			Parent:  parent.SpanID,
			Method:  method,
			Start:   time.Now(),
		},
	}
}

// BeginLocal opens a root span for an operation originating at this
// station (no incoming trace context): a fresh TraceID is minted.
func (o *Observer) BeginLocal(method string) *ActiveSpan {
	if o == nil {
		return nil
	}
	return o.Begin(TraceContext{TraceID: NewTraceID()}, method)
}

// ActiveSpan is a span under construction. All methods are safe on a
// nil receiver and for concurrent use (tree fan-out annotates from
// per-child goroutines).
type ActiveSpan struct {
	o  *Observer
	mu sync.Mutex
	sp Span
}

// Context returns the trace context downstream hops should carry: the
// span's trace with this span as parent. Zero on a nil span, which
// keeps downstream calls untraced.
func (a *ActiveSpan) Context() TraceContext {
	if a == nil {
		return TraceContext{}
	}
	return TraceContext{TraceID: a.sp.TraceID, SpanID: a.sp.SpanID}
}

// Annotate appends a formatted note to the span.
func (a *ActiveSpan) Annotate(format string, args ...any) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.sp.Notes = append(a.sp.Notes, fmt.Sprintf(format, args...))
	a.mu.Unlock()
}

// AddBytes accounts wire bytes moved for this hop.
func (a *ActiveSpan) AddBytes(n int64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.sp.Bytes += n
	a.mu.Unlock()
}

// End completes the span and commits it to the observer's ring. The
// station position is read at end time, after join/rejoin has settled
// it. End is idempotent-enough for its single-caller use; call once.
func (a *ActiveSpan) End(err error) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.sp.Duration = time.Since(a.sp.Start)
	a.sp.Station = a.o.Pos()
	if err != nil {
		a.sp.Err = err.Error()
	}
	sp := a.sp
	a.mu.Unlock()
	if a.o.ring != nil {
		a.o.ring.Add(sp)
	}
}

// SortSpans orders spans for rendering: by start time, then span ID
// for determinism between equal clocks.
func SortSpans(spans []Span) {
	sort.Slice(spans, func(i, j int) bool {
		if !spans[i].Start.Equal(spans[j].Start) {
			return spans[i].Start.Before(spans[j].Start)
		}
		return spans[i].SpanID < spans[j].SpanID
	})
}

// FormatTraceID renders a trace or span ID the way the CLI accepts it
// back: zero-padded hex.
func FormatTraceID(id uint64) string { return fmt.Sprintf("%016x", id) }
