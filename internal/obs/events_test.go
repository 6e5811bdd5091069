package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// A trailing key with no value is an emission-site bug worth seeing,
// not worth hiding: it must render as <key>=<missing> instead of being
// silently dropped (the old formatter's behavior).
func TestEventOddKeyValueRendersMissing(t *testing.T) {
	e := NewEvent("down-declared", "pos", 3, "cause")
	if got, want := e.Line(), "event=down-declared pos=3 cause=<missing>"; got != want {
		t.Fatalf("odd kv line = %q, want %q", got, want)
	}
	if len(e.KV) != 4 || e.KV[2] != "cause" || e.KV[3] != MissingValue {
		t.Fatalf("odd kv pairs = %q", e.KV)
	}
	// Even argument lists are unaffected.
	if got := NewEvent("revived", "pos", 3).Line(); got != "event=revived pos=3" {
		t.Fatalf("even kv line = %q", got)
	}
}

func TestClassifyKnownAndUnknownNames(t *testing.T) {
	cases := []struct {
		name string
		sev  Severity
		cat  string
	}{
		{"suspect", SevWarn, "health"},
		{"suspicion-refuted", SevInfo, "health"},
		{"down-declared", SevError, "health"},
		{"down-confirmed", SevError, "health"},
		{"revived", SevInfo, "health"},
		{"graft", SevWarn, "repair"},
		{"rejoin-grant", SevInfo, "membership"},
		{"checkpoint-install", SevInfo, "checkpoint"},
		{"something-new", SevInfo, "fabric"},
	}
	for _, c := range cases {
		sev, cat := Classify(c.name)
		if sev != c.sev || cat != c.cat {
			t.Errorf("Classify(%q) = %v/%q, want %v/%q", c.name, sev, cat, c.sev, c.cat)
		}
	}
}

func TestSeverityRoundTrip(t *testing.T) {
	for _, s := range []Severity{SevInfo, SevWarn, SevError} {
		if got := ParseSeverity(s.String()); got != s {
			t.Errorf("ParseSeverity(%q) = %v, want %v", s.String(), got, s)
		}
	}
	if ParseSeverity("nonsense") != SevInfo {
		t.Error("unknown severity string should floor to info")
	}
	b, err := SevError.MarshalJSON()
	if err != nil || string(b) != `"error"` {
		t.Errorf("MarshalJSON = %s, %v", b, err)
	}
	var s Severity
	if err := s.UnmarshalJSON([]byte(`"warn"`)); err != nil || s != SevWarn {
		t.Errorf("UnmarshalJSON = %v, %v", s, err)
	}
}

func TestEventRingSeqMonotonicAndFIFO(t *testing.T) {
	r := NewEventRing(64)
	for i := 0; i < 100; i++ {
		e := r.Add(NewEvent("revived", "i", i))
		if e.Seq != uint64(i+1) {
			t.Fatalf("admission %d got seq %d", i, e.Seq)
		}
	}
	if r.LastSeq() != 100 {
		t.Fatalf("LastSeq = %d", r.LastSeq())
	}
	snap := r.Snapshot()
	if len(snap) != 64 {
		t.Fatalf("snapshot holds %d events, ring capacity 64", len(snap))
	}
	// Oldest retained is admission 37 (100-64+1): pure FIFO for info
	// events.
	if snap[0].Seq != 37 || snap[len(snap)-1].Seq != 100 {
		t.Fatalf("snapshot seq range [%d, %d], want [37, 100]", snap[0].Seq, snap[len(snap)-1].Seq)
	}
}

// The reservoir is the journal's whole point: one error event must
// survive a flood of routine info events that wash the FIFO many
// times over.
func TestEventRingErrorSurvivesInfoFlood(t *testing.T) {
	r := NewEventRing(64)
	down := r.Add(NewEvent("down-declared", "pos", 7))
	for i := 0; i < 10*64; i++ {
		r.Add(NewEvent("revived", "i", i))
	}
	var found bool
	for _, e := range r.Snapshot() {
		if e.Seq == down.Seq {
			found = true
			if e.Name != "down-declared" {
				t.Fatalf("reservoir kept seq %d as %q", e.Seq, e.Name)
			}
		}
	}
	if !found {
		t.Fatal("error event evicted by info flood")
	}
	// And errors outrank warns when the reservoir itself floods.
	r2 := NewEventRing(64) // reservoir cap 16
	for i := 0; i < 40; i++ {
		r2.Add(NewEvent("graft", "i", i)) // warn
	}
	err1 := r2.Add(NewEvent("down-confirmed", "pos", 2))
	for i := 0; i < 10*64; i++ {
		r2.Add(NewEvent("revived", "i", i))
	}
	found = false
	for _, e := range r2.Snapshot() {
		if e.Seq == err1.Seq {
			found = true
		}
	}
	if !found {
		t.Fatal("error event lost a reservoir slot to warns")
	}
}

func TestEventFilterSelect(t *testing.T) {
	r := NewEventRing(256)
	r.Add(NewEvent("suspect", "pos", 2))
	down := r.Add(NewEvent("down-declared", "pos", 2))
	traced := NewEvent("graft", "child", 2)
	traced.TraceID = 0xabcd
	r.Add(traced)
	r.Add(NewEvent("rejoin-grant", "pos", 2))

	if got := len(r.Select(EventFilter{})); got != 4 {
		t.Fatalf("unfiltered select = %d events", got)
	}
	if got := r.Select(EventFilter{SinceSeq: down.Seq}); len(got) != 2 || got[0].Name != "graft" {
		t.Fatalf("since-seq select = %+v", got)
	}
	if got := r.Select(EventFilter{Category: "health"}); len(got) != 2 {
		t.Fatalf("category select = %+v", got)
	}
	if got := r.Select(EventFilter{MinSeverity: SevError}); len(got) != 1 || got[0].Name != "down-declared" {
		t.Fatalf("severity select = %+v", got)
	}
	if got := r.Select(EventFilter{TraceID: 0xabcd}); len(got) != 1 || got[0].Name != "graft" {
		t.Fatalf("trace select = %+v", got)
	}
	counts := r.CategoryCounts()
	if counts["health"] != 2 || counts["repair"] != 1 || counts["membership"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestObserverEmitStampsStationAndJournal(t *testing.T) {
	o := NewObserver(0)
	o.SetPos(7)
	e := NewEvent("graft", "child", 9)
	e.TraceID = 42
	got := o.Emit(e)
	if got.Station != 7 || got.Seq != 1 || got.TraceID != 42 {
		t.Fatalf("emitted = %+v", got)
	}
	evs := o.Events(EventFilter{})
	if len(evs) != 1 || evs[0].Station != 7 {
		t.Fatalf("journal = %+v", evs)
	}
	if o.EventSeq() != 1 {
		t.Fatalf("EventSeq = %d", o.EventSeq())
	}
	if c := o.EventCounts(); c["repair"] != 1 {
		t.Fatalf("counts = %v", c)
	}

	// Disabled journal: Emit passes through, nothing is recorded.
	o.DisableEventJournal()
	if after := o.Emit(NewEvent("revived")); after.Seq != 0 {
		t.Fatalf("disabled journal stamped seq %d", after.Seq)
	}
	if o.Events(EventFilter{}) != nil || o.EventSeq() != 0 {
		t.Fatal("disabled journal still answers queries")
	}

	// Nil observer: everything is a no-op.
	var nilObs *Observer
	nilObs.Emit(NewEvent("revived"))
	if nilObs.Events(EventFilter{}) != nil || nilObs.EventSeq() != 0 || nilObs.EventCounts() != nil {
		t.Fatal("nil observer recorded something")
	}
	nilObs.DisableEventJournal()
}

// The journal takes writes from every RPC goroutine while pollers
// read it; this test exists to run under -race.
func TestEventRingConcurrent(t *testing.T) {
	o := NewObserver(0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				o.Emit(NewEvent("graft", "worker", w, "i", i))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var cursor uint64
		for i := 0; i < 100; i++ {
			for _, e := range o.Events(EventFilter{SinceSeq: cursor}) {
				if e.Seq > cursor {
					cursor = e.Seq
				}
			}
			o.EventCounts()
		}
	}()
	wg.Wait()
	if got := o.EventSeq(); got != 1600 {
		t.Fatalf("EventSeq = %d, want 1600", got)
	}
}

func TestSortEventsOrdersTimeline(t *testing.T) {
	a := NewEvent("suspect")
	b := NewEvent("graft")
	c := NewEvent("down-confirmed")
	a.Station, a.Seq = 2, 5
	b.Station, b.Seq = 1, 9
	c.Station, c.Seq = 2, 6
	b.Time = a.Time
	c.Time = a.Time.Add(1) // strictly later
	events := []Event{c, a, b}
	SortEvents(events)
	got := fmt.Sprintf("%s/%d %s/%d %s/%d",
		events[0].Name, events[0].Station,
		events[1].Name, events[1].Station,
		events[2].Name, events[2].Station)
	if got != "graft/1 suspect/2 down-confirmed/2" {
		t.Fatalf("order = %s", got)
	}
}

// Two emitters stamp Time in NewEvent but are admitted under the ring's
// lock, so the later-stamped event can win the race to Add. The
// journal must still sort into admission order within the station.
func TestEventRingAdmitsOutOfClockOrderMonotonic(t *testing.T) {
	r := NewEventRing(8)
	early := NewEvent("suspect")
	late := NewEvent("graft")
	late.Time = early.Time.Add(time.Millisecond)
	first := r.Add(late)
	second := r.Add(early)
	if second.Time.Before(first.Time) {
		t.Errorf("seq %d admitted at %v, before seq %d at %v", second.Seq, second.Time, first.Seq, first.Time)
	}
	events := []Event{second, first}
	SortEvents(events)
	if events[0].Seq != first.Seq || events[1].Seq != second.Seq {
		t.Fatalf("SortEvents order = seq %d, %d; want %d, %d", events[0].Seq, events[1].Seq, first.Seq, second.Seq)
	}
}
