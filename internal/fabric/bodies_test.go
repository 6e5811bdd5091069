package fabric

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/transport"
	"repro/internal/wire"
)

// sevenStations is a topology with a full seven-entry roster and a
// two-station down-set.
func sevenStations() Topology {
	roster := make(map[int]string, 7)
	for pos := 1; pos <= 7; pos++ {
		roster[pos] = "10.0.0." + string(rune('0'+pos)) + ":7070"
	}
	return Topology{M: 3, N: 7, Watermark: 2, Epoch: 41, Roster: roster, Down: map[int]bool{4: true, 6: true}}
}

// TestEveryFabricBodyRoundTrips sends the zero value and a fully
// populated value of every fabric RPC body — client entries, tree
// requests with their embedded topology, the generic gather pair in
// all three instantiations, and the rejoin stream's record — through
// the transport's codec and compares what comes back.
func TestEveryFabricBodyRoundTrips(t *testing.T) {
	at := time.Date(1999, 4, 21, 9, 0, 0, 500, time.UTC)
	topo := sevenStations()
	results := []StationResult{
		{Pos: 2, URL: "http://mmu/cs101/v1", Form: "instance", Freed: 4096},
		{Pos: 3, URL: "http://mmu/cs101/v1", Err: "grafted dead child"},
	}
	hit := search.Hit{Key: "k", Kind: "html", URL: "http://mmu/cs101/v1", Path: "index.html", Score: 9, Station: 2, Snippet: "…intro…"}
	span := obs.Span{TraceID: 7, SpanID: 8, Parent: 1, Method: methodSearch, Station: 3, Start: at,
		Duration: 1500 * time.Microsecond, Bytes: 300, Err: "timeout", Notes: []string{"graft", "retry"}}
	event := obs.Event{Seq: 9, Time: at, Severity: obs.SevError, Category: "health", Name: "down-confirmed",
		Station: 1, TraceID: 7, KV: []string{"pos", "3"}}
	bundle := samplePush().Bundles[0]
	fetch := FetchResult{URL: "http://mmu/cs101/v1", ServedBy: 1, Local: true, Replicated: true, Fetches: 3, Bytes: 1 << 20, TraceID: 7}
	full := []any{
		struct{}{},
		JoinRequest{Addr: "127.0.0.1:7071", OldPos: 3, Rejoin: true},
		JoinReply{Pos: 5, Topology: topo},
		TopologyReply{Pos: 2, IsRoot: true, Topology: topo},
		topo,
		HeartbeatReply{Pos: 2, Err: "disk full"},
		HealthReply{Pos: 1, N: 7, Epoch: 41, IsRoot: true, Down: []int{4, 6}, Suspect: []int{5}, Roster: topo.Roster},
		EvictRequest{Pos: 4},
		ReportDownRequest{Pos: 6},
		CatalogReply{Entries: []CatalogEntry{{URL: "http://mmu/cs101/v1"}, {URL: "http://mmu/cs102/v1", RefOnly: true}}},
		StateRequest{URLs: []string{"http://mmu/cs101/v1", "http://mmu/cs102/v1"}, WantMedia: true},
		stateDoc{Entry: CatalogEntry{URL: "http://mmu/cs101/v1", RefOnly: true}, Bundle: bundle},
		PushReply{Results: results},
		BroadcastRequest{URL: "http://mmu/cs101/v1", URLs: []string{"a", "b"}, RefOnly: true},
		BroadcastResult{URL: "a", URLs: []string{"a", "b"}, RefOnly: true, Bytes: 1 << 20, TraceID: 7, Stations: results},
		FetchRequest{URL: "http://mmu/cs101/v1"},
		fetch,
		EndLectureRequest{URL: "http://mmu/cs101/v1"},
		ResolveRequest{URL: "http://mmu/cs101/v1", TTL: 4},
		MigrateRequest{URL: "http://mmu/cs101/v1", Topology: topo},
		MigrateReply{Freed: 8192, TraceID: 7, Stations: results},
		CatchUpResult{References: 2, Migrated: 1, Resolved: []FetchResult{fetch}, StreamedBytes: 1 << 20},
		gatherRequest[search.Query]{Query: search.Query{Terms: []string{"intro", "cs"}, Phrase: true, TopK: 10}, Scatter: true, Topology: topo},
		gatherRequest[uint64]{Query: 7, Scatter: true, Topology: topo},
		gatherRequest[obs.EventFilter]{Query: obs.EventFilter{SinceSeq: 4, Category: "health", MinSeverity: obs.SevWarn, TraceID: 7}, Topology: topo},
		subtree[search.Hit]{Stations: results, Items: []search.Hit{hit, hit}},
		subtree[obs.Span]{Stations: results, Items: []obs.Span{span, {}}},
		subtree[obs.Event]{Stations: results, Items: []obs.Event{event}},
		SearchReply{Hits: []search.Hit{hit}, TraceID: 7, Stations: results},
		TraceReply{ID: 7, Spans: []obs.Span{span}, Stations: results},
		EventsReply{Events: []obs.Event{event}, Stations: results},
	}
	for _, in := range full {
		for _, v := range []any{in, reflect.Zero(reflect.TypeOf(in)).Interface()} {
			body, err := transport.Marshal(v)
			if err != nil {
				t.Fatalf("Marshal(%T): %v", v, err)
			}
			out := reflect.New(reflect.TypeOf(v))
			if err := transport.Unmarshal(body, out.Interface()); err != nil {
				t.Fatalf("Unmarshal(%T): %v", v, err)
			}
			if !reflect.DeepEqual(v, out.Elem().Interface()) {
				t.Errorf("%T changed in transit:\n in: %+v\nout: %+v", v, v, out.Elem().Interface())
			}
		}
	}
}

// TestFabricBodyGoldenBytes pins the format of two small bodies byte
// for byte, and that a map-bearing value encodes the same way twice.
// A diff here is a wire format change: every station of a fabric must
// then be upgraded together.
func TestFabricBodyGoldenBytes(t *testing.T) {
	topo := Topology{M: 3, N: 4, Watermark: -1, Epoch: 300,
		Roster: map[int]string{2: "b:1", 1: "a:1", 4: "d:1"}, Down: map[int]bool{3: true}}
	wantTopo := "\xc0\x01" +
		"\x06\x08\x01\xd8\x04" + // M N Watermark Epoch, zigzag varints
		"\x03" + "\x02\x03a:1" + "\x04\x03b:1" + "\x08\x03d:1" + // roster, ascending position
		"\x01" + "\x06\x01" // down-set
	reply := SearchReply{
		Hits: []search.Hit{
			{Key: "k1", Kind: "html", URL: "u", Path: "p", Score: 5, Station: 2, Snippet: "s"},
			{Key: "k2", Kind: "script", Path: "cs101", Score: 3},
		},
		TraceID:  9,
		Stations: []StationResult{{Pos: 1, URL: "u", Form: "instance"}},
	}
	wantReply := "\xc0\x01" +
		"\x02" + "\x02k1\x04html\x01u\x01p\x0a\x04\x01s" + "\x02k2\x06script\x00\x05cs101\x06\x00\x00" +
		"\x09" +
		"\x01" + "\x02\x01u\x08instance\x00\x00"
	for _, tc := range []struct {
		v    any
		want string
	}{{topo, wantTopo}, {reply, wantReply}} {
		first, err := transport.Marshal(tc.v)
		if err != nil {
			t.Fatal(err)
		}
		if string(first) != tc.want {
			t.Errorf("%T body =\n%q, want\n%q", tc.v, first, tc.want)
		}
		again, _ := transport.Marshal(tc.v)
		if !bytes.Equal(first, again) {
			t.Errorf("%T encoded differently the second time", tc.v)
		}
	}
	big, _ := transport.Marshal(sevenStations())
	for i := 0; i < 20; i++ {
		if again, _ := transport.Marshal(sevenStations()); !bytes.Equal(big, again) {
			t.Fatal("a seven-station topology encoded differently twice")
		}
	}
}

// TestGobBodiesAreRejected: a station from before this format dials in
// with gob bodies. Its first Join and Heartbeat must fail with a clean
// decode error — not a panic, and not a request struct quietly filled
// with whatever the bytes happened to spell.
func TestGobBodiesAreRejected(t *testing.T) {
	for _, legacy := range []any{
		JoinRequest{Addr: "127.0.0.1:7071", OldPos: 3, Rejoin: true},
		HeartbeatReply{Pos: 2},
		struct{}{},
	} {
		var body bytes.Buffer
		if err := gob.NewEncoder(&body).Encode(legacy); err != nil {
			t.Fatal(err)
		}
		out := reflect.New(reflect.TypeOf(legacy))
		if err := transport.Unmarshal(body.Bytes(), out.Interface()); !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("gob-encoded %T: err = %v, want a corrupt-encoding error", legacy, err)
		}
		if !reflect.DeepEqual(out.Elem().Interface(), reflect.Zero(reflect.TypeOf(legacy)).Interface()) {
			t.Errorf("gob-encoded %T left %+v behind", legacy, out.Elem().Interface())
		}
	}
	// And over a live socket: the root answers the old station's Join
	// with that error and stays up.
	root := newFabric(t, 1, 2, 0)[0]
	c, err := transport.Dial(root.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(JoinRequest{Addr: "127.0.0.1:1"}); err != nil {
		t.Fatal(err)
	}
	var reply JoinReply
	if err := c.Call(methodJoin, transport.Raw(body.Bytes()), &reply); err == nil || reply.Pos != 0 {
		t.Fatalf("a gob Join was answered with %+v, err %v", reply, err)
	}
	var health HealthReply
	if err := c.Call(methodHealth, struct{}{}, &health); err != nil || health.N != 1 {
		t.Fatalf("root after the rejected join: %+v, %v", health, err)
	}
}

// TestStateStreamIsWireRecords reads the root's rejoin state stream the
// way a rejoiner does: a sequence of CRC-framed wire records, each the
// body encoding of one stateDoc whose bundle went through the bundle
// codec — media included when asked for, metadata only otherwise.
func TestStateStreamIsWireRecords(t *testing.T) {
	root := newFabric(t, 1, 2, 0)[0]
	var urls []string
	for i := 1; i <= 3; i++ {
		spec := authorCourse(t, root, i)
		if _, err := root.Broadcast(spec.URL, i == 3); err != nil { // the third as a reference broadcast
			t.Fatal(err)
		}
		urls = append(urls, spec.URL)
	}
	out, err := root.handleState(func(v any) error {
		*v.(*StateRequest) = StateRequest{URLs: append(urls, "http://never/broadcast"), WantMedia: true}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := io.ReadAll(out.(io.Reader))
	if err != nil {
		t.Fatal(err)
	}
	if len(stream) == 0 || stream[0] != wire.RecordMagic {
		t.Fatalf("the state stream starts with 0x%02x, want the wire record magic", stream[:1])
	}
	records := bufio.NewReader(bytes.NewReader(stream))
	for i, url := range urls {
		payload, err := wire.ReadRecord(records, transport.MaxFrame)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		var doc stateDoc
		if err := wire.DecodeBody(payload, &doc); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		want, err := root.Store().ExportBundle(url)
		if err != nil {
			t.Fatal(err)
		}
		if doc.Entry.URL != url || doc.Entry.RefOnly != (i == 2) || !reflect.DeepEqual(doc.Bundle.Script, want.Script) {
			t.Errorf("record %d = %+v / script %+v", i, doc.Entry, doc.Bundle.Script)
		}
		if doc.Entry.RefOnly {
			if len(doc.Bundle.Media)+len(doc.Bundle.HTML) != 0 {
				t.Errorf("record %d: a reference entry shipped content", i)
			}
		} else if !reflect.DeepEqual(doc.Bundle.Media, want.Media) || len(want.Media) == 0 {
			t.Errorf("record %d: media differs from the root's bundle", i)
		}
	}
	if _, err := wire.ReadRecord(records, transport.MaxFrame); !errors.Is(err, io.EOF) {
		t.Fatalf("after the last record: %v, want io.EOF", err)
	}
}
