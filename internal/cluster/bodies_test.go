package cluster

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/docdb"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/transport"
)

// sampleBundle is a bundle with every list populated.
func sampleBundle() docdb.Bundle {
	at := time.Date(1999, 4, 21, 9, 0, 0, 0, time.UTC)
	media := bytes.Repeat([]byte{7}, 300)
	return docdb.Bundle{
		Script: docdb.Script{Name: "cs101", DBName: "mmu", Keywords: []string{"intro", "cs"}, Author: "shih",
			Version: 3, Created: at, Description: "Introduction", ExpectedCompletion: at.Add(time.Hour), PctComplete: 0.5},
		Impl:        docdb.Implementation{StartingURL: "http://mmu/cs101/v1", ScriptName: "cs101", Author: "shih", Created: at},
		HTML:        []docdb.File{{ID: "h1", StartingURL: "http://mmu/cs101/v1", Path: "index.html", Content: []byte("<html>")}},
		Programs:    []docdb.File{{ID: "p1", StartingURL: "http://mmu/cs101/v1", Path: "quiz.js", Language: "js", Content: []byte("x=1")}},
		Media:       []docdb.BundleMedia{{Name: "intro.mpg", Kind: blob.Kind(2), Hash: blob.HashOf(media), Data: media}},
		Annotations: []docdb.Annotation{{Name: "a1", ScriptName: "cs101", StartingURL: "http://mmu/cs101/v1", Author: "ma", Version: 1, Created: at, File: []byte("note")}},
	}
}

// TestEveryStationBodyRoundTrips sends the zero value and a fully
// populated value of every station RPC body through the transport's
// codec and compares what comes back.
func TestEveryStationBodyRoundTrips(t *testing.T) {
	hit := search.Hit{Key: "k", Kind: "html", URL: "http://mmu/cs101/v1", Path: "index.html", Score: 9, Station: 2, Snippet: "…intro…"}
	full := []any{
		struct{}{},
		PingReply{Pos: 3, Tables: []string{"scripts", "versions"}, Objects: 12},
		BundleRequest{URL: "http://mmu/cs101/v1"},
		sampleBundle(),
		ImportRequest{Bundle: sampleBundle(), Persistent: true},
		ImportReply{ObjectID: "obj-000001", Form: "instance"},
		SQLRequest{Stmt: "SELECT 1"},
		SQLReply{Columns: []string{"a", "b"}, Rows: [][]string{{"1", "NULL"}, {"2", "<3 bytes>"}}, Affected: 2, Msg: "ok"},
		SearchLocalRequest{Terms: []string{"intro", "cs"}, Phrase: true, TopK: 10},
		SearchLocalReply{Hits: []search.Hit{hit, hit}},
		CheckOutRequest{Kind: "script", ObjectID: "cs101", User: "shih"},
		CheckOutReply{CheckoutID: "co-000007"},
		CheckInRequest{CheckoutID: "co-000007", Comment: "revised"},
		CheckpointReply{Gen: 4, Seq: 900, Bytes: 1 << 20, Snapshot: "snap-4"},
		StatsReply{
			Pos: 2, Ops: map[string]int64{"Ping": 3, "SQL": 1}, BytesIn: 10, BytesOut: 20,
			Latency:  map[string]obs.Summary{"SQL": {Count: 1, Errors: 1, P50Ms: 0.5, P95Ms: 1, P99Ms: 2, MaxMs: 3, MeanMs: 0.7, TotalMs: 0.7}},
			Events:   map[string]int64{"health": 2},
			EventSeq: 44, Tables: 13, Objects: 5, CheckpointGen: 2, WALSeq: 77, WALTailBytes: 4096, Durable: true,
			BlobObjects: 9, PhysicalBytes: 1 << 20, LogicalBytes: 2 << 20,
			Indexed: true, IndexDocs: 40, IndexTerms: 400, IndexPostings: 4000,
		},
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

// TestCheckOutRequestGoldenBytes pins the body format: the two header
// bytes, then each field in declaration order behind its length, and
// nothing else. A diff here is a wire format change.
func TestCheckOutRequestGoldenBytes(t *testing.T) {
	body, err := transport.Marshal(CheckOutRequest{Kind: "script", ObjectID: "cs101", User: "shih"})
	if err != nil {
		t.Fatal(err)
	}
	want := "\xc0\x01" + "\x06script" + "\x05cs101" + "\x04shih"
	if string(body) != want {
		t.Fatalf("CheckOutRequest body = %q, want %q", body, want)
	}
}

// TestSmallBodyAllocations: a check-out request costs a handful of
// allocations to encode and decode — the boxed value, the body, the
// reader and the three strings — not a reflection walk's worth.
func TestSmallBodyAllocations(t *testing.T) {
	req := CheckOutRequest{Kind: "script", ObjectID: "cs101", User: "shih"}
	var out CheckOutRequest
	allocs := testing.AllocsPerRun(200, func() {
		body, err := transport.Marshal(req)
		if err == nil {
			err = transport.Unmarshal(body, &out)
		}
		if err != nil {
			t.Fatal(err)
		}
	})
	if out != req {
		t.Fatalf("decoded %+v", out)
	}
	if allocs > 8 {
		t.Errorf("a CheckOutRequest encode+decode pair allocates %.0f times, want <= 8", allocs)
	}
}

// TestBundleBodiesSkipThePlan: the Bundle reply is a self-encoding body
// and the bundle inside an ImportRequest rides behind a length as the
// same bytes, so media never goes through the field-by-field codec;
// decoded media aliases the body it arrived in.
func TestBundleBodiesSkipThePlan(t *testing.T) {
	b := sampleBundle()
	alone, err := transport.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	nested, err := transport.Marshal(ImportRequest{Bundle: b, Persistent: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(nested, alone) {
		t.Fatal("the ImportRequest body does not contain the bundle's own encoding verbatim")
	}
	var req ImportRequest
	if err := transport.Unmarshal(nested, &req); err != nil {
		t.Fatal(err)
	}
	media := req.Bundle.Media[0].Data
	if at := bytes.Index(nested, media); at < 0 || &nested[at] != &media[0] {
		t.Error("decoded media is a copy, not a view of the body")
	}
	var back docdb.Bundle
	if err := transport.Unmarshal(alone[:len(alone)-1], &back); err == nil {
		t.Error("a truncated bundle body decoded")
	}
	if err := transport.Unmarshal(append(bytes.Clone(alone), 0), &back); err == nil {
		t.Error("a bundle body with a trailing byte decoded")
	}
	if err := transport.Unmarshal(nested, &back); err == nil {
		t.Error("an ImportRequest body decoded as a bundle")
	}
}
