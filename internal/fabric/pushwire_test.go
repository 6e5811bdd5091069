package fabric

import (
	"bytes"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/docdb"
	"repro/internal/transport"
	"repro/internal/wire"
)

// samplePush is a small push that exercises every field of the body:
// both file lists, media, annotations, keywords, zero and non-zero
// times, a negative watermark, a roster and a down-set.
func samplePush() PushRequest {
	at := time.Date(1999, 4, 21, 8, 0, 0, 123456789, time.UTC)
	url := "http://mmu/course-001/v1"
	bundle := docdb.Bundle{
		Script: docdb.Script{
			Name: "course-001", DBName: "mmu", Keywords: []string{"icpp", "web"},
			Author: "shih", Version: 3, Created: at, Description: "distance learning",
			PctComplete: 62.5, // ExpectedCompletion stays zero
		},
		Impl: docdb.Implementation{StartingURL: url, ScriptName: "course-001", Author: "shih", Created: at},
		HTML: []docdb.File{
			{ID: url + "#index.html", StartingURL: url, Path: "index.html", Content: []byte("<html>lecture one</html>")},
			{ID: url + "#empty.html", StartingURL: url, Path: "empty.html"},
		},
		Programs: []docdb.File{
			{ID: url + "#quiz.js", StartingURL: url, Path: "quiz.js", Language: "javascript", Content: []byte("grade()")},
		},
		Media: []docdb.BundleMedia{
			medium("image-0001.gif", blob.KindImage, bytes.Repeat([]byte{0x47, 0x49, 0x46}, 40)),
			medium("talk.mid", blob.KindMIDI, []byte{1, 2, 3}),
		},
		Annotations: []docdb.Annotation{
			{Name: "ann-1", ScriptName: "course-001", StartingURL: url, Author: "ma", Version: 2, Created: at, File: []byte("line 1 2 3 4")},
		},
	}
	second := docdb.Bundle{
		// A zero float would make its flipped sign bit (-0) compare equal.
		Script: docdb.Script{Name: "course-002", DBName: "mmu", PctComplete: 10},
		Impl:   docdb.Implementation{StartingURL: "http://mmu/course-002/v1", ScriptName: "course-002"},
	}
	return PushRequest{
		Bundles: []docdb.Bundle{bundle, second},
		RefOnly: false,
		Topology: Topology{
			M: 3, N: 7, Watermark: -1, Epoch: 12,
			Roster: map[int]string{1: "127.0.0.1:7070", 2: "127.0.0.1:7071", 5: "10.0.0.5:7070"},
			Down:   map[int]bool{4: true, 6: true},
		},
	}
}

// medium is a bundle's medium named by its content hash, as
// ExportBundle fills it in.
func medium(name string, kind blob.Kind, data []byte) docdb.BundleMedia {
	return docdb.BundleMedia{Name: name, Kind: kind, Hash: blob.HashOf(data), Data: data}
}

func encodePush(t testing.TB, req PushRequest) []byte {
	t.Helper()
	body, err := transport.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestPushBodyRoundTrip(t *testing.T) {
	want := samplePush()
	body := encodePush(t, want)
	var got PushRequest
	if err := transport.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the request:\n got %+v\nwant %+v", got, want)
	}
	// The encoding is deterministic (maps go out in position order), so
	// equal requests are equal bytes — what lets a relay test compare
	// bodies instead of values.
	if again := encodePush(t, want); !bytes.Equal(again, body) {
		t.Error("two encodes of one request differ")
	}

	ref := want
	ref.RefOnly = true
	ref.Down = nil
	var gotRef PushRequest
	if err := transport.Unmarshal(encodePush(t, ref), &gotRef); err != nil || !reflect.DeepEqual(gotRef, ref) {
		t.Fatalf("reference push: %+v, %v", gotRef, err)
	}
}

// TestPushBodyMediaAliasesTheBody pins the ownership rule: media bytes
// are views into the body, page bytes are copies.
func TestPushBodyMediaAliasesTheBody(t *testing.T) {
	body := encodePush(t, samplePush())
	var got PushRequest
	if err := got.DecodeWire(body); err != nil {
		t.Fatal(err)
	}
	media := got.Bundles[0].Media[0].Data
	page := got.Bundles[0].HTML[0].Content
	for i := range body {
		body[i] = 0
	}
	if !bytes.Equal(media, make([]byte, len(media))) {
		t.Error("media bytes were copied out of the body; they should alias it")
	}
	if string(page) != "<html>lecture one</html>" {
		t.Error("page bytes alias the body; the relational engine keeps them, so they must be copies")
	}
}

func TestPushBodyRejectsEveryTruncation(t *testing.T) {
	body := encodePush(t, samplePush())
	for n := 0; n < len(body); n++ {
		var got PushRequest
		if err := got.DecodeWire(body[:n:n]); !errors.Is(err, ErrBadBody) {
			t.Fatalf("body cut to %d of %d bytes: err = %v", n, len(body), err)
		}
	}
	var got PushRequest
	if err := got.DecodeWire(append(body[:len(body):len(body)], 0)); !errors.Is(err, ErrBadBody) {
		t.Fatalf("trailing byte accepted: %v", err)
	}
}

// TestPushBodyFlippedByteNeverPassesForTheOriginal flips every bit of
// every byte. A body has no checksum of its own (the frame's CRC32C is
// what catches this on the wire), so some flips decode — a media byte
// is a media byte — but none may decode to the request that was sent,
// and none may panic.
func TestPushBodyFlippedByteNeverPassesForTheOriginal(t *testing.T) {
	want := samplePush()
	body := encodePush(t, want)
	for i := range body {
		for bit := 0; bit < 8; bit++ {
			mutated := append([]byte(nil), body...)
			mutated[i] ^= 1 << bit
			var got PushRequest
			if err := got.DecodeWire(mutated); err != nil {
				if !errors.Is(err, ErrBadBody) {
					t.Fatalf("byte %d bit %d: err = %v, want ErrBadBody", i, bit, err)
				}
				continue
			}
			if reflect.DeepEqual(got, want) {
				t.Fatalf("byte %d bit %d: a corrupted body decoded to the original request", i, bit)
			}
		}
	}
}

func TestPushBodyWithoutBundlesIsRejected(t *testing.T) {
	empty := samplePush()
	empty.Bundles = nil
	var got PushRequest
	err := got.DecodeWire(encodePush(t, empty))
	if !errors.Is(err, ErrBadBody) {
		t.Fatalf("zero-bundle push: err = %v", err)
	}
	// A gob body (what a pre-binary peer would send) is not a push body
	// either: nothing is sniffed, nothing falls back.
	var legacy bytes.Buffer
	if err := gob.NewEncoder(&legacy).Encode(samplePush()); err != nil {
		t.Fatal(err)
	}
	if err := transport.Unmarshal(legacy.Bytes(), &got); !errors.Is(err, ErrBadBody) {
		t.Fatalf("gob-encoded push: err = %v", err)
	}
}

func TestResolveReplyRoundTrip(t *testing.T) {
	want := ResolveReply{Bundle: samplePush().Bundles[0], ServedBy: 4}
	body, err := transport.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got ResolveReply
	if err := transport.Unmarshal(body, &got); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: %+v, %v", got, err)
	}
	for n := 0; n < len(body); n++ {
		if err := got.DecodeWire(body[:n:n]); !errors.Is(err, ErrBadBody) {
			t.Fatalf("reply cut to %d of %d bytes: err = %v", n, len(body), err)
		}
	}
	// A push body is not a reply body.
	if err := got.DecodeWire(encodePush(t, samplePush())); !errors.Is(err, ErrBadBody) {
		t.Fatalf("push body accepted as a reply: %v", err)
	}
}

// TestBodiesOfAnotherVersionAreRefused: a version-1 push or resolve
// reply — what a station on an older build sends, its media carrying
// no hash — fails with ErrBadBody, and the error names the version.
func TestBodiesOfAnotherVersionAreRefused(t *testing.T) {
	push := encodePush(t, samplePush())
	reply, err := transport.Marshal(ResolveReply{Bundle: samplePush().Bundles[0], ServedBy: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what   string
		body   []byte
		decode func([]byte) error
	}{
		{"push", push, new(PushRequest).DecodeWire},
		{"resolve reply", reply, new(ResolveReply).DecodeWire},
	} {
		if c.body[1] != wire.BundleVersion {
			t.Fatalf("%s body version %d, want %d", c.what, c.body[1], wire.BundleVersion)
		}
		old := bytes.Clone(c.body)
		old[1] = 1
		err := c.decode(old)
		if !errors.Is(err, ErrBadBody) || !strings.Contains(err.Error(), c.what+" body version 1") {
			t.Errorf("version-1 %s: err = %v, want ErrBadBody naming version 1", c.what, err)
		}
	}

	// The committed seed is a push a version-1 build really encoded.
	seed, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecodePush", "version_1_push"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(seed), "\n")
	quoted, ok := strings.CutSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
	body, uerr := strconv.Unquote(quoted)
	if !ok || uerr != nil {
		t.Fatalf("version_1_push is not a fuzz seed file: %q", lines[1])
	}
	var req PushRequest
	if err := req.DecodeWire([]byte(body)); !errors.Is(err, ErrBadBody) || !strings.Contains(err.Error(), "push body version 1") {
		t.Fatalf("the version-1 seed: err = %v, want ErrBadBody naming version 1", err)
	}
}

// FuzzDecodePush: hostile push bodies are rejected with errors, never
// panics or runaway allocations, and anything accepted survives a
// re-encode unchanged.
func FuzzDecodePush(f *testing.F) {
	f.Add(encodePush(f, samplePush()))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req PushRequest
		if err := req.DecodeWire(data); err != nil {
			if !errors.Is(err, ErrBadBody) {
				t.Fatalf("err = %v, want ErrBadBody", err)
			}
			return
		}
		again, err := req.AppendWire(nil)
		if err != nil {
			t.Fatal(err)
		}
		var back PushRequest
		if err := back.DecodeWire(again); err != nil {
			t.Fatalf("re-encoded body rejected: %v", err)
		}
		if final, _ := back.AppendWire(nil); !bytes.Equal(final, again) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}
