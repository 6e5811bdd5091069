package docdb

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/wire"
)

// sampleBundles returns a document's metadata closure (what a
// reference broadcast and the rejoin stream ship) and its full bundle
// with pages, a program, media and an annotation.
func sampleBundles() (closure, full Bundle) {
	at := time.Date(1999, 4, 21, 9, 0, 0, 500, time.UTC)
	closure = Bundle{
		Script: Script{Name: "cs101", DBName: "mmu", Keywords: []string{"intro", "cs"}, Author: "shih",
			Version: 3, Created: at, Description: "Intro to CS", ExpectedCompletion: at.Add(time.Hour), PctComplete: 62.5},
		Impl: Implementation{StartingURL: "http://mmu/cs101/v1", ScriptName: "cs101", Author: "shih", Created: at},
	}
	full = closure
	full.HTML = []File{{ID: "h1", StartingURL: "http://mmu/cs101/v1", Path: "index.html", Content: []byte("<html>intro</html>")}}
	full.Programs = []File{{ID: "p1", StartingURL: "http://mmu/cs101/v1", Path: "quiz.js", Language: "js", Content: []byte("ask()")}}
	full.Media = []BundleMedia{{Name: "lecture.mpg", Kind: blob.KindVideo, Data: bytes.Repeat([]byte{0xAB}, 300)}}
	full.Annotations = []Annotation{{Name: "ann-1", ScriptName: "cs101", StartingURL: "http://mmu/cs101/v1",
		Author: "ta", Version: 1, Created: at, File: []byte("note")}}
	return closure, full
}

func appendWire(tb testing.TB, b Bundle) []byte {
	tb.Helper()
	body, err := b.AppendWire(nil)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// TestExportReferenceIsTheMetadataClosure: ExportReference ships the
// script and implementation rows ExportBundle starts from and nothing
// else, and a station holding only the reference can export it again.
func TestExportReferenceIsTheMetadataClosure(t *testing.T) {
	src := newStore(t)
	_, url := seedCourse(t, src)
	full, err := src.ExportBundle(url)
	if err != nil {
		t.Fatal(err)
	}
	closure, err := src.ExportReference(url)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Bundle{Script: full.Script, Impl: full.Impl}); !reflect.DeepEqual(*closure, want) {
		t.Fatalf("closure = %+v, want %+v", *closure, want)
	}
	dst := newStore(t)
	if _, err := dst.ImportReference(closure.Script, closure.Impl, 2, 1); err != nil {
		t.Fatal(err)
	}
	if again, err := dst.ExportReference(url); err != nil || again.Impl.StartingURL != url {
		t.Fatalf("re-export from the reference holder: %+v, %v", again, err)
	}
	if _, err := src.ExportReference("http://never/authored"); err == nil {
		t.Error("exported the closure of a URL the store never held")
	}
}

// FuzzBundleDecodeWire: hostile bundle bodies — every rejoin document
// decodes through this reader — are rejected with a corrupt-encoding
// error, never a panic or a runaway allocation, and anything accepted
// re-encodes to a fixed point.
func FuzzBundleDecodeWire(f *testing.F) {
	closure, full := sampleBundles()
	closureBody, fullBody := appendWire(f, closure), appendWire(f, full)
	flipped := bytes.Clone(fullBody)
	flipped[len(flipped)/3] ^= 0x40
	// The closure ends in four zero counts (pages, programs, media,
	// annotations); claim a giant page count instead.
	giant := wire.AppendUvarint(bytes.Clone(closureBody[:len(closureBody)-4]), 1<<62)
	giant = append(giant, 0, 0, 0)
	for _, seed := range [][]byte{closureBody, fullBody, fullBody[:len(fullBody)/2], flipped, giant} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var b Bundle
		if err := b.DecodeWire(data); err != nil {
			if !errors.Is(err, wire.ErrCorrupt) {
				t.Fatalf("err = %v, want a corrupt-encoding error", err)
			}
			return
		}
		again := appendWire(t, b)
		var back Bundle
		if err := back.DecodeWire(again); err != nil {
			t.Fatalf("re-encoded bundle rejected: %v", err)
		}
		if final := appendWire(t, back); !bytes.Equal(final, again) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}
