package docdb

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/minisql"
	"repro/internal/relstore"
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
	full.Media = []BundleMedia{medium("lecture.mpg", blob.KindVideo, bytes.Repeat([]byte{0xAB}, 300))}
	full.Annotations = []Annotation{{Name: "ann-1", ScriptName: "cs101", StartingURL: "http://mmu/cs101/v1",
		Author: "ta", Version: 1, Created: at, File: []byte("note")}}
	return closure, full
}

// medium is a bundle's medium named by its content hash, as
// ExportBundle fills it in.
func medium(name string, kind blob.Kind, data []byte) BundleMedia {
	return BundleMedia{Name: name, Kind: kind, Hash: blob.HashOf(data), Data: data}
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
// imports into a fresh store without a write into the body it came
// from and re-encodes to a fixed point.
func FuzzBundleDecodeWire(f *testing.F) {
	closure, full := sampleBundles()
	closureBody, fullBody := appendWire(f, closure), appendWire(f, full)
	flipped := bytes.Clone(fullBody)
	flipped[len(flipped)/3] ^= 0x40
	// The closure ends in four zero counts (pages, programs, media,
	// annotations); claim a giant page count instead.
	giant := wire.AppendUvarint(bytes.Clone(closureBody[:len(closureBody)-4]), 1<<62)
	giant = append(giant, 0, 0, 0)
	// A bundle that decodes but fails to import: its last annotation
	// names a script the store never gets.
	stray := full
	stray.Annotations = append(slices.Clip(full.Annotations), Annotation{Name: "stray", ScriptName: "no-such-script", StartingURL: full.Impl.StartingURL})
	for _, seed := range [][]byte{closureBody, fullBody, fullBody[:len(fullBody)/2], flipped, giant, appendWire(f, stray)} {
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
		importUntouched(t, data, &b)
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

// importUntouched imports b, decoded from body, into a fresh store,
// and returns the store, or nil when the import failed. Whether or not
// the import succeeds, body must come out byte for byte as it went in:
// the store adopts media that alias it and writes into none of them.
// When the import succeeds, every stored medium is filed under a
// decoded medium's name and hash, and reads back as the bytes of the
// first decoded medium carrying that hash: the store adopts a carried
// hash as given, so a later medium under the same hash shares the
// first one's object.
func importUntouched(t *testing.T, body []byte, b *Bundle) *Store {
	t.Helper()
	pristine := bytes.Clone(body)
	s := newStore(t)
	_, err := s.ImportBundle(b, 2, false)
	if !bytes.Equal(body, pristine) {
		t.Fatalf("importing the bundle (err %v) wrote into its body", err)
	}
	if err != nil {
		return nil
	}
	stored, err := s.ImplMedia(b.Impl.StartingURL)
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) != len(b.Media) {
		t.Fatalf("%d media stored, %d decoded", len(stored), len(b.Media))
	}
	for _, m := range stored {
		view, err := s.Blobs().View(m.Ref)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.ContainsFunc(b.Media, func(d BundleMedia) bool { return d.Name == m.Name && d.Hash == m.Ref.Hash }) {
			t.Fatalf("stored medium %q matches no decoded medium of that name and hash", m.Name)
		}
		first := slices.IndexFunc(b.Media, func(d BundleMedia) bool { return d.Hash == m.Ref.Hash })
		if !bytes.Equal(b.Media[first].Data, view) {
			t.Fatalf("stored medium %q does not read back as the first medium carrying its hash", m.Name)
		}
	}
	return s
}

// lectureBundle is sampleBundles' full bundle carrying four distinct
// 64 KB media, so that media are the bulk of its body, as in a pushed
// lecture.
func lectureBundle() Bundle {
	_, b := sampleBundles()
	b.Media = nil
	for i := 0; i < 4; i++ {
		b.Media = append(b.Media, medium(fmt.Sprintf("clip%d.mpg", i), blob.KindVideo,
			bytes.Repeat([]byte{byte(i + 1), 0x5A}, 32<<10)))
	}
	return b
}

// importCycle is one pre-broadcast on a receiving station: decode the
// received body, import the bundle, and migrate it back to a
// reference after the lecture.
func importCycle(tb testing.TB, s *Store, body []byte) {
	tb.Helper()
	var b Bundle
	if err := b.DecodeWire(body); err != nil {
		tb.Fatal(err)
	}
	obj, err := s.ImportBundle(&b, 2, false)
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.MigrateToReference(obj.ID, 1); err != nil {
		tb.Fatal(err)
	}
}

// aliases reports whether p is a slice of buf's backing array.
func aliases(buf, p []byte) bool {
	for i := range buf {
		if &buf[i] == &p[0] {
			return i+len(p) <= len(buf)
		}
	}
	return false
}

// TestImportAdoptsReceivedMedia: the media of a bundle decoded from its
// wire body are stored as the body's own bytes, not copies, and the
// import writes nothing into the body.
func TestImportAdoptsReceivedMedia(t *testing.T) {
	body := appendWire(t, lectureBundle())
	var b Bundle
	if err := b.DecodeWire(body); err != nil {
		t.Fatal(err)
	}
	s := importUntouched(t, body, &b)
	if s == nil {
		t.Fatal("the bundle failed to import")
	}
	stored, err := s.ImplMedia(b.Impl.StartingURL)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range stored {
		view, err := s.Blobs().View(m.Ref)
		if err != nil {
			t.Fatal(err)
		}
		if !aliases(body, view) {
			t.Errorf("medium %s was copied out of the body it arrived in", m.Name)
		}
	}
}

// TestImportFreesFramesAfterMigration: a station that adopts received
// media keeps each frame only while its media are referenced. Fifty
// lectures, each decoded from a fresh copy of the body and migrated
// away afterwards, leave the collected heap within two bodies of where
// the first one left it.
func TestImportFreesFramesAfterMigration(t *testing.T) {
	body := appendWire(t, lectureBundle())
	s := newStore(t)
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	importCycle(t, s, bytes.Clone(body))
	first := heap()
	for i := 1; i < 50; i++ {
		importCycle(t, s, bytes.Clone(body))
	}
	if grown := heap() - first; grown > 2*int64(len(body)) {
		t.Fatalf("heap grew %d bytes over 49 lectures of a %d-byte body: migrated frames are still pinned", grown, len(body))
	}
	if st := s.Blobs().Stats(); st.Objects != 0 {
		t.Fatalf("%d BLOB objects left after the last migration", st.Objects)
	}
}

// BenchmarkImportBundle is the receive side of a pushed lecture as one
// layer number: decode the body, import the bundle, migrate it back to
// a reference. The body is decoded in place every iteration, as a
// frame is, so B/op is what the import path allocates beyond the frame
// it received, and SetBytes is the media it carries.
func BenchmarkImportBundle(b *testing.B) {
	src := lectureBundle()
	body := appendWire(b, src)
	s, err := Open(relstore.NewDB(), blob.NewStore())
	if err != nil {
		b.Fatal(err)
	}
	var media int64
	for _, m := range src.Media {
		media += int64(len(m.Data))
	}
	b.SetBytes(media)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		importCycle(b, s, body)
	}
}

// TestImportAdoptsUnderTheCarriedHash: a receiving station files each
// medium under the hash the bundle carries and hashes nothing, even
// when the hash does not match the bytes — the trust rule puts that
// check where bytes enter the fabric and where they come back from
// disk, not on every hop.
func TestImportAdoptsUnderTheCarriedHash(t *testing.T) {
	src := newStore(t)
	_, url := seedCourse(t, src)
	b, err := src.ExportBundle(url)
	if err != nil {
		t.Fatal(err)
	}
	lied := blob.HashOf([]byte("not these bytes"))
	b.Media[0].Hash = lied
	dst := newStore(t)
	if _, err := dst.ImportBundle(b, 2, false); err != nil {
		t.Fatal(err)
	}
	stored, err := dst.ImplMedia(url)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range stored {
		if want := b.Media[slices.IndexFunc(b.Media, func(d BundleMedia) bool { return d.Name == m.Name })].Hash; m.Ref.Hash != want {
			t.Errorf("medium %s filed under %.12s, carried %.12s", m.Name, m.Ref.Hash, want)
		}
	}
	if st := dst.Blobs().Stats(); st.HashedBytes != 0 {
		t.Fatalf("the receiving station hashed %d bytes", st.HashedBytes)
	}
}

// TestImportRefusesMediaWithoutAHash: a medium with a missing or
// malformed hash fails the import with blob.ErrBadHash before anything
// is written — no rows, no scaffold, no BLOB references — and nothing
// falls back to hashing its bytes. So does a medium whose hash is
// resident at another length.
func TestImportRefusesMediaWithoutAHash(t *testing.T) {
	_, full := sampleBundles()
	for _, bad := range []string{"", "abc", strings.ToUpper(full.Media[0].Hash)} {
		b := full
		b.Media = []BundleMedia{full.Media[0]}
		b.Media[0].Hash = bad
		s := newStore(t)
		_, err := s.ImportBundle(&b, 2, false)
		if !errors.Is(err, blob.ErrBadHash) {
			t.Fatalf("hash %q: err = %v, want blob.ErrBadHash", bad, err)
		}
		if n, _ := s.Rel().Count("scripts"); n != 0 {
			t.Fatalf("hash %q: a refused import left %d script rows", bad, n)
		}
		if st := s.Blobs().Stats(); st.Objects != 0 || st.HashedBytes != 0 {
			t.Fatalf("hash %q: a refused import left BLOB stats %+v", bad, st)
		}
		if err := EncodeBundle(new(wire.Builder), &b); !errors.Is(err, blob.ErrBadHash) {
			t.Fatalf("hash %q: encoding err = %v, want blob.ErrBadHash", bad, err)
		}
	}

	s := newStore(t)
	b := full
	first := medium("first.mpg", blob.KindVideo, []byte("resident bytes"))
	twin := BundleMedia{Name: "twin.mpg", Kind: blob.KindVideo, Hash: first.Hash, Data: []byte("longer than the resident")}
	b.Media = []BundleMedia{first, twin}
	if _, err := s.ImportBundle(&b, 2, false); !errors.Is(err, blob.ErrSizeMismatch) {
		t.Fatalf("a hash resident at another length: err = %v, want blob.ErrSizeMismatch", err)
	}
	if st := s.Blobs().Stats(); st.Objects != 0 {
		t.Fatalf("a refused import kept %d BLOB objects", st.Objects)
	}
}

// TestBundleBodyOfAnotherVersionIsRefused: a version-1 bundle body —
// what a station on an older build sends — fails with wire.ErrCorrupt,
// and the error names the version it carries.
func TestBundleBodyOfAnotherVersionIsRefused(t *testing.T) {
	_, full := sampleBundles()
	body := appendWire(t, full)
	if body[1] != wire.BundleVersion {
		t.Fatalf("body version %d, want %d", body[1], wire.BundleVersion)
	}
	body[1] = 1
	var b Bundle
	err := b.DecodeWire(body)
	if !errors.Is(err, wire.ErrCorrupt) || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("version-1 body: err = %v, want wire.ErrCorrupt naming version 1", err)
	}
}

// TestExportOfAShortHashIsNotResident: an impl_media row whose
// blob_hash is shorter than the digits an error names — SQL can insert
// one — makes ExportBundle report ErrNotResident instead of panicking.
func TestExportOfAShortHashIsNotResident(t *testing.T) {
	s := newStore(t)
	_, url := seedCourse(t, s)
	stmt := fmt.Sprintf("INSERT INTO impl_media (res_id, starting_url, name, kind, blob_hash, size) VALUES ('res-short', '%s', 'short.gif', 3, 'abc', 3)", url)
	if _, err := minisql.NewSession(s.Rel()).Exec(stmt); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExportBundle(url); !errors.Is(err, ErrNotResident) {
		t.Fatalf("err = %v, want ErrNotResident", err)
	}
}
