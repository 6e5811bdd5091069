package search

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/wire"
)

func sampleSidecar(t testing.TB) ([]byte, map[string]*doc) {
	t.Helper()
	ix := NewIndex()
	ix.IndexScript("os-course", "operating systems lecture", "Shih", []string{"os", "paging"})
	ix.IndexHTML("http://mmu/os", "index.html", []byte("<html><body>virtual memory and paging</body></html>"))
	sealed, err := ix.CaptureCheckpoint()()
	if err != nil {
		t.Fatal(err)
	}
	return sealed, ix.docs
}

// gobSidecar is a search-<gen> file as the pre-binary writer produced it.
func gobSidecar(t testing.TB, docs map[string]*doc) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(struct{ Docs map[string]*doc }{docs}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeSidecar: the one format round-trips, the sidecar the parent
// of the single-format readers wrote (see fixture_test.go) decodes, and
// everything else is an error — which RecoverCheckpoint answers with a
// rebuild, the sidecar being advisory.
func TestDecodeSidecar(t *testing.T) {
	sealed, want := sampleSidecar(t)
	got, err := decodeSidecar(sealed)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: err=%v\n got %+v\nwant %+v", err, got, want)
	}
	parent, err := os.ReadFile(filepath.Join("testdata", "parent-dir", "search-0000000001"))
	if err != nil {
		t.Fatal(err)
	}
	if docs, err := decodeSidecar(parent); err != nil || len(docs) != 3 {
		t.Fatalf("parent-written sidecar: %d docs, err=%v", len(docs), err)
	}
	for name, data := range map[string][]byte{
		"gob sidecar":          gobSidecar(t, want),
		"JSON line":            []byte(`{"seq":1,"commit":true}` + "\n"),
		"torn image":           sealed[:len(sealed)/2],
		"another file's magic": wire.SealImage(wire.BlobMagic, []byte{0}),
		"giant doc count":      wire.SealImage(wire.SearchMagic, wire.AppendUvarint(nil, 1<<62)),
		"giant token count":    wire.SealImage(wire.SearchMagic, wire.AppendUvarint([]byte{1, 0, 0, 0, 0}, 1<<62)),
	} {
		if docs, err := decodeSidecar(data); err == nil {
			t.Errorf("%s decoded to %d docs", name, len(docs))
		}
	}
}

// FuzzDecodeSidecar: no input makes the decoder panic or allocate
// beyond its input.
func FuzzDecodeSidecar(f *testing.F) {
	sealed, docs := sampleSidecar(f)
	f.Add(sealed)
	f.Add(gobSidecar(f, docs))
	f.Add([]byte(`{"seq":1,"commit":true}` + "\n"))
	f.Add(sealed[:len(sealed)/2])
	f.Add(wire.SealImage(wire.SearchMagic, wire.AppendUvarint(nil, 1<<62)))
	f.Add(wire.SealImage(wire.SearchMagic, wire.AppendUvarint([]byte{1, 0, 0, 0, 0}, 1<<62)))
	f.Fuzz(func(t *testing.T, data []byte) {
		docs, err := decodeSidecar(data)
		if err != nil {
			return
		}
		ix := NewIndex()
		ix.install(docs) // what RecoverCheckpoint does with an accepted sidecar
	})
}
