package blob

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"

	"repro/internal/wire"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s := NewStore()
	r1 := s.Put("a.gif", KindImage, []byte("image-bytes"))
	s.Put("b.gif", KindImage, []byte("image-bytes")) // shared content, refcount 2
	r2 := s.Put("c.wav", KindAudio, []byte("audio-bytes"))
	if err := s.Retain(r2); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	s2 := NewStore()
	if err := s2.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if got, want := s2.Stats(), s.Stats(); got.Objects != want.Objects ||
		got.PhysicalBytes != want.PhysicalBytes || got.LogicalBytes != want.LogicalBytes {
		t.Errorf("stats after restore = %+v, want %+v", got, want)
	}
	if s2.RefCount(r1) != 2 {
		t.Errorf("shared object refcount = %d, want 2", s2.RefCount(r1))
	}
	if s2.RefCount(r2) != 2 {
		t.Errorf("retained object refcount = %d, want 2", s2.RefCount(r2))
	}
	data, err := s2.Get(r1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, []byte("image-bytes")) {
		t.Error("content corrupted across snapshot")
	}
	names := s2.Names(r1)
	if len(names) != 2 || names[0] != "a.gif" || names[1] != "b.gif" {
		t.Errorf("names = %v", names)
	}
}

func TestRestoreVerifiesContentHash(t *testing.T) {
	s := NewStore()
	s.Put("x", KindOther, []byte("payload"))
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt one content byte inside the image.
	raw := buf.Bytes()
	idx := bytes.Index(raw, []byte("payload"))
	if idx < 0 {
		t.Fatal("payload not found in snapshot")
	}
	raw[idx] ^= 0xFF
	s2 := NewStore()
	if err := s2.Restore(bytes.NewReader(raw)); err == nil {
		t.Fatal("corrupted snapshot accepted")
	}
}

func TestSnapshotEmptyStore(t *testing.T) {
	s := NewStore()
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	s2 := NewStore()
	if err := s2.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if s2.Stats().Objects != 0 {
		t.Error("empty snapshot produced objects")
	}
}

// gobSidecar is a blobs-<gen> file as the pre-binary writer produced it.
func gobSidecar(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode([]snapshotEntry{
		{Hash: NewStore().Put("", KindImage, []byte("image-bytes")).Hash, Kind: KindImage, Refcount: 1, Names: []string{"a.gif"}, Data: []byte("image-bytes")},
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sealEntries seals hand-built entries the way Snapshot would, so a
// test can hold what no Store would ever write.
func sealEntries(entries ...snapshotEntry) []byte {
	payload := wire.AppendUvarint(nil, uint64(len(entries)))
	for _, e := range entries {
		payload = wire.AppendString(payload, e.Hash)
		payload = wire.AppendUvarint(payload, uint64(e.Kind))
		payload = wire.AppendUvarint(payload, uint64(e.Refcount))
		payload = wire.AppendUvarint(payload, uint64(len(e.Names)))
		for _, n := range e.Names {
			payload = wire.AppendString(payload, n)
		}
		payload = wire.AppendBytes(payload, e.Data)
	}
	return wire.SealImage(wire.BlobMagic, payload)
}

// TestRestoreRejectsHostileInput: one reader, one format. Everything
// else — what the gob writer produced, a JSON line, and sealed images
// whose entries lie — is a clean error that leaves the store as it was.
func TestRestoreRejectsHostileInput(t *testing.T) {
	good := NewStore().Put("", KindOther, []byte("payload")).Hash
	for _, tc := range []struct {
		name, want string
		data       []byte
	}{
		{"gob sidecar", "predates the binary format", gobSidecar(t)},
		{"JSON line", "predates the binary format", []byte(`{"seq":1,"commit":true}` + "\n")},
		{"text", "predates the binary format", []byte("junk")},
		{"empty file", "too short", nil},
		{"another file's magic", "magic", wire.SealImage(wire.SnapMagic, []byte{0})},
		{"short hash, no references", "reference count 0", sealEntries(snapshotEntry{Hash: "abc", Kind: KindOther, Data: []byte("payload")})},
		{"short hash, wrong content", "content verification", sealEntries(snapshotEntry{Hash: "abc", Kind: KindOther, Refcount: 1, Data: []byte("payload")})},
		{"empty hash", "content verification", sealEntries(snapshotEntry{Kind: KindOther, Refcount: 1, Data: []byte("payload")})},
		{"negative reference count", "reference count -1", sealEntries(snapshotEntry{Hash: good, Kind: KindOther, Refcount: -1, Data: []byte("payload")})},
		{"reference count beyond any station", "reference count", sealEntries(snapshotEntry{Hash: good, Kind: KindOther, Refcount: 1 << 40, Data: []byte("payload")})},
		{"entry count beyond the input", "truncated", wire.SealImage(wire.BlobMagic, wire.AppendUvarint(nil, 1<<62))},
	} {
		s := NewStore()
		kept := s.Put("kept", KindOther, []byte("resident"))
		err := s.Restore(bytes.NewReader(tc.data))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
		if st := s.Stats(); st.Objects != 1 || s.RefCount(kept) != 1 {
			t.Errorf("%s: failed Restore changed the store: %+v", tc.name, st)
		}
	}
}

// TestRestoreAcceptsUnnamedAndSharedObjects: an object Put without a
// name snapshots with no names, and a reference count far beyond one
// is a number, not a loop of Retains.
func TestRestoreAcceptsUnnamedAndSharedObjects(t *testing.T) {
	hash := NewStore().Put("", KindOther, []byte("payload")).Hash
	s := NewStore()
	if err := s.Restore(bytes.NewReader(sealEntries(snapshotEntry{Hash: hash, Kind: KindOther, Refcount: 1 << 30, Data: []byte("payload")}))); err != nil {
		t.Fatal(err)
	}
	ref := Ref{Hash: hash, Size: 7, Kind: KindOther}
	if s.RefCount(ref) != 1<<30 || len(s.Names(ref)) != 0 {
		t.Fatalf("refcount = %d names = %v", s.RefCount(ref), s.Names(ref))
	}
	if st := s.Stats(); st.LogicalBytes != 7<<30 || st.PhysicalBytes != 7 {
		t.Fatalf("stats = %+v", st)
	}
}

// FuzzRestore: no input makes Restore panic or spin; a store it
// accepts snapshots to an image that restores to the same store.
func FuzzRestore(f *testing.F) {
	src := NewStore()
	src.Put("a.gif", KindImage, []byte("image-bytes"))
	src.Put("b.gif", KindImage, []byte("image-bytes"))
	src.Put("", KindAudio, []byte("audio-bytes"))
	var valid bytes.Buffer
	if err := src.Snapshot(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(gobSidecar(f))
	f.Add([]byte(`{"seq":1,"commit":true}` + "\n"))
	f.Add(valid.Bytes()[:valid.Len()/2])                                                 // torn
	f.Add(wire.SealImage(wire.BlobMagic, wire.AppendUvarint(nil, 1<<62)))                // giant entry count
	f.Add(sealEntries(snapshotEntry{Hash: "abc", Refcount: 1 << 62, Data: []byte("x")})) // short hash, giant refcount
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewStore()
		if err := s.Restore(bytes.NewReader(data)); err != nil {
			if s.Stats().Objects != 0 {
				t.Fatal("failed Restore left objects behind")
			}
			return
		}
		var again bytes.Buffer
		if err := s.Snapshot(&again); err != nil {
			t.Fatal(err)
		}
		s2 := NewStore()
		if err := s2.Restore(&again); err != nil {
			t.Fatalf("re-encoded snapshot rejected: %v", err)
		}
		if got, want := s2.Stats(), s.Stats(); got.Objects != want.Objects || got.PhysicalBytes != want.PhysicalBytes || got.LogicalBytes != want.LogicalBytes {
			t.Fatalf("stats after round trip = %+v, want %+v", got, want)
		}
	})
}
