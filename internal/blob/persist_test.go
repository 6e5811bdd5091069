package blob

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
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

// TestRestoreVerifiesContentHash: a content byte flipped inside the
// image is not the index's to catch. The image restores, and the
// object's first read fails its hash.
func TestRestoreVerifiesContentHash(t *testing.T) {
	s := NewStore()
	ref := s.Put("x", KindOther, []byte("payload"))
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	idx := bytes.Index(raw, []byte("payload"))
	if idx < 0 {
		t.Fatal("payload not found in snapshot")
	}
	raw[idx] ^= 0xFF
	s2 := NewStore()
	if err := s2.Restore(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	if got, err := s2.View(ref); !errors.Is(err, ErrHashMismatch) || got != nil {
		t.Fatalf("View of the corrupted object = %q, %v; want ErrHashMismatch", got, err)
	}
	if st := s2.Stats(); st.VerifyFailures != 1 || st.LoadedBytes != int64(len("payload")) {
		t.Fatalf("stats %+v, want one failure after loading the object's 7 bytes", st)
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

// snapshotEntry is one object of an image a test builds by hand.
type snapshotEntry struct {
	Hash     string
	Kind     Kind
	Refcount int
	Names    []string
	Data     []byte
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

// sealEntries lays hand-built entries out the way Snapshot would, so a
// test can hold what no Store would ever write. Each Hash is the hex
// of the 32 bytes the index carries.
func sealEntries(entries ...snapshotEntry) []byte {
	index := wire.AppendUvarint(nil, uint64(len(entries)))
	var data []byte
	for _, e := range entries {
		raw, err := hex.DecodeString(e.Hash)
		if err != nil || len(raw) != HashSize {
			panic(fmt.Sprintf("sealEntries: %q is not a hex SHA-256", e.Hash))
		}
		index = append(index, raw...)
		index = wire.AppendUvarint(index, uint64(e.Kind))
		index = wire.AppendUvarint(index, uint64(e.Refcount))
		index = wire.AppendUvarint(index, uint64(len(e.Names)))
		for _, n := range e.Names {
			index = wire.AppendString(index, n)
		}
		index = wire.AppendUvarint(index, uint64(len(e.Data)))
		data = append(data, e.Data...)
	}
	return append(wire.AppendSealed(nil, wire.BlobMagic, index), data...)
}

// wholeImage is an image in the layout before the index: one sealed
// image with each object's hex hash and bytes inline.
func wholeImage(entries ...snapshotEntry) []byte {
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
	return wire.SealImage(wholeImageMagic, payload)
}

// TestRestoreRejectsHostileInput: one reader, one format. Everything
// else — what the gob writer produced, a JSON line, the layout before
// the index, and images whose index lies or whose length does not
// match it — is a clean error that leaves the store as it was.
func TestRestoreRejectsHostileInput(t *testing.T) {
	good := NewStore().Put("", KindOther, []byte("payload")).Hash
	other := NewStore().Put("", KindOther, []byte("another")).Hash
	image := sealEntries(snapshotEntry{Hash: good, Kind: KindOther, Refcount: 1, Data: []byte("payload")})
	flipped := bytes.Clone(image)
	flipped[8] ^= 1 // inside the hash in the index
	for _, tc := range []struct {
		name, want string
		data       []byte
	}{
		{"gob sidecar", "predates the binary format", gobSidecar(t)},
		{"JSON line", "predates the binary format", []byte(`{"seq":1,"commit":true}` + "\n")},
		{"text", "predates the binary format", []byte("junk")},
		{"empty file", "too short", nil},
		{"another file's magic", "magic", wire.AppendSealed(nil, wire.SnapMagic, []byte{0})},
		{"the layout before the index", ErrOldLayout.Error(), wholeImage(snapshotEntry{Hash: good, Kind: KindOther, Refcount: 1, Data: []byte("payload")})},
		{"flipped index byte", "checksum", flipped},
		{"no references", "reference count 0", sealEntries(snapshotEntry{Hash: good, Kind: KindOther, Data: []byte("payload")})},
		{"reference count beyond any station", "reference count", sealEntries(snapshotEntry{Hash: good, Kind: KindOther, Refcount: 1 << 40, Data: []byte("payload")})},
		{"entry count beyond the index", "truncated", wire.AppendSealed(nil, wire.BlobMagic, wire.AppendUvarint(nil, 1<<62))},
		{"entry count beyond what the index can hold", "objects in", wire.AppendSealed(nil, wire.BlobMagic, append(wire.AppendUvarint(nil, 2), make([]byte, 40)...))},
		{"name cut short", "truncated", wire.AppendSealed(nil, wire.BlobMagic, append(append(wire.AppendUvarint(nil, 1), make([]byte, HashSize)...), 1, 1, 1, 5, 'a'))},
		{"image cut inside an object", "ends inside object", image[:len(image)-1]},
		{"image cut at the index", "ends inside object", image[:len(image)-len("payload")]},
		{"bytes past the last object", "1 past its last object", append(bytes.Clone(image), 0)},
		{"one object listed twice", good[:12] + " twice", duplicateEntries(good)},
		{"entries out of hash order", min(good, other)[:12] + " is out of hash order", reversedEntries([]byte("payload"), []byte("another"))},
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

// duplicateEntries lists one object twice, with different reference
// counts and kinds — entries a merge would fold into refcount 3.
func duplicateEntries(hash string) []byte {
	return sealEntries(
		snapshotEntry{Hash: hash, Kind: KindOther, Refcount: 1, Data: []byte("payload")},
		snapshotEntry{Hash: hash, Kind: KindImage, Refcount: 2, Data: []byte("payload")},
	)
}

// reversedEntries lists two objects in descending hash order, so the
// second entry's hash is the smaller of the two.
func reversedEntries(a, b []byte) []byte {
	ea := snapshotEntry{Hash: NewStore().Put("", KindOther, a).Hash, Kind: KindOther, Refcount: 1, Data: a}
	eb := snapshotEntry{Hash: NewStore().Put("", KindOther, b).Hash, Kind: KindOther, Refcount: 1, Data: b}
	if ea.Hash < eb.Hash {
		ea, eb = eb, ea
	}
	return sealEntries(ea, eb)
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

// FuzzRestore: no input makes Restore panic or spin; in a store it
// accepts, every object's first read loads bytes that hash to its name
// or fails with ErrHashMismatch, and the store snapshots to an image
// that restores to the same store. Half the inputs are snapshotted
// before they are read, so the copy of unloaded objects is fuzzed too.
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
	f.Add(valid.Bytes()[:valid.Len()/2])                                                               // torn
	f.Add(wire.AppendSealed(nil, wire.BlobMagic, wire.AppendUvarint(nil, 1<<62)))                      // giant entry count
	f.Add(sealEntries(snapshotEntry{Hash: HashOf([]byte("x")), Refcount: 1 << 62, Data: []byte("x")})) // giant refcount
	f.Add(duplicateEntries(NewStore().Put("", KindOther, []byte("payload")).Hash))
	f.Add(reversedEntries([]byte("payload"), []byte("another")))
	f.Add(sealEntries(snapshotEntry{Hash: HashOf([]byte("another")), Kind: KindOther, Refcount: 1, Data: []byte("payload")})) // a hash over other bytes
	f.Add(wholeImage(snapshotEntry{Hash: HashOf([]byte("payload")), Kind: KindOther, Refcount: 1, Data: []byte("payload")}))  // the layout before the index
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewStore()
		if err := s.Restore(bytes.NewReader(data)); err != nil {
			if s.Stats().Objects != 0 {
				t.Fatal("failed Restore left objects behind")
			}
			return
		}
		var again bytes.Buffer
		if len(data)%2 == 0 {
			if err := s.Snapshot(&again); err != nil {
				t.Fatal(err)
			}
		}
		for _, ref := range s.List() {
			got, err := s.View(ref)
			if err == nil && HashOf(got) != ref.Hash {
				t.Fatalf("View of %.12s returned bytes that hash to %.12s", ref.Hash, HashOf(got))
			}
			if err != nil && (!errors.Is(err, ErrHashMismatch) || got != nil) {
				t.Fatalf("View of %.12s: %d bytes, err = %v, want its bytes or ErrHashMismatch", ref.Hash, len(got), err)
			}
		}
		if again.Len() == 0 {
			if err := s.Snapshot(&again); err != nil {
				t.Fatal(err)
			}
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

// TestSnapshotMatchesCheckedInSidecar: a store restored from a
// checked-in sidecar, and not read, snapshots to that very file: the
// objects' bytes are copied from it without being loaded. The fixture
// is the blobs-<gen> sidecar of a station directory an earlier build
// wrote, transcoded object for object into the indexed layout.
func TestSnapshotMatchesCheckedInSidecar(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "search", "testdata", "positional-dir", "blobs-0000000001"))
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore()
	if err := s.Restore(bytes.NewReader(want)); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Objects == 0 {
		t.Fatal("fixture restored no objects")
	}
	var got bytes.Buffer
	if err := s.Snapshot(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("snapshot of the restored fixture is %d bytes and differs from the %d-byte file", got.Len(), len(want))
	}
	if st := s.Stats(); st.LoadedBytes != 0 || st.Unverified != st.Objects {
		t.Fatalf("the snapshot loaded objects: %+v", st)
	}
}

// TestRestoreRefusesTheLayoutBeforeTheIndex: the sidecar the parent
// station directory carries, written before the index, is refused with
// ErrOldLayout, and the store is left as it was.
func TestRestoreRefusesTheLayoutBeforeTheIndex(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("..", "search", "testdata", "parent-dir", "blobs-0000000001"))
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore()
	kept := s.Put("kept", KindOther, []byte("resident"))
	if err := s.Restore(bytes.NewReader(old)); !errors.Is(err, ErrOldLayout) {
		t.Fatalf("Restore err = %v, want ErrOldLayout", err)
	}
	if st := s.Stats(); st.Objects != 1 || s.RefCount(kept) != 1 {
		t.Fatalf("a refused image changed the store: %+v", st)
	}
}

// mediaStore fills a store with about 10 MB of distinct objects of
// mixed sizes and returns it with its media byte count.
func mediaStore() (*Store, int64) {
	s := NewStore()
	for i := 0; s.Stats().PhysicalBytes < 10<<20; i++ {
		data := bytes.Repeat([]byte{byte(i)}, 4<<10+i*37<<10%(700<<10))
		binary.PutUvarint(data, uint64(i))
		s.Put(fmt.Sprintf("m%d", i), KindVideo, data)
	}
	return s, s.Stats().PhysicalBytes
}

// allocated reports the bytes f allocates.
func allocated(f func()) int64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// TestRestoreCopiesMediaOnce: restoring an image of N media bytes, in
// memory or over a file, allocates a small fraction of N and loads
// none of it; reading every object then copies each object's bytes out
// of the image once, into a buffer of their own size, and the second
// read of each copies nothing.
func TestRestoreCopiesMediaOnce(t *testing.T) {
	src, n := mediaStore()
	var img bytes.Buffer
	if err := src.Snapshot(&img); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "blobs")
	if err := os.WriteFile(path, img.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for name, r := range map[string]io.Reader{
		"memory": bytes.NewReader(img.Bytes()),
		"file":   io.NewSectionReader(f, 0, int64(img.Len())),
	} {
		s := NewStore()
		got := allocated(func() {
			if err := s.Restore(r); err != nil {
				t.Fatal(err)
			}
		})
		if got, want := s.Stats(), src.Stats(); got.Objects != want.Objects || got.PhysicalBytes != n || got.LogicalBytes != want.LogicalBytes || got.LoadedBytes != 0 {
			t.Fatalf("%s: restored %+v, want %+v and nothing loaded", name, got, want)
		}
		if limit := n / 100; got > limit {
			t.Errorf("%s: Restore of %d media bytes allocated %d (%.3f N), want at most 0.01 N", name, n, got, float64(got)/float64(n))
		}
		readAll := func() {
			for _, ref := range s.List() {
				if _, err := s.View(ref); err != nil {
					t.Fatal(err)
				}
			}
		}
		first, second := allocated(readAll), allocated(readAll)
		if first < n || first > n*11/10 || second > n/100 {
			t.Errorf("%s: reading every object allocated %d bytes, then %d; want about N = %d, then almost none", name, first, second, n)
		}
		if st := s.Stats(); st.LoadedBytes != n || st.HashedBytes != n || st.Unverified != 0 {
			t.Errorf("%s: after reading every object twice: %+v, want %d bytes loaded and hashed", name, st, n)
		}
		t.Logf("%s: Restore allocated %.4f N, the first reads %.2f N", name, float64(got)/float64(n), float64(first)/float64(n))
	}
}

// TestSnapshotStreams: writing an image allocates a small fraction of
// the media it carries — no image-sized buffer, no sealed copy of it.
func TestSnapshotStreams(t *testing.T) {
	s, n := mediaStore()
	got := allocated(func() {
		if err := s.Snapshot(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	if limit := n / 10; got > limit {
		t.Errorf("Snapshot of %d media bytes allocated %d (%.2f N), want at most 0.1 N", n, got, float64(got)/float64(n))
	}
	t.Logf("Snapshot allocated %.3f N", float64(got)/float64(n))
}

// TestRestoreChecksEveryObjectsHash: wherever it sits in the image, an
// object whose bytes do not match its name restores, and its first
// read — View or Get — fails with ErrHashMismatch naming it, as does
// every read after; every other object serves its bytes.
func TestRestoreChecksEveryObjectsHash(t *testing.T) {
	src, _ := mediaStore()
	var entries []snapshotEntry
	for _, ref := range src.List() {
		data, err := src.Get(ref)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, snapshotEntry{Hash: ref.Hash, Kind: ref.Kind, Refcount: 1, Data: data})
	}
	for _, i := range []int{0, len(entries) / 2, len(entries) - 1} {
		entries[i].Data[len(entries[i].Data)-1] ^= 1
		s := NewStore()
		if err := s.Restore(bytes.NewReader(sealEntries(entries...))); err != nil {
			t.Fatalf("object %d of %d altered: %v", i, len(entries), err)
		}
		read := s.View
		if i%2 == 1 {
			read = s.Get
		}
		for j, e := range entries {
			ref := Ref{Hash: e.Hash, Size: int64(len(e.Data)), Kind: e.Kind}
			got, err := read(ref)
			if j != i {
				if err != nil || !bytes.Equal(got, e.Data) {
					t.Errorf("object %d of %d altered: object %d read %d bytes, %v", i, len(entries), j, len(got), err)
				}
				continue
			}
			for k := 0; k < 2; k++ { // the first read, and one after
				if err == nil || !errors.Is(err, ErrHashMismatch) || !strings.Contains(err.Error(), e.Hash) || got != nil {
					t.Errorf("object %d of %d altered: read %d returned %d bytes, err = %v, want ErrHashMismatch naming %s", i, len(entries), k+1, len(got), err, e.Hash)
				}
				got, err = s.Get(ref)
			}
		}
		if st := s.Stats(); st.Objects != len(entries) || st.Unverified != 0 || st.VerifyFailures != 1 {
			t.Errorf("object %d of %d altered: stats after reading every object %+v, want %d objects, none unverified, one failure", i, len(entries), st, len(entries))
		}
		entries[i].Data[len(entries[i].Data)-1] ^= 1
	}
}

// restoredStore returns a store restored from an image of objects, each
// named by its own hash unless forged names it by another's.
func restoredStore(t *testing.T, objects [][]byte, forged map[int][]byte) *Store {
	t.Helper()
	var entries []snapshotEntry
	for i, data := range objects {
		hash := HashOf(data)
		if claimed, ok := forged[i]; ok {
			hash = HashOf(claimed)
		}
		entries = append(entries, snapshotEntry{Hash: hash, Kind: KindOther, Refcount: 1, Names: []string{fmt.Sprint("n", i)}, Data: data})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Hash < entries[j].Hash })
	s := NewStore()
	if err := s.Restore(bytes.NewReader(sealEntries(entries...))); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPutSettlesARestoredObject: a Put dedup hit on a restored object
// nobody has read yet settles its check with the bytes Put has just
// hashed. Equal bytes verify it, so its first read hashes nothing;
// other bytes are replaced by the Put's copy, which keeps the object's
// references and names and is what every read then returns.
func TestPutSettlesARestoredObject(t *testing.T) {
	good, bad, claimed := []byte("lecture video"), []byte("forged audio"), []byte("lecture audio")
	s := restoredStore(t, [][]byte{good, bad}, map[int][]byte{1: claimed})
	goodRef := s.Put("again", KindOther, good)
	badRef := s.Put("again", KindOther, claimed)
	hashed := int64(len(good) + len(claimed))
	if st := s.Stats(); st.Unverified != 0 || st.VerifyFailures != 1 || st.HashedBytes != hashed || st.DedupHits != 2 || st.PhysicalBytes != int64(len(good)+len(claimed)) || st.LogicalBytes != 2*st.PhysicalBytes {
		t.Fatalf("after the Puts: %+v", st)
	}
	for ref, want := range map[Ref][]byte{goodRef: good, badRef: claimed} {
		if got, err := s.View(ref); err != nil || !bytes.Equal(got, want) {
			t.Errorf("View %.12s = %q, %v; want %q", ref.Hash, got, err, want)
		}
		if s.RefCount(ref) != 2 || len(s.Names(ref)) != 2 {
			t.Errorf("%.12s: refcount %d names %v, want both the restored and the Put's", ref.Hash, s.RefCount(ref), s.Names(ref))
		}
	}
	if got := s.Stats().HashedBytes; got != hashed {
		t.Errorf("reads after the Puts hashed %d bytes", got-hashed)
	}
}

// TestAdoptRepairsAFailedObject: once a restored object's first read
// has failed, adopting its hash again replaces its bytes, keeping its
// references and names, instead of taking a reference on bytes no
// reader may have: pulling the medium again repairs the station.
func TestAdoptRepairsAFailedObject(t *testing.T) {
	bad, claimed := []byte("forged audio"), []byte("lecture audio")
	s := restoredStore(t, [][]byte{bad}, map[int][]byte{0: claimed})
	ref := Ref{Hash: HashOf(claimed)}
	if _, err := s.View(ref); !errors.Is(err, ErrHashMismatch) {
		t.Fatalf("first read of the forged object: err = %v, want ErrHashMismatch", err)
	}
	if _, err := s.Adopt("pulled", KindOther, ref.Hash, bytes.Clone(claimed)); err != nil {
		t.Fatal(err)
	}
	if got, err := s.View(ref); err != nil || !bytes.Equal(got, claimed) {
		t.Fatalf("View after the adoption = %q, %v; want %q", got, err, claimed)
	}
	if s.RefCount(ref) != 2 || len(s.Names(ref)) != 2 {
		t.Errorf("refcount %d names %v, want both the restored and the adopted", s.RefCount(ref), s.Names(ref))
	}
	if st := s.Stats(); st.VerifyFailures != 1 || st.HashedBytes != int64(len(bad)) || st.PhysicalBytes != int64(len(claimed)) || st.LogicalBytes != 2*st.PhysicalBytes {
		t.Errorf("stats %+v", st)
	}
}

// TestConcurrentFirstReads: many readers make the first read of one
// restored object at once, while another restored object is retained,
// released and deduplicated onto by a Put. Every reader gets the same
// correct bytes, the object is hashed exactly once, and no read after
// that check hashes.
func TestConcurrentFirstReads(t *testing.T) {
	target, other := bytes.Repeat([]byte("lecture"), 64<<10), []byte("slide image")
	s := restoredStore(t, [][]byte{target, other}, nil)
	ref := Ref{Hash: HashOf(target)}
	otherRef := Ref{Hash: HashOf(other)}
	const readers = 8
	start := make(chan struct{})
	views := make([][]byte, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			read := s.View
			if i%2 == 1 {
				read = s.Get
			}
			data, err := read(ref)
			if err != nil {
				t.Error(err)
			}
			views[i] = data
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 50; i++ {
			if err := s.Retain(otherRef); err != nil {
				t.Error(err)
			}
			if err := s.Release(otherRef); err != nil {
				t.Error(err)
			}
		}
		s.Put("dedup", KindOther, other)
	}()
	close(start)
	wg.Wait()
	for i, v := range views {
		if !bytes.Equal(v, target) {
			t.Errorf("reader %d got %d bytes, not the object", i, len(v))
		}
	}
	want := int64(len(target) + len(other))
	if st := s.Stats(); st.HashedBytes != want || st.Unverified != 0 || st.VerifyFailures != 0 || s.RefCount(otherRef) != 2 {
		t.Fatalf("after the readers: %+v, refcount %d; want %d bytes hashed: the object once and the Put's", st, s.RefCount(otherRef), want)
	}
	for _, r := range []Ref{ref, otherRef} {
		if _, err := s.View(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().HashedBytes; got != want {
		t.Fatalf("reads after the check hashed %d bytes", got-want)
	}
}
