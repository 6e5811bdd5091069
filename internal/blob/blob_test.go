package blob

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestPutGetRoundTrip(t *testing.T) {
	s := NewStore()
	data := []byte("a short video")
	ref := s.Put("clip.mpg", KindVideo, data)
	if ref.Size != int64(len(data)) || ref.Kind != KindVideo {
		t.Fatalf("ref = %+v", ref)
	}
	got, err := s.Get(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("content mismatch")
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := NewStore()
	ref := s.Put("x", KindImage, []byte{1, 2, 3})
	got, _ := s.Get(ref)
	got[0] = 99
	again, _ := s.Get(ref)
	if again[0] != 1 {
		t.Error("mutation leaked into the store")
	}
}

// TestViewIsTheStoredBytes: View hands out the stored bytes without a
// copy, capacity-capped so an append cannot write into the store, and
// a view outlives the object's release unchanged.
func TestViewIsTheStoredBytes(t *testing.T) {
	s := NewStore()
	ref := s.Put("x", KindImage, []byte{1, 2, 3})
	a, err := s.View(ref)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := s.View(ref)
	if &a[0] != &b[0] || cap(a) != len(a) {
		t.Fatal("View copied the stored bytes or left room to append into them")
	}
	if err := s.Release(ref); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, []byte{1, 2, 3}) {
		t.Fatal("a view changed after the object was released")
	}
	if _, err := s.View(ref); !errors.Is(err, ErrNotFound) {
		t.Fatalf("View of a released object: err = %v, want ErrNotFound", err)
	}
}

func TestPutOwnsItsData(t *testing.T) {
	s := NewStore()
	data := []byte{1, 2, 3}
	ref := s.Put("x", KindImage, data)
	data[0] = 99
	got, _ := s.Get(ref)
	if got[0] != 1 {
		t.Error("caller mutation leaked into the store")
	}
}

// adopt is Adopt for a test that expects it to succeed.
func adopt(t *testing.T, s *Store, name string, kind Kind, hash string, data []byte) Ref {
	t.Helper()
	ref, err := s.Adopt(name, kind, hash, data)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestAdoptKeepsTheCallersBytes pins Adopt's contract: a new object is
// the caller's own array, capacity-clamped, under the hash it was
// handed; a dedup hit keeps the first object's bytes and retains
// nothing of the second slice; Release to zero evicts the object as for
// Put; and none of it hashes a byte.
func TestAdoptKeepsTheCallersBytes(t *testing.T) {
	s := NewStore()
	frame := make([]byte, 8192)
	for i := range frame {
		frame[i] = byte(i * 7)
	}
	data := frame[100:4196] // a medium in the middle of its frame
	sum := sha256.Sum256(data)
	hash := hex.EncodeToString(sum[:])
	ref := adopt(t, s, "clip.mpg", KindVideo, hash, data)
	if want := (Ref{Hash: hash, Size: int64(len(data)), Kind: KindVideo}); ref != want {
		t.Fatalf("ref = %+v, want %+v", ref, want)
	}
	view, err := s.View(ref)
	if err != nil {
		t.Fatal(err)
	}
	if &view[0] != &data[0] || len(view) != len(data) || cap(view) != len(view) {
		t.Fatalf("View is not the adopted array capacity-clamped: len %d cap %d", len(view), cap(view))
	}

	want := bytes.Clone(data)
	second := bytes.Clone(data)
	freed := make(chan struct{})
	runtime.SetFinalizer(&second[0], func(*byte) { close(freed) })
	if again := adopt(t, s, "copy.mpg", KindVideo, hash, second); again != ref {
		t.Fatalf("dedup hit ref = %+v, want %+v", again, ref)
	}
	second[0] ^= 0xFF // the caller breaks its promise; the store must not see it
	second = nil
	if st := s.Stats(); st.Objects != 1 || st.DedupHits != 1 || st.HashedBytes != 0 || s.RefCount(ref) != 2 {
		t.Fatalf("after the dedup hit: stats %+v, refcount %d", st, s.RefCount(ref))
	}
	if view, _ := s.View(ref); &view[0] != &data[0] || !bytes.Equal(view, want) {
		t.Fatal("a dedup hit replaced or changed the first object's bytes")
	}
	if !retainsNothing(freed) {
		t.Fatal("the store retained the second slice of a dedup hit")
	}

	for i := 0; i < 2; i++ {
		if err := s.Release(ref); err != nil {
			t.Fatal(err)
		}
	}
	if s.Has(ref) {
		t.Fatal("adopted object survived its last release")
	}
	if st := s.Stats(); st.Objects != 0 || st.PhysicalBytes != 0 || st.LogicalBytes != 0 {
		t.Fatalf("stats after eviction = %+v", st)
	}
}

// TestAdoptTrustsTheCarriedHash: Adopt stores bytes under the hash it
// is handed without checking it — that is the receiving station's
// saving — but refuses a hash that is not one, and a dedup hit whose
// length differs from the resident object's, leaving the store as it
// was either way.
func TestAdoptTrustsTheCarriedHash(t *testing.T) {
	s := NewStore()
	wrong := HashOf([]byte("some other content"))
	ref := adopt(t, s, "clip.mpg", KindVideo, wrong, []byte("these bytes"))
	if got, _ := s.View(ref); ref.Hash != wrong || string(got) != "these bytes" {
		t.Fatalf("adopted under %.12s as %q", ref.Hash, got)
	}
	if st := s.Stats(); st.HashedBytes != 0 {
		t.Fatalf("Adopt hashed %d bytes", st.HashedBytes)
	}
	for _, bad := range []string{"", "abc", strings.ToUpper(wrong), wrong[:63] + "g", wrong + "0"} {
		if _, err := s.Adopt("x", KindVideo, bad, []byte("x")); !errors.Is(err, ErrBadHash) {
			t.Errorf("Adopt under %q: err = %v, want ErrBadHash", bad, err)
		}
	}
	if _, err := s.Adopt("short.mpg", KindVideo, wrong, []byte("these")); !errors.Is(err, ErrSizeMismatch) {
		t.Fatalf("dedup hit of another length: err = %v, want ErrSizeMismatch", err)
	}
	if st := s.Stats(); st.Objects != 1 || st.Puts != 1 || st.DedupHits != 0 || s.RefCount(ref) != 1 {
		t.Fatalf("refused adoptions changed the store: %+v, refcount %d", st, s.RefCount(ref))
	}
}

// TestHashedBytesCountsEveryHash: Put and Verify hash the bytes they
// are given, Restore hashes nothing, and the first read of a restored
// object hashes it once; Stats.HashedBytes says how many bytes.
func TestHashedBytesCountsEveryHash(t *testing.T) {
	s := NewStore()
	data := []byte("authored media")
	ref := s.Put("a", KindImage, data)
	s.Put("b", KindImage, data) // a dedup hit still hashes
	if got := s.Stats().HashedBytes; got != 2*int64(len(data)) {
		t.Fatalf("after two Puts: hashed %d bytes, want %d", got, 2*len(data))
	}
	if err := s.Verify(ref.Hash, data); err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(ref.Hash, []byte("authored medib")); !errors.Is(err, ErrHashMismatch) || !strings.Contains(err.Error(), ref.Hash[:12]) {
		t.Fatalf("Verify of other bytes: err = %v, want ErrHashMismatch naming %.12s", err, ref.Hash)
	}
	if got := s.Stats().HashedBytes; got != 4*int64(len(data)) {
		t.Fatalf("after two Verifies: hashed %d bytes, want %d", got, 4*len(data))
	}
	var image bytes.Buffer
	if err := s.Snapshot(&image); err != nil {
		t.Fatal(err)
	}
	restored := NewStore()
	if err := restored.Restore(&image); err != nil {
		t.Fatal(err)
	}
	if st := restored.Stats(); st.HashedBytes != 0 || st.Unverified != 1 {
		t.Fatalf("after Restore: hashed %d bytes with %d objects unverified, want 0 and 1", st.HashedBytes, st.Unverified)
	}
	for i, want := range []int64{int64(len(data)), int64(len(data))} {
		if view, err := restored.View(ref); err != nil || !bytes.Equal(view, data) {
			t.Fatalf("View %d: %q, %v", i+1, view, err)
		}
		if st := restored.Stats(); st.HashedBytes != want || st.Unverified != 0 || st.VerifyFailures != 0 {
			t.Fatalf("after View %d: %+v, want %d bytes hashed and nothing unverified", i+1, st, want)
		}
	}
}

// TestShortHashIsNotFound: a hash shorter than the twelve digits an
// error names — one a hand-written SQL row can hold — is an absent
// object, not a panic.
func TestShortHashIsNotFound(t *testing.T) {
	s := NewStore()
	s.Put("x", KindImage, []byte("resident"))
	ref := Ref{Hash: "abc", Size: 3, Kind: KindImage}
	if _, err := s.Get(ref); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get: %v", err)
	}
	if _, err := s.View(ref); !errors.Is(err, ErrNotFound) {
		t.Errorf("View: %v", err)
	}
	if err := s.Retain(ref); !errors.Is(err, ErrNotFound) {
		t.Errorf("Retain: %v", err)
	}
	if err := s.Release(ref); !errors.Is(err, ErrNotFound) || !strings.Contains(err.Error(), "abc") {
		t.Errorf("Release: %v", err)
	}
}

// retainsNothing collects garbage until the finalizer behind freed has
// run, giving up after a second.
func retainsNothing(freed <-chan struct{}) bool {
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		select {
		case <-freed:
			return true
		case <-time.After(10 * time.Millisecond):
		}
	}
	return false
}

func TestDedupIdenticalContent(t *testing.T) {
	s := NewStore()
	data := bytes.Repeat([]byte("media"), 1000)
	r1 := s.Put("lecture1/clip", KindAudio, data)
	r2 := s.Put("lecture2/clip", KindAudio, data)
	if r1.Hash != r2.Hash {
		t.Fatal("identical content produced different refs")
	}
	st := s.Stats()
	if st.Objects != 1 {
		t.Errorf("objects = %d, want 1", st.Objects)
	}
	if st.PhysicalBytes != int64(len(data)) {
		t.Errorf("physical = %d, want %d", st.PhysicalBytes, len(data))
	}
	if st.LogicalBytes != 2*int64(len(data)) {
		t.Errorf("logical = %d, want %d", st.LogicalBytes, 2*len(data))
	}
	if st.DedupHits != 1 {
		t.Errorf("dedupHits = %d, want 1", st.DedupHits)
	}
	if got := st.SharingFactor(); got != 2.0 {
		t.Errorf("sharing factor = %v, want 2", got)
	}
	if s.RefCount(r1) != 2 {
		t.Errorf("refcount = %d, want 2", s.RefCount(r1))
	}
}

func TestReleaseEvictsAtZero(t *testing.T) {
	s := NewStore()
	ref := s.Put("x", KindMIDI, []byte("notes"))
	if err := s.Retain(ref); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(ref); err != nil {
		t.Fatal(err)
	}
	if !s.Has(ref) {
		t.Fatal("object evicted while referenced")
	}
	if err := s.Release(ref); err != nil {
		t.Fatal(err)
	}
	if s.Has(ref) {
		t.Fatal("object survived last release")
	}
	st := s.Stats()
	if st.PhysicalBytes != 0 || st.LogicalBytes != 0 || st.Objects != 0 {
		t.Errorf("stats after eviction = %+v", st)
	}
	if err := s.Release(ref); !errors.Is(err, ErrNotFound) {
		t.Errorf("release after eviction: %v", err)
	}
}

// TestRecountSetsCountsFromRows: each resident object takes the count
// given for it, an object given none is evicted, a count for an absent
// object installs nothing, and the byte accounting follows.
func TestRecountSetsCountsFromRows(t *testing.T) {
	s := NewStore()
	kept := s.Put("kept", KindAudio, []byte("kept bytes"))
	gone := s.Put("gone", KindImage, []byte("gone"))
	s.Recount(map[string]int{kept.Hash: 3, HashOf([]byte("absent")): 2})
	if got := s.RefCount(kept); got != 3 {
		t.Errorf("refcount = %d, want 3", got)
	}
	if s.Has(gone) {
		t.Error("an object no row names survived the recount")
	}
	st := s.Stats()
	if st.Objects != 1 || st.PhysicalBytes != kept.Size || st.LogicalBytes != 3*kept.Size {
		t.Errorf("stats after recount = %+v", st)
	}
	for i := 0; i < 3; i++ {
		if err := s.Release(kept); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); s.Has(kept) || st.PhysicalBytes != 0 || st.LogicalBytes != 0 {
		t.Errorf("after three releases: resident %v, stats %+v", s.Has(kept), st)
	}
}

func TestRetainMissing(t *testing.T) {
	s := NewStore()
	err := s.Retain(Ref{Hash: "deadbeefdeadbeef", Size: 1})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestZeroRefRejected(t *testing.T) {
	s := NewStore()
	if _, err := s.Get(Ref{}); !errors.Is(err, ErrZeroRef) {
		t.Errorf("Get: %v", err)
	}
	if err := s.Retain(Ref{}); !errors.Is(err, ErrZeroRef) {
		t.Errorf("Retain: %v", err)
	}
	if err := s.Release(Ref{}); !errors.Is(err, ErrZeroRef) {
		t.Errorf("Release: %v", err)
	}
	if s.Has(Ref{}) {
		t.Error("Has(zero) = true")
	}
}

func TestNamesAccumulate(t *testing.T) {
	s := NewStore()
	data := []byte("shared")
	s.Put("b-name", KindImage, data)
	ref := s.Put("a-name", KindImage, data)
	names := s.Names(ref)
	if len(names) != 2 || names[0] != "a-name" || names[1] != "b-name" {
		t.Errorf("names = %v", names)
	}
}

func TestListSorted(t *testing.T) {
	s := NewStore()
	for i := 0; i < 10; i++ {
		s.Put(fmt.Sprintf("n%d", i), KindOther, []byte{byte(i)})
	}
	refs := s.List()
	if len(refs) != 10 {
		t.Fatalf("len = %d", len(refs))
	}
	for i := 1; i < len(refs); i++ {
		if refs[i-1].Hash >= refs[i].Hash {
			t.Fatal("List not sorted")
		}
	}
}

func TestKindString(t *testing.T) {
	kinds := map[Kind]string{
		KindVideo: "video", KindAudio: "audio", KindImage: "image",
		KindAnimation: "animation", KindMIDI: "midi", KindOther: "other",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %s", k, k.String())
		}
	}
	if Kind(42).String() != "Kind(42)" {
		t.Errorf("unknown kind: %s", Kind(42).String())
	}
}

func TestConcurrentPutsAndReleases(t *testing.T) {
	s := NewStore()
	const workers = 8
	const perWorker = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Half the content is shared across workers, half unique.
				var data []byte
				if i%2 == 0 {
					data = []byte(fmt.Sprintf("shared-%d", i))
				} else {
					data = []byte(fmt.Sprintf("unique-%d-%d", w, i))
				}
				ref := s.Put("n", KindOther, data)
				if _, err := s.Get(ref); err != nil {
					t.Error(err)
					return
				}
				if err := s.Release(ref); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.Objects != 0 || st.PhysicalBytes != 0 {
		t.Errorf("store not empty after balanced put/release: %+v", st)
	}
}

// Property: physical bytes always equal the sum of distinct content
// sizes, and logical bytes equal Σ size × refcount, across arbitrary
// put/retain/release interleavings.
func TestQuickAccountingInvariant(t *testing.T) {
	f := func(ops []uint8) bool {
		s := NewStore()
		type live struct {
			ref Ref
			n   int
		}
		pool := map[string]*live{} // content key -> state
		contents := []string{"a", "bb", "ccc", "dddd", "eeeee"}
		for _, op := range ops {
			key := contents[int(op)%len(contents)]
			l := pool[key]
			switch (op / 8) % 3 {
			case 0: // put
				ref := s.Put("n", KindOther, []byte(key))
				if l == nil {
					l = &live{ref: ref}
					pool[key] = l
				}
				l.n++
			case 1: // retain
				if l != nil && l.n > 0 {
					if err := s.Retain(l.ref); err != nil {
						return false
					}
					l.n++
				}
			case 2: // release
				if l != nil && l.n > 0 {
					if err := s.Release(l.ref); err != nil {
						return false
					}
					l.n--
				}
			}
		}
		var wantPhysical, wantLogical int64
		var wantObjects int
		for key, l := range pool {
			if l.n > 0 {
				wantObjects++
				wantPhysical += int64(len(key))
				wantLogical += int64(len(key)) * int64(l.n)
			}
		}
		st := s.Stats()
		return st.Objects == wantObjects && st.PhysicalBytes == wantPhysical && st.LogicalBytes == wantLogical
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
