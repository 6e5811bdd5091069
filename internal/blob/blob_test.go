package blob

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
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
