// Package blob implements the BLOB layer of the paper's three-layer
// database hierarchy: large multimedia resources (video, audio, still
// image, animation, MIDI) stored once per workstation and shared by
// every document-layer object that uses them. Storage is
// content-addressed so that "BLOB objects in the same station are shared
// as much as possible among different documents" (section 4), with
// reference counting to know when a resource may be evicted.
//
// The store persists as one sealed image of every object (persist.go),
// streamed out by Snapshot and read back by Restore. A restore reads
// each object's bytes from the reader once, into a buffer of exactly
// their size that the object then owns, and checks the image's CRC, its
// ascending hash order and every object's SHA-256 before the store
// changes. It runs on the caller's goroutine alone, so its cost does
// not depend on how many other cores happen to be idle.
//
// Stored bytes are immutable. Put copies what it is given; Adopt keeps
// the caller's slice itself, which is how a station stores media it
// received: the object's bytes stay in the frame buffer they arrived
// in, and that buffer lives until the last object aliasing it is
// released.
package blob

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Kind classifies a multimedia resource, following the BLOB-layer list
// in section 3 of the paper.
type Kind int

// Multimedia resource kinds.
const (
	KindVideo Kind = iota + 1
	KindAudio
	KindImage
	KindAnimation
	KindMIDI
	KindOther
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindVideo:
		return "video"
	case KindAudio:
		return "audio"
	case KindImage:
		return "image"
	case KindAnimation:
		return "animation"
	case KindMIDI:
		return "midi"
	case KindOther:
		return "other"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Ref identifies a stored BLOB. Refs are value objects: two resources
// with identical content share one Ref (and one copy on the station).
type Ref struct {
	Hash string // hex SHA-256 of the content
	Size int64
	Kind Kind
}

// Zero reports whether the ref is the zero value.
func (r Ref) Zero() bool { return r.Hash == "" }

// Store errors.
var (
	ErrNotFound    = errors.New("blob: no such object")
	ErrZeroRef     = errors.New("blob: zero reference")
	ErrOverRelease = errors.New("blob: release of unreferenced object")
)

type entry struct {
	data     []byte
	kind     Kind
	refcount int
	names    map[string]struct{} // logical names attached to the object
}

// Store is one workstation's BLOB store. It is safe for concurrent use.
type Store struct {
	mu      sync.RWMutex
	objects map[string]*entry

	logicalBytes  int64 // Σ size × refcount: what duplication would cost
	physicalBytes int64 // Σ size of distinct objects actually held
	putCount      int64
	dedupHits     int64
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{objects: make(map[string]*entry)}
}

// Put stores content under a logical name and returns its Ref with one
// reference held by the caller. Identical content is stored once; the
// second Put of the same bytes is a dedup hit that only bumps the
// refcount. A new object is a copy of data: the caller keeps its slice
// and may write to it afterwards.
func (s *Store) Put(name string, kind Kind, data []byte) Ref {
	return s.put(name, kind, data, true)
}

// Adopt is Put without the copy: a new object keeps data itself,
// capacity-clamped, as its stored bytes. The caller hands the bytes
// over and must never write to them again — the store, every View of
// them and every export of them read that very array. A dedup hit
// takes a reference on the resident object and retains nothing of
// data. Received media, which alias a frame buffer nothing writes
// into, are adopted; anything a caller may still mutate is Put.
func (s *Store) Adopt(name string, kind Kind, data []byte) Ref {
	return s.put(name, kind, data, false)
}

func (s *Store) put(name string, kind Kind, data []byte, copyData bool) Ref {
	sum := sha256.Sum256(data)
	h := hex.EncodeToString(sum[:])
	s.mu.Lock()
	defer s.mu.Unlock()
	s.putCount++
	e, ok := s.objects[h]
	if !ok {
		owned := data[:len(data):len(data)]
		if copyData {
			owned = make([]byte, len(data))
			copy(owned, data)
		}
		e = &entry{data: owned, kind: kind, names: make(map[string]struct{})}
		s.objects[h] = e
		s.physicalBytes += int64(len(data))
	} else {
		s.dedupHits++
	}
	e.refcount++
	if name != "" {
		e.names[name] = struct{}{}
	}
	s.logicalBytes += int64(len(data))
	return Ref{Hash: h, Size: int64(len(data)), Kind: e.kind}
}

// Get returns the content of a stored object. The returned slice is a
// copy; callers may mutate it freely.
func (s *Store) Get(ref Ref) ([]byte, error) {
	if ref.Zero() {
		return nil, ErrZeroRef
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.objects[ref.Hash]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, ref.Hash[:12])
	}
	out := make([]byte, len(e.data))
	copy(out, e.data)
	return out, nil
}

// View returns the content of a stored object without copying it. The
// slice is the store's own and is read-only: stored bytes are never
// mutated (a Put copies what it is given, an Adopt keeps bytes its
// caller will never write again, a Restore installs fresh buffers), so
// a view stays valid and unchanged for as long as it is referenced,
// even after the object is released. Callers that may write to the
// bytes use Get.
func (s *Store) View(ref Ref) ([]byte, error) {
	if ref.Zero() {
		return nil, ErrZeroRef
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.objects[ref.Hash]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, ref.Hash[:12])
	}
	return e.data[:len(e.data):len(e.data)], nil
}

// Has reports whether the object is resident on this station.
func (s *Store) Has(ref Ref) bool {
	if ref.Zero() {
		return false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.objects[ref.Hash]
	return ok
}

// Retain adds a reference to an existing object, as when a new document
// instance starts sharing a resident BLOB.
func (s *Store) Retain(ref Ref) error {
	if ref.Zero() {
		return ErrZeroRef
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.objects[ref.Hash]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, ref.Hash[:12])
	}
	e.refcount++
	s.logicalBytes += int64(len(e.data))
	return nil
}

// Release drops a reference. When the last reference goes away the
// object is evicted and its disk space reclaimed (the paper's
// buffer-space semantics for duplicated lecture material).
func (s *Store) Release(ref Ref) error {
	if ref.Zero() {
		return ErrZeroRef
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.objects[ref.Hash]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, ref.Hash[:12])
	}
	if e.refcount <= 0 {
		return fmt.Errorf("%w: %s", ErrOverRelease, ref.Hash[:12])
	}
	e.refcount--
	s.logicalBytes -= int64(len(e.data))
	if e.refcount == 0 {
		s.physicalBytes -= int64(len(e.data))
		delete(s.objects, ref.Hash)
	}
	return nil
}

// RefCount returns the current reference count of an object, zero when
// absent.
func (s *Store) RefCount(ref Ref) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if e, ok := s.objects[ref.Hash]; ok {
		return e.refcount
	}
	return 0
}

// Stats is a point-in-time accounting snapshot of the store.
type Stats struct {
	Objects       int   // distinct resident objects
	PhysicalBytes int64 // disk actually used
	LogicalBytes  int64 // disk that per-document duplication would use
	Puts          int64 // total Put calls
	DedupHits     int64 // Puts served by an already-resident object
}

// SharingFactor is logical/physical bytes: 1.0 means no sharing, higher
// means the station is avoiding that multiple of disk usage.
func (st Stats) SharingFactor() float64 {
	if st.PhysicalBytes == 0 {
		return 1
	}
	return float64(st.LogicalBytes) / float64(st.PhysicalBytes)
}

// Stats returns the current accounting snapshot.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Objects:       len(s.objects),
		PhysicalBytes: s.physicalBytes,
		LogicalBytes:  s.logicalBytes,
		Puts:          s.putCount,
		DedupHits:     s.dedupHits,
	}
}

// List returns the refs of all resident objects sorted by hash, for
// deterministic iteration in tests and replication.
func (s *Store) List() []Ref {
	s.mu.RLock()
	defer s.mu.RUnlock()
	refs := make([]Ref, 0, len(s.objects))
	for h, e := range s.objects {
		refs = append(refs, Ref{Hash: h, Size: int64(len(e.data)), Kind: e.kind})
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].Hash < refs[j].Hash })
	return refs
}

// Names returns the logical names attached to an object, sorted.
func (s *Store) Names(ref Ref) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.objects[ref.Hash]
	if !ok {
		return nil
	}
	names := make([]string, 0, len(e.names))
	for n := range e.names {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
