// Package blob implements the BLOB layer of the paper's three-layer
// database hierarchy: large multimedia resources (video, audio, still
// image, animation, MIDI) stored once per workstation and shared by
// every document-layer object that uses them. Storage is
// content-addressed so that "BLOB objects in the same station are shared
// as much as possible among different documents" (section 4), with
// reference counting to know when a resource may be evicted.
//
// The store persists as an image (persist.go): a sealed index of every
// object, then their bytes, streamed out by Snapshot and read back by
// Restore. A restore reads the index alone and checks its CRC, its
// ascending hash order, the reference counts and that the image is
// exactly as long as the index says before the store changes. It reads
// and hashes no object's bytes: each object it installs is unloaded,
// and its first read loads it from the image into a buffer of exactly
// its size and hashes it. It runs on the caller's goroutine alone, so
// its cost does not depend on how many other cores happen to be idle.
//
// Stored bytes are immutable. Put copies what it is given; Adopt keeps
// the caller's slice itself, which is how a station stores media it
// received: the object's bytes stay in the frame buffer they arrived
// in, and that buffer lives until the last object aliasing it is
// released.
//
// Content is hashed where bytes enter the fabric and where they are
// first read back from disk, and nowhere between. Put hashes what an
// author stores, Verify hashes what a client hands a station, and the
// first View or Get of a restored object loads and hashes it: a match
// verifies the object for good, a mismatch fails that read and every
// later one with ErrHashMismatch, so bytes that fail their hash are
// never returned. Adopt takes the hash a bundle carries from the
// station that sent it and hashes nothing: between stations the
// frame's CRC32C guards transit. Stats.HashedBytes counts every byte
// the store has hashed, and Stats.LoadedBytes every byte first reads
// have loaded from an image.
package blob

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
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
	// ErrBadHash reports a hash that is not the 64 lowercase hex digits
	// of a SHA-256, or that is missing.
	ErrBadHash = errors.New("blob: malformed content hash")
	// ErrHashMismatch reports bytes whose SHA-256 is not the hash they
	// were handed in under.
	ErrHashMismatch = errors.New("blob: content does not match its hash")
	// ErrSizeMismatch reports an adopted object whose length differs
	// from the resident object stored under the same hash.
	ErrSizeMismatch = errors.New("blob: size differs from the resident object")
)

// HashSize is the length of a raw SHA-256 hash, as a bundle carries it.
const HashSize = sha256.Size

// HashOf returns the hex SHA-256 under which a store keeps data. It is
// a pure function: only the store's own hashing counts in
// Stats.HashedBytes.
func HashOf(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// ValidHash reports whether h is the 64 lowercase hex digits HashOf
// returns. Uppercase digits are refused: they would key a second copy
// of content already stored under the lowercase form.
func ValidHash(h string) bool {
	if len(h) != 2*HashSize {
		return false
	}
	for i := 0; i < len(h); i++ {
		if c := h[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// The states of an object. Put and Adopt store verified objects, whose
// bytes are in memory; Restore stores unloaded ones, whose bytes are
// in the image it read, and their first read (or a Put or Adopt of the
// same hash) settles them. A failed object's bytes are in the image
// and fail their hash.
const (
	verified uint32 = iota
	unloaded
	failed
)

type entry struct {
	// data holds a verified object's bytes. It is set before the state
	// becomes verified, under the store's write lock, and never written
	// again, so a reader that has seen verified reads it without the
	// lock.
	data     []byte
	size     int64
	kind     Kind
	refcount int
	names    map[string]struct{} // logical names attached to the object; nil until one is

	// src and off locate a restored object's bytes in its image; never
	// written once stored.
	src io.ReaderAt
	off int64

	state atomic.Uint32 // verified, unloaded or failed; leaves unloaded under the store's write lock
	check sync.Once     // runs the first-read load of an unloaded object once
}

// Store is one workstation's BLOB store. It is safe for concurrent use.
type Store struct {
	mu      sync.RWMutex
	objects map[string]*entry

	logicalBytes   int64 // Σ size × refcount: what duplication would cost
	physicalBytes  int64 // Σ size of distinct objects actually held
	putCount       int64
	dedupHits      int64
	unverified     int   // resident objects whose state is unloaded
	verifyFailures int64 // objects whose check failed

	// Kept outside mu: Verify and a first read hash, and a first read
	// loads, without the store lock.
	hashedBytes atomic.Int64
	loadedBytes atomic.Int64
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{objects: make(map[string]*entry)}
}

// Put stores content under a logical name and returns its Ref with one
// reference held by the caller. Identical content is stored once; the
// second Put of the same bytes is a dedup hit that only bumps the
// refcount. A new object is a copy of data: the caller keeps its slice
// and may write to it afterwards. Put hashes data: it is how bytes an
// author made enter the store.
//
// A dedup hit on a restored object not yet read settles it without
// reading it: a copy of data, which Put has just hashed, becomes its
// bytes. An object whose bytes have failed their hash, or whose image
// gives it another length than data's, is replaced by that copy
// instead, keeping its references and names.
func (s *Store) Put(name string, kind Kind, data []byte) Ref {
	h := HashOf(data)
	s.hashedBytes.Add(int64(len(data)))
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.objects[h]
	switch {
	case !ok:
		e = s.insertLocked(h, kind, bytes.Clone(data))
	case e.state.Load() == verified:
		s.dedupHits++
	case e.state.Load() == unloaded && e.size == int64(len(data)):
		s.fillLocked(h, e, bytes.Clone(data))
		s.dedupHits++
	default:
		e = s.replaceLocked(h, e, bytes.Clone(data))
		s.dedupHits++
	}
	return s.referLocked(h, e, name)
}

// Adopt stores data under hash, the hex SHA-256 the station that sent
// it computed, without hashing it again and without a copy: a new
// object keeps data itself, capacity-clamped, as its stored bytes. The
// caller hands the bytes over and must never write to them again — the
// store, every View of them and every export of them read that very
// array. A hash the store already holds is a dedup hit: it takes a
// reference on the resident object, touches no byte of data and
// retains nothing of it, but data must be as long as the resident
// object (ErrSizeMismatch otherwise). A hit on a restored object not
// yet read settles it without reading it: data becomes its bytes, as
// for a new object. A hash that is not ValidHash fails with
// ErrBadHash. Either error leaves the store unchanged.
//
// Adopt trusts hash: a new object is verified from the start. Bytes
// whose hash nobody has checked — from a client rather than another
// station — go through Verify first; an adopted object whose bytes do
// not match its hash is written to the next snapshot as it is, and
// after a Restore of that snapshot its first read fails with
// ErrHashMismatch. A resident object whose bytes have failed their
// hash is no dedup target: data replaces its bytes, as it would stand
// for a new object, so receiving the medium again repairs it.
func (s *Store) Adopt(name string, kind Kind, hash string, data []byte) (Ref, error) {
	if !ValidHash(hash) {
		return Ref{}, fmt.Errorf("%w: %q", ErrBadHash, hash)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.objects[hash]
	switch {
	case !ok:
		e = s.insertLocked(hash, kind, data[:len(data):len(data)])
	case e.state.Load() == failed:
		e = s.replaceLocked(hash, e, data[:len(data):len(data)])
		s.dedupHits++
	case e.size != int64(len(data)):
		return Ref{}, fmt.Errorf("%w: %.12s holds %d bytes, adopted %d", ErrSizeMismatch, hash, e.size, len(data))
	case e.state.Load() == unloaded:
		s.fillLocked(hash, e, data[:len(data):len(data)])
		s.dedupHits++
	default:
		s.dedupHits++
	}
	return s.referLocked(hash, e, name), nil
}

// Verify fails with ErrHashMismatch unless data's SHA-256 is hash. It
// is the check a station makes on media a client hands it, before they
// are adopted under the hash they came with.
func (s *Store) Verify(hash string, data []byte) error {
	got := HashOf(data)
	s.hashedBytes.Add(int64(len(data)))
	if got != hash {
		return fmt.Errorf("%w: %.12s names %d bytes that hash to %.12s", ErrHashMismatch, hash, len(data), got)
	}
	return nil
}

// insertLocked makes owned, whose hash is h, a new verified object with
// no references; the caller holds the write lock.
func (s *Store) insertLocked(h string, kind Kind, owned []byte) *entry {
	e := &entry{data: owned, size: int64(len(owned)), kind: kind}
	s.objects[h] = e
	s.physicalBytes += e.size
	return e
}

// fillLocked makes owned, whose hash h the caller has just computed or
// trusts and which is as long as e, the bytes of the unloaded object
// e, stored under h. A first read of e that is under way finds it
// settled. The caller holds the write lock.
func (s *Store) fillLocked(h string, e *entry, owned []byte) {
	e.data = owned
	s.settleLocked(h, e, verified)
}

// replaceLocked stores owned, whose hash h the caller has just
// computed or trusts, in place of old's bytes, which fail it or differ
// from it in length: a new verified entry takes over old's kind,
// references and names, and old fails, because a reader that is
// checking old's bytes may not see them change. The caller holds the
// write lock.
func (s *Store) replaceLocked(h string, old *entry, owned []byte) *entry {
	s.settleLocked(h, old, failed)
	e := &entry{data: owned, size: int64(len(owned)), kind: old.kind, refcount: old.refcount, names: old.names}
	s.objects[h] = e
	delta := e.size - old.size
	s.physicalBytes += delta
	s.logicalBytes += int64(old.refcount) * delta
	return e
}

// settleLocked ends the check of e, stored under h, with state st if e
// is still unloaded; the caller holds the write lock. Only a resident
// object counts in s.unverified.
func (s *Store) settleLocked(h string, e *entry, st uint32) {
	if e.state.Load() != unloaded {
		return
	}
	e.state.Store(st)
	if s.objects[h] == e {
		s.unverified--
	}
	if st == failed {
		s.verifyFailures++
	}
}

// evictLocked removes e, stored under h; the caller holds the write
// lock.
func (s *Store) evictLocked(h string, e *entry) {
	if e.state.Load() == unloaded {
		s.unverified--
	}
	s.physicalBytes -= e.size
	delete(s.objects, h)
}

// referLocked takes one reference on e, stored under h, for name; the
// caller holds the write lock.
func (s *Store) referLocked(h string, e *entry, name string) Ref {
	s.putCount++
	e.refcount++
	if name != "" {
		if e.names == nil {
			e.names = make(map[string]struct{})
		}
		e.names[name] = struct{}{}
	}
	s.logicalBytes += e.size
	return Ref{Hash: h, Size: e.size, Kind: e.kind}
}

// Get returns the content of a stored object. The returned slice is a
// copy; callers may mutate it freely. Like View, it checks a restored
// object's hash on its first read.
func (s *Store) Get(ref Ref) ([]byte, error) {
	data, err := s.View(ref)
	if err != nil {
		return nil, err
	}
	return bytes.Clone(data), nil
}

// View returns the content of a stored object without copying it. The
// slice is the store's own and is read-only: stored bytes are never
// mutated (a Put copies what it is given, an Adopt keeps bytes its
// caller will never write again, a first read loads a fresh buffer),
// so a view stays valid and unchanged for as long as it is referenced,
// even after the object is released. Callers that may write to the
// bytes use Get.
//
// The first read of a restored object loads its bytes from the image
// and hashes them, without the store lock; concurrent first readers
// wait for that one load. A match verifies the object, so a later read
// costs one atomic load more than a map lookup. A mismatch, or bytes
// the image no longer yields, fails this read and every later one with
// ErrHashMismatch naming the hash, and the bytes are never returned.
func (s *Store) View(ref Ref) ([]byte, error) {
	if ref.Zero() {
		return nil, ErrZeroRef
	}
	s.mu.RLock()
	e, ok := s.objects[ref.Hash]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %.12s", ErrNotFound, ref.Hash)
	}
	if e.state.Load() != verified && !s.load(ref.Hash, e) {
		return nil, fmt.Errorf("%w: %s", ErrHashMismatch, ref.Hash)
	}
	return e.data[:len(e.data):len(e.data)], nil
}

// load reads the bytes of e, stored under h, from its image and hashes
// them, unless a Put, an Adopt or an earlier read has settled e, and
// reports whether e is verified.
func (s *Store) load(h string, e *entry) bool {
	e.check.Do(func() {
		if e.state.Load() != unloaded {
			return
		}
		buf := make([]byte, e.size)
		k, _ := e.src.ReadAt(buf, e.off)
		s.loadedBytes.Add(int64(k))
		st := failed
		if k == len(buf) {
			s.hashedBytes.Add(e.size)
			if HashOf(buf) == h {
				st = verified
			}
		}
		s.mu.Lock()
		if st == verified && e.state.Load() == unloaded {
			e.data = buf
		}
		s.settleLocked(h, e, st)
		s.mu.Unlock()
	})
	return e.state.Load() == verified
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
		return fmt.Errorf("%w: %.12s", ErrNotFound, ref.Hash)
	}
	e.refcount++
	s.logicalBytes += e.size
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
		return fmt.Errorf("%w: %.12s", ErrNotFound, ref.Hash)
	}
	if e.refcount <= 0 {
		return fmt.Errorf("%w: %.12s", ErrOverRelease, ref.Hash)
	}
	e.refcount--
	s.logicalBytes -= e.size
	if e.refcount == 0 {
		s.evictLocked(ref.Hash, e)
	}
	return nil
}

// Recount sets each resident object's reference count to counts[hash],
// evicts the objects counts does not name, and recomputes the logical
// bytes. A durable station calls it at recovery with the number of rows
// naming each object: a restored snapshot holds the counts of its
// checkpoint, and the commits replayed after it may have added or
// dropped rows. A hash in counts that names no resident object is
// ignored.
func (s *Store) Recount(counts map[string]int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.logicalBytes = 0
	for h, e := range s.objects {
		n := counts[h]
		if n <= 0 {
			s.evictLocked(h, e)
			continue
		}
		e.refcount = n
		s.logicalBytes += int64(n) * e.size
	}
}

// RefCount returns the current reference count of an object, zero when
// absent.
//
//lint:ignore unreached test hook: blob's persistence tests, docdb's TestRecoveredRefcountDropsReleasedReference and the docdb invariant oracle observe the counts through it
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
	Puts          int64 // total Put and Adopt calls
	DedupHits     int64 // Puts and Adopts served by an already-resident object
	// HashedBytes counts the bytes SHA-256 has read: Put, Verify and the
	// first read of a restored object. Restore and Adopt hash nothing.
	HashedBytes int64
	// LoadedBytes counts the bytes first reads of restored objects have
	// read from their image. Restore reads none, and a Snapshot that
	// copies an unloaded object into a new image loads none of it.
	LoadedBytes    int64
	Unverified     int   // restored objects resident and not yet read
	VerifyFailures int64 // restored objects whose bytes failed their hash
}

// SharingFactor is logical/physical bytes: 1.0 means no sharing, higher
// means the station is avoiding that multiple of disk usage.
func (st Stats) SharingFactor() float64 {
	if st.PhysicalBytes == 0 {
		return 1
	}
	return float64(st.LogicalBytes) / float64(st.PhysicalBytes)
}

// List returns the refs of all resident objects sorted by hash, for
// deterministic iteration in tests and replication.
//
//lint:ignore unreached test hook: docdb's invariant oracle and search's TestRecoversParentWrittenDirectory golden list the resident objects through it
func (s *Store) List() []Ref {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.listLocked()
}

// Names returns the logical names attached to an object, sorted.
//
//lint:ignore unreached test hook: search's TestRecoversParentWrittenDirectory golden pins the names a recovery restores through it
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

// Stats returns the current accounting snapshot.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Objects:        len(s.objects),
		PhysicalBytes:  s.physicalBytes,
		LogicalBytes:   s.logicalBytes,
		Puts:           s.putCount,
		DedupHits:      s.dedupHits,
		HashedBytes:    s.hashedBytes.Load(),
		LoadedBytes:    s.loadedBytes.Load(),
		Unverified:     s.unverified,
		VerifyFailures: s.verifyFailures,
	}
}
