package blob

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/wire"
)

// snapshotEntry is the image of one stored object. On disk it is a
// binary record under wire.BlobMagic, entries in ascending hash order:
//
//	[uvarint nentries] per entry:
//	  [hash string][uvarint kind][uvarint refcount]
//	  [uvarint nnames names...][data bytes]
type snapshotEntry struct {
	Hash     string
	Kind     Kind
	Refcount int
	Names    []string
	Data     []byte
}

// Snapshot writes a point-in-time image of the store, so a station can
// persist its BLOB layer alongside the relational snapshot. The image
// is streamed: object bytes go from the store to w under a running
// CRC32C seal, with no image-sized buffer in between.
func (s *Store) Snapshot(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	iw := wire.NewImageWriter(w, wire.BlobMagic)
	iw.PutUvarint(uint64(len(s.objects)))
	var names []string
	for _, ref := range s.listLocked() {
		e := s.objects[ref.Hash]
		names = names[:0]
		for n := range e.names {
			names = append(names, n)
		}
		sort.Strings(names)
		iw.PutString(ref.Hash)
		iw.PutUvarint(uint64(e.kind))
		iw.PutUvarint(uint64(e.refcount))
		iw.PutUvarint(uint64(len(names)))
		for _, n := range names {
			iw.PutString(n)
		}
		iw.PutBytes(e.data)
	}
	return iw.Close()
}

// Restore replaces the store contents with a snapshot previously
// written by Snapshot. Each object's bytes are read from r once, into a
// buffer of their own size that the object then owns; the store changes
// only after the seal, every name, the hash order and the reference
// counts have checked out. On any error the store is left as it was.
//
// Restore hashes nothing. Every object it installs is unverified, and
// its first View or Get checks its bytes against its name (see View):
// a restart pays SHA-256 only for the media it goes on to serve.
func (s *Store) Restore(r io.Reader) error {
	entries, err := readEntries(r)
	if err != nil {
		return err
	}
	for i, e := range entries {
		// An unreferenced object is never stored, and a count no station
		// could have reached would overflow the byte accounting.
		if e.Refcount <= 0 || e.Refcount > math.MaxInt32 {
			return fmt.Errorf("blob: snapshot object %.12s has reference count %d", e.Hash, e.Refcount)
		}
		// An object is named by the hash of its bytes; a name that is
		// not one could never match them.
		if !ValidHash(e.Hash) {
			return fmt.Errorf("%w: snapshot object %.64q", ErrBadHash, e.Hash)
		}
		// Snapshot writes each object once, in ascending hash order.
		if i > 0 && e.Hash == entries[i-1].Hash {
			return fmt.Errorf("blob: snapshot lists object %.12s twice", e.Hash)
		}
		if i > 0 && e.Hash < entries[i-1].Hash {
			return fmt.Errorf("blob: snapshot object %.12s is out of hash order", e.Hash)
		}
	}
	objects := make(map[string]*entry, len(entries))
	var logical, physical int64
	for _, e := range entries {
		names := make(map[string]struct{}, len(e.Names))
		for _, n := range e.Names {
			names[n] = struct{}{}
		}
		o := &entry{data: e.Data, kind: e.Kind, refcount: e.Refcount, names: names}
		o.state.Store(unverified)
		objects[e.Hash] = o
		physical += int64(len(e.Data))
		logical += int64(e.Refcount) * int64(len(e.Data))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.objects = objects
	s.logicalBytes = logical
	s.physicalBytes = physical
	s.unverified = len(objects)
	return nil
}

// readEntries decodes a sidecar stream into entries whose Data are
// owned, exactly-sized copies, and checks the seal.
func readEntries(r io.Reader) ([]snapshotEntry, error) {
	ir, err := wire.NewImageReader(wire.BlobMagic, r)
	if err != nil {
		return nil, fmt.Errorf("blob: decoding snapshot: %w", err)
	}
	// Not preallocated: the count is not yet covered by the CRC, while
	// each decoded entry has consumed input of its own.
	var entries []snapshotEntry
	for i, n := 0, ir.Count(); i < n && ir.Err() == nil; i++ {
		e := snapshotEntry{
			Hash:     ir.String(),
			Kind:     Kind(ir.Uvarint()),
			Refcount: int(ir.Uvarint()),
		}
		nn := ir.Count()
		for j := 0; j < nn && ir.Err() == nil; j++ {
			e.Names = append(e.Names, ir.String())
		}
		e.Data = ir.Bytes()
		entries = append(entries, e)
	}
	if err := ir.Finish(); err != nil {
		return nil, fmt.Errorf("blob: corrupt snapshot: %w", err)
	}
	return entries, nil
}

// listLocked returns refs sorted by hash; caller holds at least the
// read lock.
func (s *Store) listLocked() []Ref {
	refs := make([]Ref, 0, len(s.objects))
	for h, e := range s.objects {
		refs = append(refs, Ref{Hash: h, Size: int64(len(e.data)), Kind: e.kind})
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].Hash < refs[j].Hash })
	return refs
}
