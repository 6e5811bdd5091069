package blob

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/wire"
)

// snapshotEntry is the image of one stored object. On disk it is a
// binary record under wire.BlobMagic:
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
// persist its BLOB layer alongside the relational snapshot. Object
// bytes land on disk as a flat copy under a CRC32C seal.
func (s *Store) Snapshot(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	payload := wire.GetBuf()
	payload = wire.AppendUvarint(payload, uint64(len(s.objects)))
	for _, ref := range s.listLocked() {
		e := s.objects[ref.Hash]
		names := make([]string, 0, len(e.names))
		for n := range e.names {
			names = append(names, n)
		}
		sort.Strings(names)
		payload = wire.AppendString(payload, ref.Hash)
		payload = wire.AppendUvarint(payload, uint64(e.kind))
		payload = wire.AppendUvarint(payload, uint64(e.refcount))
		payload = wire.AppendUvarint(payload, uint64(len(names)))
		for _, n := range names {
			payload = wire.AppendString(payload, n)
		}
		payload = wire.AppendBytes(payload, e.data)
	}
	sealed := wire.SealImage(wire.BlobMagic, payload)
	wire.PutBuf(payload)
	_, err := w.Write(sealed)
	return err
}

// decodeSnapshot parses a sidecar image into entries.
func decodeSnapshot(data []byte) ([]snapshotEntry, error) {
	payload, err := wire.OpenImage(wire.BlobMagic, data)
	if err != nil {
		return nil, fmt.Errorf("blob: decoding snapshot: %w", err)
	}
	r := wire.NewReader(payload)
	n := r.Count()
	entries := make([]snapshotEntry, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		e := snapshotEntry{
			Hash:     r.String(),
			Kind:     Kind(r.Uvarint()),
			Refcount: int(r.Uvarint()),
		}
		nn := r.Count()
		for j := 0; j < nn && r.Err() == nil; j++ {
			e.Names = append(e.Names, r.String())
		}
		e.Data = r.Bytes()
		entries = append(entries, e)
	}
	if r.Err() != nil {
		return nil, fmt.Errorf("blob: corrupt snapshot: %w", r.Err())
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("blob: corrupt snapshot: %d trailing bytes", r.Len())
	}
	return entries, nil
}

// Restore replaces the store contents with a snapshot previously
// written by Snapshot, verifying every object's content hash.
func (s *Store) Restore(r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("blob: reading snapshot: %w", err)
	}
	entries, err := decodeSnapshot(data)
	if err != nil {
		return err
	}
	fresh := NewStore()
	for _, e := range entries {
		// An unreferenced object is never stored, and a count no station
		// could have reached would overflow the byte accounting.
		if e.Refcount <= 0 || e.Refcount > math.MaxInt32 {
			return fmt.Errorf("blob: snapshot object %.12s has reference count %d", e.Hash, e.Refcount)
		}
		ref := fresh.Put("", e.Kind, e.Data)
		if ref.Hash != e.Hash {
			return fmt.Errorf("blob: snapshot object %.12s fails content verification", e.Hash)
		}
		// fresh is private until it is installed below, so the entry is
		// completed in place: the names, then the references beyond
		// the one Put took.
		obj := fresh.objects[ref.Hash]
		for _, n := range e.Names {
			obj.names[n] = struct{}{}
		}
		obj.refcount += e.Refcount - 1
		fresh.logicalBytes += int64(e.Refcount-1) * int64(len(e.Data))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.objects = fresh.objects
	s.logicalBytes = fresh.logicalBytes
	s.physicalBytes = fresh.physicalBytes
	return nil
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
