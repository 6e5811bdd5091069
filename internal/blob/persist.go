package blob

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/wire"
)

// The store's image (a station's blobs-<gen> sidecar) is a sealed
// index followed by every object's bytes, in index order:
//
//	[wire.BlobMagic][version][uvarint len(index)][index][crc32c(index)]
//	[bytes of object 0][bytes of object 1]...
//
//	index: [uvarint nobjects] per object, in ascending hash order:
//	  [sha256, 32 raw bytes][uvarint kind][uvarint refcount]
//	  [uvarint nnames names...][uvarint size]
//
// The CRC covers the index alone: an object's bytes are checked
// against its hash when they are first read, and the image's length
// must be exactly what the index accounts for.

// wholeImageMagic opened the layout before this one: one sealed image
// with each object's bytes inline. A file that still carries it is
// refused with ErrOldLayout rather than misread.
const wholeImageMagic = 0xBB

// ErrOldLayout reports an image in the layout that sealed every
// object's bytes inline. This build reads only the indexed layout, and
// nothing converts the old one: a station whose sidecar is refused
// starts from an empty directory and pulls its courses again.
var ErrOldLayout = errors.New("blob: image uses the pre-index layout")

// minIndexEntry is the fewest index bytes an object takes: its hash
// and four one-byte varints.
const minIndexEntry = HashSize + 4

// Snapshot writes a point-in-time image of the store, so a station can
// persist its BLOB layer alongside the relational snapshot. The image
// is streamed: the index, then each object's bytes, from memory or —
// for an object a Restore installed and nothing has read — straight
// from the image it was restored from, without loading it.
func (s *Store) Snapshot(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	refs := s.listLocked()
	index := wire.AppendUvarint(nil, uint64(len(refs)))
	var names []string
	var raw [HashSize]byte
	for _, ref := range refs {
		e := s.objects[ref.Hash]
		names = names[:0]
		for n := range e.names {
			names = append(names, n)
		}
		sort.Strings(names)
		hex.Decode(raw[:], []byte(ref.Hash)) // every stored hash is ValidHash
		index = append(index, raw[:]...)
		index = wire.AppendUvarint(index, uint64(e.kind))
		index = wire.AppendUvarint(index, uint64(e.refcount))
		index = wire.AppendUvarint(index, uint64(len(names)))
		for _, n := range names {
			index = wire.AppendString(index, n)
		}
		index = wire.AppendUvarint(index, uint64(e.size))
	}
	bw := bufio.NewWriterSize(w, 64<<10)
	bw.Write(wire.AppendSealed(nil, wire.BlobMagic, index)) // bufio errors stick; Flush reports them
	var chunk []byte
	for _, ref := range refs {
		e := s.objects[ref.Hash]
		if e.state.Load() == verified {
			bw.Write(e.data)
			continue
		}
		if chunk == nil {
			chunk = make([]byte, 64<<10)
		}
		if err := copyAt(bw, e.src, e.off, e.size, chunk); err != nil {
			return fmt.Errorf("blob: copying object %.12s from its image: %w", ref.Hash, err)
		}
	}
	return bw.Flush()
}

// copyAt copies n bytes of src from off to w through chunk.
func copyAt(w io.Writer, src io.ReaderAt, off, n int64, chunk []byte) error {
	for n > 0 {
		p := chunk[:min(n, int64(len(chunk)))]
		if k, err := src.ReadAt(p, off); k < len(p) {
			return err
		}
		w.Write(p)
		off += int64(len(p))
		n -= int64(len(p))
	}
	return nil
}

// Restore replaces the store contents with an image previously written
// by Snapshot. It reads the image's index and nothing else: the store
// changes only after the index's seal, the hash order and the
// reference counts have checked out and the image's length is exactly
// what the index accounts for. On any error the store is left as it
// was.
//
// Each object is installed unloaded: the store remembers where its
// bytes are, and its first View or Get reads them from the image and
// hashes them (see View). A restart pays for reading and hashing only
// the media it goes on to serve.
//
// An r that is an io.ReaderAt and reports its Size (a *bytes.Reader,
// an *io.SectionReader) is the image, from its first byte whatever
// has been read from it: the store keeps r and reads it until every
// object is loaded or gone, so what r reads must not change. Any
// other r is read whole first.
func (s *Store) Restore(r io.Reader) error {
	src, ok := r.(sizedReaderAt)
	if !ok {
		data, err := io.ReadAll(r)
		if err != nil {
			return fmt.Errorf("blob: reading image: %w", err)
		}
		src = bytes.NewReader(data)
	}
	objects, err := readIndex(src, src.Size())
	if err != nil {
		return err
	}
	var logical, physical int64
	for _, e := range objects {
		physical += e.size
		logical += int64(e.refcount) * e.size
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.objects = objects
	s.logicalBytes = logical
	s.physicalBytes = physical
	s.unverified = len(objects)
	return nil
}

// sizedReaderAt is an image Restore reads in place.
type sizedReaderAt interface {
	io.ReaderAt
	Size() int64
}

// readIndex decodes and checks the index of the image src, size bytes
// long, into unloaded objects that read their bytes from src.
func readIndex(src io.ReaderAt, size int64) (map[string]*entry, error) {
	index, off, err := wire.ReadSealedAt(src, size, wire.BlobMagic)
	if err != nil {
		var first [1]byte
		if k, _ := src.ReadAt(first[:], 0); k == 1 && first[0] == wholeImageMagic {
			return nil, ErrOldLayout
		}
		return nil, fmt.Errorf("blob: decoding image: %w", err)
	}
	r := wire.NewReader(index)
	n := r.Count()
	if r.Err() != nil {
		return nil, fmt.Errorf("blob: decoding image index: %w", r.Err())
	}
	if n > r.Len()/minIndexEntry {
		return nil, fmt.Errorf("%w: index lists %d objects in %d bytes", wire.ErrCorrupt, n, len(index))
	}
	entries := make([]entry, n)
	objects := make(map[string]*entry, n)
	prev := ""
	for i := range entries {
		e := &entries[i]
		h := hex.EncodeToString(r.Fixed(HashSize))
		e.kind = Kind(r.Uvarint())
		refcount := r.Uvarint()
		if nn := r.Count(); nn > 0 {
			e.names = make(map[string]struct{}, nn)
			for j := 0; j < nn; j++ {
				e.names[r.String()] = struct{}{}
			}
		}
		sz := r.Uvarint()
		if r.Err() != nil {
			return nil, fmt.Errorf("blob: decoding image index: %w", r.Err())
		}
		// An unreferenced object is never stored, and a count no station
		// could have reached would overflow the byte accounting.
		if refcount == 0 || refcount > math.MaxInt32 {
			return nil, fmt.Errorf("blob: image object %.12s has reference count %d", h, refcount)
		}
		// Snapshot writes each object once, in ascending hash order.
		if h == prev {
			return nil, fmt.Errorf("blob: image lists object %.12s twice", h)
		}
		if h < prev {
			return nil, fmt.Errorf("blob: image object %.12s is out of hash order", h)
		}
		if sz > uint64(size-off) {
			return nil, fmt.Errorf("%w: image of %d bytes ends inside object %.12s", wire.ErrCorrupt, size, h)
		}
		e.refcount = int(refcount)
		e.size = int64(sz)
		e.src, e.off = src, off
		e.state.Store(unloaded)
		off += e.size
		objects[h] = e
		prev = h
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d bytes after the image index", wire.ErrCorrupt, r.Len())
	}
	if off != size {
		return nil, fmt.Errorf("%w: image of %d bytes holds %d past its last object", wire.ErrCorrupt, size, size-off)
	}
	return objects, nil
}

// listLocked returns refs sorted by hash; caller holds at least the
// read lock.
func (s *Store) listLocked() []Ref {
	refs := make([]Ref, 0, len(s.objects))
	for h, e := range s.objects {
		refs = append(refs, Ref{Hash: h, Size: e.size, Kind: e.kind})
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].Hash < refs[j].Hash })
	return refs
}
