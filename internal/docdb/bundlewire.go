package docdb

import (
	"encoding/hex"
	"fmt"

	"repro/internal/blob"
	"repro/internal/wire"
)

// Binary bundle encoding: the body the distribution fabric ships per
// tree edge (push requests, resolve replies). Fields go out in struct
// order through the wire primitives, with no tags and no type
// descriptors:
//
//	bundle := script impl n×file(html) n×file(programs) n×media n×annotation
//	script := name db keywords author version created description expected pct
//	impl   := url script author created
//	file   := id url path language content
//	media  := name kind sha256 data
//	ann    := name script url author version created file
//
// Strings and byte slices are uvarint-length-prefixed, list counts are
// uvarints, times are wire.AppendTime pairs. sha256 is the medium's
// content hash as 32 raw bytes, the blob.Ref hash of the station that
// exported it; a receiving station adopts the medium under it without
// hashing the bytes again (ImportBundle). Integrity in transit is the
// enclosing frame's CRC32C; a bundle carries no checksum of its own.
// The bodies that carry bundles open with wire.BundleVersion, which
// this grammar moved to 2; there is no reader for version 1.

// EncodeBundle encodes bd into b, the one bundle encoder: every
// medium's bytes go through b.AppendBytes, so a medium of
// wire.SpliceMin bytes or more is spliced in as the BLOB store view it
// is, never copied. A medium whose Hash is not blob.ValidHash fails
// with blob.ErrBadHash: a bundle goes out naming its media or not at
// all.
func EncodeBundle(b *wire.Builder, bd *Bundle) error {
	sc := &bd.Script
	b.Buf = wire.AppendString(b.Buf, sc.Name)
	b.Buf = wire.AppendString(b.Buf, sc.DBName)
	b.Buf = wire.AppendUvarint(b.Buf, uint64(len(sc.Keywords)))
	for _, k := range sc.Keywords {
		b.Buf = wire.AppendString(b.Buf, k)
	}
	b.Buf = wire.AppendString(b.Buf, sc.Author)
	b.Buf = wire.AppendVarint(b.Buf, sc.Version)
	b.Buf = wire.AppendTime(b.Buf, sc.Created)
	b.Buf = wire.AppendString(b.Buf, sc.Description)
	b.Buf = wire.AppendTime(b.Buf, sc.ExpectedCompletion)
	b.Buf = wire.AppendFloat64(b.Buf, sc.PctComplete)

	b.Buf = wire.AppendString(b.Buf, bd.Impl.StartingURL)
	b.Buf = wire.AppendString(b.Buf, bd.Impl.ScriptName)
	b.Buf = wire.AppendString(b.Buf, bd.Impl.Author)
	b.Buf = wire.AppendTime(b.Buf, bd.Impl.Created)

	for _, files := range [][]File{bd.HTML, bd.Programs} {
		b.Buf = wire.AppendUvarint(b.Buf, uint64(len(files)))
		for i := range files {
			f := &files[i]
			b.Buf = wire.AppendString(b.Buf, f.ID)
			b.Buf = wire.AppendString(b.Buf, f.StartingURL)
			b.Buf = wire.AppendString(b.Buf, f.Path)
			b.Buf = wire.AppendString(b.Buf, f.Language)
			b.Buf = wire.AppendBytes(b.Buf, f.Content)
		}
	}
	b.Buf = wire.AppendUvarint(b.Buf, uint64(len(bd.Media)))
	for i := range bd.Media {
		m := &bd.Media[i]
		if !blob.ValidHash(m.Hash) {
			return fmt.Errorf("docdb: medium %q of %s: %w: %q", m.Name, bd.Impl.StartingURL, blob.ErrBadHash, m.Hash)
		}
		b.Buf = wire.AppendString(b.Buf, m.Name)
		b.Buf = wire.AppendUvarint(b.Buf, uint64(m.Kind))
		b.Buf = appendRawHash(b.Buf, m.Hash)
		b.AppendBytes(m.Data)
	}
	b.Buf = wire.AppendUvarint(b.Buf, uint64(len(bd.Annotations)))
	for i := range bd.Annotations {
		a := &bd.Annotations[i]
		b.Buf = wire.AppendString(b.Buf, a.Name)
		b.Buf = wire.AppendString(b.Buf, a.ScriptName)
		b.Buf = wire.AppendString(b.Buf, a.StartingURL)
		b.Buf = wire.AppendString(b.Buf, a.Author)
		b.Buf = wire.AppendVarint(b.Buf, a.Version)
		b.Buf = wire.AppendTime(b.Buf, a.Created)
		b.Buf = wire.AppendBytes(b.Buf, a.File)
	}
	return nil
}

// appendRawHash appends the blob.HashSize bytes that h, a
// blob.ValidHash, spells in hex.
func appendRawHash(dst []byte, h string) []byte {
	nibble := func(c byte) byte {
		if c <= '9' {
			return c - '0'
		}
		return c - 'a' + 10
	}
	for i := 0; i < len(h); i += 2 {
		dst = append(dst, nibble(h[i])<<4|nibble(h[i+1]))
	}
	return dst
}

// ReadBundle decodes one bundle from r; check r.Err() afterwards.
//
// Ownership: Media[i].Data ALIASES r's buffer — for a bundle received
// over the transport, the frame buffer the envelope body is a slice
// of. Media is the bulk of a bundle, and its one consumer,
// ImportBundle, has the BLOB store adopt those bytes rather than copy
// them, so neither the caller nor anyone it hands the body to may
// write into the buffer afterwards; a stored medium keeps the buffer
// alive until it is released. Page, program and annotation bytes are
// owning copies: they are small, and the relational engine keeps the
// very slice it is handed, which would otherwise pin the whole frame
// for the life of the row.
func ReadBundle(r *wire.Reader) Bundle {
	var b Bundle
	sc := &b.Script
	sc.Name = r.String()
	sc.DBName = r.String()
	for i, n := 0, r.Count(); i < n && r.Err() == nil; i++ {
		sc.Keywords = append(sc.Keywords, r.String())
	}
	sc.Author = r.String()
	sc.Version = r.Varint()
	sc.Created = r.Time()
	sc.Description = r.String()
	sc.ExpectedCompletion = r.Time()
	sc.PctComplete = r.Float64()

	b.Impl.StartingURL = r.String()
	b.Impl.ScriptName = r.String()
	b.Impl.Author = r.String()
	b.Impl.Created = r.Time()

	for _, files := range []*[]File{&b.HTML, &b.Programs} {
		n := r.Count()
		*files = presize[File](r, n, 5) // four strings and the content, each at least its length byte
		for i := 0; i < n && r.Err() == nil; i++ {
			*files = append(*files, File{
				ID:          r.String(),
				StartingURL: r.String(),
				Path:        r.String(),
				Language:    r.String(),
				Content:     r.Bytes(),
			})
		}
	}
	n := r.Count()
	b.Media = presize[BundleMedia](r, n, 3+blob.HashSize) // name, kind, hash and data length
	for i := 0; i < n && r.Err() == nil; i++ {
		b.Media = append(b.Media, BundleMedia{
			Name: r.String(),
			Kind: blob.Kind(r.Uvarint()),
			Hash: hex.EncodeToString(r.Fixed(blob.HashSize)),
			Data: r.View(),
		})
	}
	n = r.Count()
	b.Annotations = presize[Annotation](r, n, 8) // four strings, version, time (two varints) and file
	for i := 0; i < n && r.Err() == nil; i++ {
		b.Annotations = append(b.Annotations, Annotation{
			Name:        r.String(),
			ScriptName:  r.String(),
			StartingURL: r.String(),
			Author:      r.String(),
			Version:     r.Varint(),
			Created:     r.Time(),
			File:        r.Bytes(),
		})
	}
	return b
}

// presize returns an empty slice with room for the n elements a count
// has announced, each of which takes at least minBytes of r, but never
// for more than what r has left could hold: a hostile count sizes no
// allocation beyond the input. It returns nil for no elements.
func presize[T any](r *wire.Reader, n, minBytes int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, 0, min(n, r.Len()/minBytes))
}

// AppendSegments makes a Bundle a self-encoding message body (the
// station RPCs' Bundle reply): [BundleMagic][wire.BundleVersion] then
// EncodeBundle.
func (b Bundle) AppendSegments(w *wire.Builder) error {
	w.Buf = append(w.Buf, wire.BundleMagic, wire.BundleVersion)
	return EncodeBundle(w, &b)
}

// AppendWire is AppendSegments flattened, for the bundle as a field
// (ImportRequest, the rejoin state stream) and for Marshal.
func (b Bundle) AppendWire(dst []byte) ([]byte, error) { return wire.AppendFlat(dst, b.AppendSegments) }

// DecodeWire is the decode half of AppendWire. The decoded bundle's
// media bytes alias body (see ReadBundle). A body of another version
// fails with wire.ErrCorrupt, naming its version.
func (b *Bundle) DecodeWire(body []byte) error {
	if err := wire.CheckBundleHeader(body, wire.BundleMagic, "bundle"); err != nil {
		return err
	}
	r := wire.NewReader(body[2:])
	got := ReadBundle(r)
	if r.Err() != nil {
		return fmt.Errorf("docdb: bundle body: %w", r.Err())
	}
	if r.Len() != 0 {
		return fmt.Errorf("%w: %d bytes after the bundle", wire.ErrCorrupt, r.Len())
	}
	*b = got
	return nil
}
