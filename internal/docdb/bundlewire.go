package docdb

import (
	"fmt"
	"slices"

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
//	media  := name kind data
//	ann    := name script url author version created file
//
// Strings and byte slices are uvarint-length-prefixed, list counts are
// uvarints, times are wire.AppendTime pairs. Integrity is the
// enclosing frame's CRC32C; a bundle carries none of its own.

// AppendBundle appends b's wire encoding to dst.
func AppendBundle(dst []byte, b *Bundle) []byte {
	sc := &b.Script
	dst = wire.AppendString(dst, sc.Name)
	dst = wire.AppendString(dst, sc.DBName)
	dst = wire.AppendUvarint(dst, uint64(len(sc.Keywords)))
	for _, k := range sc.Keywords {
		dst = wire.AppendString(dst, k)
	}
	dst = wire.AppendString(dst, sc.Author)
	dst = wire.AppendVarint(dst, sc.Version)
	dst = wire.AppendTime(dst, sc.Created)
	dst = wire.AppendString(dst, sc.Description)
	dst = wire.AppendTime(dst, sc.ExpectedCompletion)
	dst = wire.AppendFloat64(dst, sc.PctComplete)

	dst = wire.AppendString(dst, b.Impl.StartingURL)
	dst = wire.AppendString(dst, b.Impl.ScriptName)
	dst = wire.AppendString(dst, b.Impl.Author)
	dst = wire.AppendTime(dst, b.Impl.Created)

	for _, files := range [][]File{b.HTML, b.Programs} {
		dst = wire.AppendUvarint(dst, uint64(len(files)))
		for i := range files {
			f := &files[i]
			dst = wire.AppendString(dst, f.ID)
			dst = wire.AppendString(dst, f.StartingURL)
			dst = wire.AppendString(dst, f.Path)
			dst = wire.AppendString(dst, f.Language)
			dst = wire.AppendBytes(dst, f.Content)
		}
	}
	dst = wire.AppendUvarint(dst, uint64(len(b.Media)))
	for i := range b.Media {
		m := &b.Media[i]
		dst = wire.AppendString(dst, m.Name)
		dst = wire.AppendUvarint(dst, uint64(m.Kind))
		dst = wire.AppendBytes(dst, m.Data)
	}
	dst = wire.AppendUvarint(dst, uint64(len(b.Annotations)))
	for i := range b.Annotations {
		a := &b.Annotations[i]
		dst = wire.AppendString(dst, a.Name)
		dst = wire.AppendString(dst, a.ScriptName)
		dst = wire.AppendString(dst, a.StartingURL)
		dst = wire.AppendString(dst, a.Author)
		dst = wire.AppendVarint(dst, a.Version)
		dst = wire.AppendTime(dst, a.Created)
		dst = wire.AppendBytes(dst, a.File)
	}
	return dst
}

// ReadBundle decodes one bundle from r; check r.Err() afterwards.
//
// Ownership: Media[i].Data ALIASES r's buffer — for a bundle received
// over the transport, the frame buffer the envelope body is a slice
// of. Media is the bulk of a bundle and its one consumer, the BLOB
// store, copies what it keeps, so a decoded bundle is valid only as
// long as the body it was read from, and must not be written to. Page, program and annotation bytes are owning copies: they are
// small, and the relational engine keeps the very slice it is handed,
// which would otherwise pin the whole frame for the life of the row.
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
		for i, n := 0, r.Count(); i < n && r.Err() == nil; i++ {
			*files = append(*files, File{
				ID:          r.String(),
				StartingURL: r.String(),
				Path:        r.String(),
				Language:    r.String(),
				Content:     r.Bytes(),
			})
		}
	}
	for i, n := 0, r.Count(); i < n && r.Err() == nil; i++ {
		b.Media = append(b.Media, BundleMedia{
			Name: r.String(),
			Kind: blob.Kind(r.Uvarint()),
			Data: r.View(),
		})
	}
	for i, n := 0, r.Count(); i < n && r.Err() == nil; i++ {
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

// AppendWire makes a Bundle a self-encoding message body (the station
// RPCs' Bundle reply) and field (ImportRequest, the rejoin state
// stream): [BundleMagic][ver] then AppendBundle.
func (b Bundle) AppendWire(dst []byte) ([]byte, error) {
	dst = slices.Grow(dst, 1024+int(b.TotalBytes()))
	return AppendBundle(append(dst, wire.BundleMagic, wire.Version), &b), nil
}

// DecodeWire is the decode half of AppendWire. The decoded bundle's
// media bytes alias body (see ReadBundle).
func (b *Bundle) DecodeWire(body []byte) error {
	if len(body) < 2 || body[0] != wire.BundleMagic || body[1] != wire.Version {
		return fmt.Errorf("%w: not a version-%d bundle body", wire.ErrCorrupt, wire.Version)
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
