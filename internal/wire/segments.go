package wire

import "slices"

// Segmented bodies. A body that carries bulk bytes it does not own —
// the media a bundle serves as read-only BLOB store views — encodes
// itself into a Builder instead of a flat buffer: its small fields and
// short byte strings are appended to a running buffer, and each long
// byte string is spliced in as a segment of its own, never copied. The
// transport writes the segments as one frame in one vectored write, so
// a medium goes from the store to the socket without a user-space copy.
// The joined segments are exactly the bytes a flat encode would
// produce: AppendFlat is the same encoder, flattened, and nothing on
// the wire tells the two apart.

// SpliceMin is the shortest byte string Builder.AppendBytes splices in
// rather than copies. Below it an iovec and a segment header cost more
// than the copy does.
const SpliceMin = 1 << 10

// Segmenter is a body that encodes itself into a Builder. Its
// AppendWire is the same encoder flattened: AppendFlat over
// AppendSegments.
type Segmenter interface {
	Appender
	AppendSegments(b *Builder) error
}

// Builder assembles a body as a list of segments. Buf is the running
// buffer: append metadata to it with the package's Append functions.
// The segments alias Buf and every spliced slice, so neither may be
// written until the body has been sent; Reset drops them.
type Builder struct {
	Buf  []byte
	segs [][]byte
	mark int // Buf[mark:] is not a segment yet
}

// AppendBytes appends a length-prefixed byte slice, splicing p in as a
// segment of its own when it is at least SpliceMin bytes long.
func (b *Builder) AppendBytes(p []byte) {
	if len(p) < SpliceMin {
		b.Buf = AppendBytes(b.Buf, p)
		return
	}
	b.Buf = AppendUvarint(b.Buf, uint64(len(p)))
	b.Splice(p)
}

// Splice adds p to the body as a segment of its own, after everything
// appended so far.
func (b *Builder) Splice(p []byte) {
	if len(p) == 0 {
		return
	}
	b.cut()
	b.segs = append(b.segs, p)
}

// cut closes the running buffer's pending bytes into a segment. The
// segment's capacity ends at its length, and the bytes it covers are
// never written again: a later append that reallocates Buf leaves
// them in the old array, one that does not writes past them.
func (b *Builder) cut() {
	if n := len(b.Buf); n > b.mark {
		b.segs = append(b.segs, b.Buf[b.mark:n:n])
		b.mark = n
	}
}

// Segments returns the body in order. They alias the builder's memory
// and the spliced slices; they stay valid until Reset.
func (b *Builder) Segments() [][]byte {
	b.cut()
	return b.segs
}

// Reset empties the builder for the next body, keeping its memory but
// dropping its hold on every spliced slice.
func (b *Builder) Reset() {
	clear(b.segs)
	b.segs, b.Buf, b.mark = b.segs[:0], b.Buf[:0], 0
}

// AppendFlat appends the body encode writes to dst as one contiguous
// run: the segments it encodes, joined with one allocation at most.
func AppendFlat(dst []byte, encode func(*Builder) error) ([]byte, error) {
	var b Builder
	if err := encode(&b); err != nil {
		return dst, err
	}
	return Join(dst, b.Segments()), nil
}

// Join appends the segments to dst, growing it once.
func Join(dst []byte, segs [][]byte) []byte {
	n := 0
	for _, s := range segs {
		n += len(s)
	}
	dst = slices.Grow(dst, n)
	for _, s := range segs {
		dst = append(dst, s...)
	}
	return dst
}
