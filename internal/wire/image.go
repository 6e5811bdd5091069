package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Streamed images. SealImage and OpenImage hold a whole image in
// memory, which suits a relational snapshot that is decoded into fresh
// structures anyway. An image that is nearly all opaque bytes (the BLOB
// sidecar) is written and read field by field instead: the bytes are
// the same sealed layout, the CRC32C runs over the payload as it
// passes, and a length-prefixed byte field moves between the stream and
// a buffer of its own — no image-sized buffer in between.

// imageStreamBuf sizes the bufio buffer under both stream types: small
// fields are batched through it, and a byte field at least this long
// bypasses it.
const imageStreamBuf = 64 << 10

// remaining reports how many bytes r has left when it can say so
// without reading: an in-memory reader's Len, or a regular file's size
// past its offset.
func remaining(r io.Reader) (int64, bool) {
	switch x := r.(type) {
	case interface{ Len() int }:
		return int64(x.Len()), true
	case *os.File:
		fi, err := x.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return 0, false
		}
		off, err := x.Seek(0, io.SeekCurrent)
		if err != nil || off > fi.Size() {
			return 0, false
		}
		return fi.Size() - off, true
	}
	return 0, false
}

// ImageReader decodes a sealed image from a stream, with Reader's
// sticky-error style. The payload length comes from the size of the
// stream (see remaining), and every count and length the image claims
// is checked against the bytes left before anything is allocated for
// it. The CRC is checked by Finish, after the last field: nothing a
// caller decoded may be acted on before Finish returns nil.
type ImageReader struct {
	br   *bufio.Reader
	size int64 // the whole image, for error text
	left int64 // payload bytes not yet decoded
	crc  uint32
	err  error
}

// NewImageReader checks a sealed image's magic and version and returns
// a reader positioned at its payload. The errors match OpenImage's. A
// reader that cannot report its size is read into memory first.
func NewImageReader(magic byte, r io.Reader) (*ImageReader, error) {
	n, ok := remaining(r)
	if !ok {
		data, err := io.ReadAll(r)
		if err != nil {
			return nil, err
		}
		r, n = bytes.NewReader(data), int64(len(data))
	}
	ir := &ImageReader{br: bufio.NewReaderSize(r, imageStreamBuf), size: n, left: n - 6}
	var head [2]byte
	k, err := io.ReadFull(ir.br, head[:min(n, 2)])
	if err != nil {
		return nil, fmt.Errorf("%w: image shorter than its %d bytes", ErrCorrupt, n)
	}
	if k > 0 && head[0] != magic {
		return nil, magicErr("image", head[0], magic)
	}
	if n < 6 {
		return nil, fmt.Errorf("%w: image of %d bytes is too short", ErrCorrupt, n)
	}
	if head[1] != Version {
		return nil, fmt.Errorf("%w: image version %d", ErrCorrupt, head[1])
	}
	return ir, nil
}

// Err returns the first decoding failure, nil if none.
func (ir *ImageReader) Err() error { return ir.err }

// Len reports the payload bytes not yet decoded.
func (ir *ImageReader) Len() int { return int(ir.left) }

// fail records the first failure; end of input (or none given) is a
// truncation.
func (ir *ImageReader) fail(err error) {
	if ir.err != nil {
		return
	}
	if err == nil || err == io.EOF || err == io.ErrUnexpectedEOF {
		err = fmt.Errorf("%w: truncated at offset %d", ErrCorrupt, ir.size-4-ir.left)
	}
	ir.err = err
}

// Uvarint reads an unsigned LEB128 integer.
func (ir *ImageReader) Uvarint() uint64 {
	if ir.err != nil {
		return 0
	}
	p, err := ir.br.Peek(int(min(ir.left, binary.MaxVarintLen64)))
	v, k := binary.Uvarint(p)
	if k <= 0 {
		ir.fail(err)
		return 0
	}
	ir.crc = crc32.Update(ir.crc, castagnoli, p[:k])
	ir.left -= int64(k)
	ir.br.Discard(k)
	return v
}

// Count reads an element count and fails when it exceeds the payload
// bytes left, as Reader.Count does.
func (ir *ImageReader) Count() int {
	n := ir.Uvarint()
	if n > uint64(ir.left) {
		ir.fail(nil)
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte field into a buffer of exactly its
// length, owned by the caller: the field's one copy, made straight from
// the stream. A zero length decodes as nil.
func (ir *ImageReader) Bytes() []byte {
	n := ir.Count()
	if n == 0 {
		return nil
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(ir.br, b); err != nil {
		ir.fail(err)
		return nil
	}
	ir.crc = crc32.Update(ir.crc, castagnoli, b)
	ir.left -= int64(n)
	return b
}

// String reads a length-prefixed string.
func (ir *ImageReader) String() string { return string(ir.Bytes()) }

// Finish reads the trailer and checks it against the CRC32C of the
// payload decoded. It fails on an earlier decoding error, on payload
// bytes left undecoded, and on bytes past the trailer.
func (ir *ImageReader) Finish() error {
	if ir.err != nil {
		return ir.err
	}
	if ir.left != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, ir.left)
	}
	var crc [4]byte
	if _, err := io.ReadFull(ir.br, crc[:]); err != nil {
		ir.fail(err)
		return ir.err
	}
	if binary.LittleEndian.Uint32(crc[:]) != ir.crc {
		return fmt.Errorf("%w: image of %d bytes", ErrChecksum, ir.size)
	}
	if _, err := ir.br.ReadByte(); err != io.EOF {
		return fmt.Errorf("%w: image runs past its %d bytes", ErrCorrupt, ir.size)
	}
	return nil
}

// ImageWriter writes a sealed image as a stream: the bytes SealImage
// produces for the same payload, with the CRC32C kept running as fields
// pass. Small fields collect in a scratch buffer; a byte field goes to
// the bufio.Writer as the caller's own slice, which bufio hands
// straight to the destination when it is at least a buffer long.
type ImageWriter struct {
	bw      *bufio.Writer
	pending []byte // small fields not yet passed to bw
	crc     uint32
}

// NewImageWriter starts a sealed image on w with its magic and version.
func NewImageWriter(w io.Writer, magic byte) *ImageWriter {
	iw := &ImageWriter{bw: bufio.NewWriterSize(w, imageStreamBuf)}
	iw.bw.Write([]byte{magic, Version}) // a failure sticks in bw; Close reports it
	return iw
}

// PutUvarint appends an unsigned LEB128 integer.
func (iw *ImageWriter) PutUvarint(v uint64) { iw.pending = AppendUvarint(iw.pending, v) }

// PutString appends a length-prefixed string.
func (iw *ImageWriter) PutString(s string) { iw.pending = AppendString(iw.pending, s) }

// PutBytes appends a length-prefixed byte field without copying it
// into any buffer of the writer's own when it is large.
func (iw *ImageWriter) PutBytes(b []byte) {
	iw.pending = AppendUvarint(iw.pending, uint64(len(b)))
	iw.flushPending()
	iw.write(b)
}

func (iw *ImageWriter) write(p []byte) {
	iw.crc = crc32.Update(iw.crc, castagnoli, p)
	iw.bw.Write(p) // bufio.Writer errors are sticky; Close reports them
}

func (iw *ImageWriter) flushPending() {
	iw.write(iw.pending)
	iw.pending = iw.pending[:0]
}

// Close writes the CRC32C trailer and flushes, returning the first
// write error the image met.
func (iw *ImageWriter) Close() error {
	iw.flushPending()
	iw.bw.Write(AppendUint32(iw.pending, iw.crc))
	return iw.bw.Flush()
}
