package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Sealed heads. SealImage and OpenImage hold a whole image in memory,
// which suits a relational snapshot that is decoded into fresh
// structures anyway. A file that is nearly all opaque bytes (the BLOB
// sidecar) opens with a sealed head instead — a length-prefixed payload
// under its own CRC32C that describes the bytes after it — so a reader
// can check and decode the head alone and read the rest where and when
// it needs it:
//
//	[magic][version][uvarint len(payload)][payload][crc32c(payload)]
//
// It is AppendRecord's layout under the file's own magic.

// AppendSealed appends payload to dst as a sealed head under magic.
func AppendSealed(dst []byte, magic byte, payload []byte) []byte {
	dst = append(dst, magic, Version)
	dst = AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return AppendUint32(dst, Checksum(payload))
}

// ReadSealedAt reads the sealed head at the start of r, which holds
// size bytes, and returns its payload (a buffer of its own) and the
// offset of the first byte after it. It reads the head and nothing
// past it, and checks the claimed length against size before it
// allocates anything for it. ErrCorrupt covers a wrong magic or
// version, a length beyond the file and a file cut short; ErrChecksum
// a payload that fails its trailer.
func ReadSealedAt(r io.ReaderAt, size int64, magic byte) ([]byte, int64, error) {
	var head [2 + binary.MaxVarintLen64]byte
	p := head[:min(size, int64(len(head)))]
	if k, err := r.ReadAt(p, 0); k < len(p) {
		return nil, 0, shortRead(err, size)
	}
	if len(p) > 0 && p[0] != magic {
		return nil, 0, magicErr("file", p[0], magic)
	}
	if len(p) < 2 {
		return nil, 0, fmt.Errorf("%w: file of %d bytes is too short", ErrCorrupt, size)
	}
	if p[1] != Version {
		return nil, 0, fmt.Errorf("%w: file version %d", ErrCorrupt, p[1])
	}
	n, k := binary.Uvarint(p[2:])
	start := int64(2 + k)
	if k <= 0 || size-start < 4 || n > uint64(size-start-4) {
		return nil, 0, fmt.Errorf("%w: head of a %d-byte file is cut short", ErrCorrupt, size)
	}
	buf := make([]byte, n+4)
	if got, err := r.ReadAt(buf, start); got < len(buf) {
		return nil, 0, shortRead(err, size)
	}
	payload := buf[:n:n]
	if binary.LittleEndian.Uint32(buf[n:]) != Checksum(payload) {
		return nil, 0, fmt.Errorf("%w: head of %d bytes", ErrChecksum, n)
	}
	return payload, start + int64(n) + 4, nil
}

// shortRead names a read that came back short: end of input means the
// file is shorter than its claimed size, anything else is the reader's
// own failure.
func shortRead(err error, size int64) error {
	if err == nil || err == io.EOF {
		return fmt.Errorf("%w: file ends before its %d bytes", ErrCorrupt, size)
	}
	return err
}
