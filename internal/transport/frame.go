package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"repro/internal/wire"
)

// Frame codec. A frame is a 4-byte big-endian length prefix followed
// by the payload:
//
//	[len u32][magic 0xB7][ver][flags][uvarint ID]
//	  [method string]?[err string]?[uvarint TraceID uvarint Parent]?
//	  [body bytes]?[crc32c u32]
//
// The CRC32C trailer covers every payload byte before it. Optional
// fields are present when their flag bit is set, so a Ping costs nine
// bytes of framing. A payload that does not start with the magic byte
// is ErrBadHeader.

// Envelope flag bits.
const (
	flagIsResp = 1 << 0
	flagMore   = 1 << 1
	flagErr    = 1 << 2
	flagTrace  = 1 << 3
	flagMethod = 1 << 4
	flagBody   = 1 << 5
)

// appendEnvelope encodes env after dst (the frame payload, without
// the length prefix), including the CRC trailer.
func appendEnvelope(dst []byte, env *envelope) []byte {
	start := len(dst)
	var flags byte
	if env.IsResp {
		flags |= flagIsResp
	}
	if env.More {
		flags |= flagMore
	}
	if env.Err != "" {
		flags |= flagErr
	}
	if env.TraceID != 0 || env.Parent != 0 {
		flags |= flagTrace
	}
	if env.Method != "" {
		flags |= flagMethod
	}
	if len(env.Body) != 0 {
		flags |= flagBody
	}
	dst = append(dst, wire.FrameMagic, wire.Version, flags)
	dst = wire.AppendUvarint(dst, env.ID)
	if flags&flagMethod != 0 {
		dst = wire.AppendString(dst, env.Method)
	}
	if flags&flagErr != 0 {
		dst = wire.AppendString(dst, env.Err)
	}
	if flags&flagTrace != 0 {
		dst = wire.AppendUvarint(dst, env.TraceID)
		dst = wire.AppendUvarint(dst, env.Parent)
	}
	if flags&flagBody != 0 {
		dst = wire.AppendBytes(dst, env.Body)
	}
	return wire.AppendUint32(dst, wire.Checksum(dst[start:]))
}

// decodeEnvelope decodes a frame payload. Strings and the body are
// copied out of p, which belongs to a recycled read buffer. Structural
// failures are ErrBadHeader, integrity failures ErrChecksum.
func decodeEnvelope(p []byte) (*envelope, error) {
	if len(p) < 8 {
		return nil, fmt.Errorf("%w: %d-byte frame", ErrBadHeader, len(p))
	}
	if p[0] != wire.FrameMagic {
		return nil, fmt.Errorf("%w: frame magic 0x%02x", ErrBadHeader, p[0])
	}
	if p[1] != wire.Version {
		return nil, fmt.Errorf("%w: frame version %d", ErrBadHeader, p[1])
	}
	body, crc := p[:len(p)-4], binary.LittleEndian.Uint32(p[len(p)-4:])
	if wire.Checksum(body) != crc {
		return nil, fmt.Errorf("%w: frame of %d bytes", ErrChecksum, len(p))
	}
	r := wire.NewReader(body)
	r.Byte() // magic
	r.Byte() // version
	flags := r.Byte()
	env := &envelope{
		ID:     r.Uvarint(),
		IsResp: flags&flagIsResp != 0,
		More:   flags&flagMore != 0,
	}
	if flags&flagMethod != 0 {
		env.Method = r.String()
	}
	if flags&flagErr != 0 {
		env.Err = r.String()
	}
	if flags&flagTrace != 0 {
		env.TraceID = r.Uvarint()
		env.Parent = r.Uvarint()
	}
	if flags&flagBody != 0 {
		env.Body = r.Bytes()
	}
	if r.Err() != nil || r.Len() != 0 {
		return nil, fmt.Errorf("%w: malformed frame fields", ErrBadHeader)
	}
	return env, nil
}

// writeFrame sends one envelope: length prefix and payload coalesced
// into a single Write, so a frame is one syscall and a peer never
// observes a header whose body died in a second write. The scratch
// buffer is pooled; steady-state framing allocates nothing beyond the
// body the caller already built.
func writeFrame(w io.Writer, env *envelope) error {
	buf := wire.GetBuf()
	buf = append(buf, 0, 0, 0, 0)
	buf = appendEnvelope(buf, env)
	if len(buf)-4 > MaxFrame {
		wire.PutBuf(buf)
		return ErrTooLarge
	}
	binary.BigEndian.PutUint32(buf[:4], uint32(len(buf)-4))
	_, err := w.Write(buf)
	wire.PutBuf(buf)
	return err
}

// readBufPool recycles the per-frame read buffers.
var readBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readFrame receives one envelope. The payload is read incrementally
// rather than allocated up front from the header's length field, so a
// hostile or corrupt header claiming a near-MaxFrame size costs only
// the bytes the peer actually sends.
func readFrame(r io.Reader) (*envelope, error) {
	var head [4]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(head[:])
	if n > MaxFrame {
		return nil, ErrTooLarge
	}
	buf := readBufPool.Get().(*bytes.Buffer)
	defer readBufPool.Put(buf)
	buf.Reset()
	buf.Grow(int(min(n, 1<<20)))
	if _, err := io.CopyN(buf, r, int64(n)); err != nil {
		return nil, err
	}
	return decodeEnvelope(buf.Bytes())
}
