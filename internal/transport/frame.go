package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"

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

// appendHeader encodes the part of env's frame payload that precedes
// the body bytes — everything but the body and the CRC trailer, the
// body's length prefix included — after dst.
func appendHeader(dst []byte, env *envelope) []byte {
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
		dst = wire.AppendUvarint(dst, uint64(len(env.Body)))
	}
	return dst
}

// decodeEnvelope decodes a frame payload. The body aliases p, which
// readFrame allocated for this one frame and never recycles; strings
// are copies. Structural failures are ErrBadHeader, integrity failures
// ErrChecksum.
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
		env.Body = r.View()
	}
	if r.Err() != nil || r.Len() != 0 {
		return nil, fmt.Errorf("%w: malformed frame fields", ErrBadHeader)
	}
	return env, nil
}

// buffersWriter is a connection wrapper (countingConn) that hands a
// vectored write to the connection beneath it, so wrapping a TCP
// connection does not split a frame into one write per segment.
type buffersWriter interface {
	writeBuffers(bufs net.Buffers) (int64, error)
}

// writeFrame sends one envelope as one vectored write of three
// segments: the length prefix and header, the caller's own body slice,
// and the CRC trailer. On a TCP connection that is one writev, so a
// frame is one syscall, a peer never observes a header whose body died
// in a second write, and the body is never copied in user space. The
// header and trailer share one pooled scratch buffer.
func writeFrame(w io.Writer, env *envelope) error {
	buf := wire.GetBuf()
	defer func() { wire.PutBuf(buf) }()
	buf = appendHeader(append(buf, 0, 0, 0, 0), env)
	head := len(buf)
	n := head - 4 + len(env.Body) + 4
	if n > MaxFrame {
		return ErrTooLarge
	}
	binary.BigEndian.PutUint32(buf[:4], uint32(n))
	buf = wire.AppendUint32(buf, wire.ChecksumUpdate(wire.Checksum(buf[4:head]), env.Body))
	bufs := net.Buffers{buf[:head], env.Body, buf[head:]}
	raceReleaseFrame()
	var err error
	if bw, ok := w.(buffersWriter); ok {
		_, err = bw.writeBuffers(bufs)
	} else {
		_, err = bufs.WriteTo(w)
	}
	return err
}

// readFrame receives one envelope into a buffer of its own, which the
// envelope's body then aliases. The buffer starts at the header's
// length capped at a megabyte and doubles only as bytes arrive, so a
// hostile or corrupt header claiming a near-MaxFrame size costs at
// most about twice the bytes the peer actually sends.
func readFrame(r io.Reader) (*envelope, error) {
	var head [4]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, err
	}
	claim := binary.BigEndian.Uint32(head[:])
	if claim > MaxFrame {
		return nil, ErrTooLarge
	}
	n := int(claim)
	buf := make([]byte, min(n, 1<<20))
	for off := 0; ; {
		if _, err := io.ReadFull(r, buf[off:]); err != nil {
			return nil, err
		}
		if len(buf) == n {
			raceAcquireFrame()
			return decodeEnvelope(buf)
		}
		off = len(buf)
		grown := make([]byte, min(n, 2*off))
		copy(grown, buf)
		buf = grown
	}
}
