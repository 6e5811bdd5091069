package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
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
// bytes of framing. Only a request names its method; a response or
// stream chunk is matched to its call by ID alone. A payload that does
// not start with the magic byte is ErrBadHeader.

// Envelope flag bits.
const (
	flagIsResp = 1 << 0
	flagMore   = 1 << 1
	flagErr    = 1 << 2
	flagTrace  = 1 << 3
	flagMethod = 1 << 4
	flagBody   = 1 << 5
)

// Frame sizes on the read and write paths. Both are fixed: they follow
// the frames the stations send, not a setting. In the benchmark's
// workloads every small frame is at most 2 KiB and every bundle frame
// 256-512 KiB, with none in between.
const (
	// smallBody is the largest body a frame is copied whole for, into
	// one contiguous Write. Every small RPC and its reply fit; a bundle
	// does not, and goes out as a vectored write of its segments.
	smallBody = 2 << 10

	// readBuffer is the size of a connection's read-ahead buffer
	// (newFrameReader): a small frame, header and trailer included,
	// arrives in one read, and a larger one costs one read for its
	// head before the rest lands in the frame's own buffer directly.
	readBuffer = 4 << 10
)

// appendHeader encodes the part of env's frame payload that precedes
// the body bytes — everything but the body and the CRC trailer, the
// body's length prefix included — after dst. n is the body's length.
func appendHeader(dst []byte, env *envelope, n int) []byte {
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
	if n != 0 {
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
		dst = wire.AppendUvarint(dst, uint64(n))
	}
	return dst
}

// decodeEnvelope decodes a frame payload into env, overwriting every
// field. The body aliases p, which readFrame allocated for this one
// frame and never recycles. The method is names' string for its bytes
// when names is set (a server's registered name: no copy), a copy
// otherwise; an error string is a copy. Structural failures are
// ErrBadHeader, integrity failures ErrChecksum.
func decodeEnvelope(p []byte, env *envelope, names func([]byte) string) error {
	*env = envelope{}
	if len(p) < 8 {
		return fmt.Errorf("%w: %d-byte frame", ErrBadHeader, len(p))
	}
	if p[0] != wire.FrameMagic {
		return fmt.Errorf("%w: frame magic 0x%02x", ErrBadHeader, p[0])
	}
	if p[1] != wire.Version {
		return fmt.Errorf("%w: frame version %d", ErrBadHeader, p[1])
	}
	body, crc := p[:len(p)-4], binary.LittleEndian.Uint32(p[len(p)-4:])
	if wire.Checksum(body) != crc {
		return fmt.Errorf("%w: frame of %d bytes", ErrChecksum, len(p))
	}
	r := wire.NewReader(body)
	r.Byte() // magic
	r.Byte() // version
	flags := r.Byte()
	env.ID = r.Uvarint()
	env.IsResp = flags&flagIsResp != 0
	env.More = flags&flagMore != 0
	if flags&flagMethod != 0 {
		if names != nil {
			env.Method = names(r.View())
		} else {
			env.Method = r.String()
		}
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
		*env = envelope{}
		return fmt.Errorf("%w: malformed frame fields", ErrBadHeader)
	}
	return nil
}

// buffersWriter is a connection wrapper (countingConn) that hands a
// vectored write to the connection beneath it, so wrapping a TCP
// connection does not split a frame into one write per segment. The
// write consumes *bufs, as net.Buffers.WriteTo does.
type buffersWriter interface {
	writeBuffers(bufs *net.Buffers) (int64, error)
}

// frameScratch is what one writeFrame needs besides the body: the
// header and trailer bytes (or, for a small frame, the whole frame)
// and the vector that sends them around the body's segments. It is
// pooled whole, so writing a frame allocates nothing.
type frameScratch struct {
	buf  []byte
	vec  [][]byte
	bufs net.Buffers // the vector as the write consumes it
}

var frameScratches = sync.Pool{New: func() any { return new(frameScratch) }}

// maxScratch bounds the frame buffer a pooled scratch keeps, and
// maxVector the segments its vector keeps room for: a frame carrying
// a giant error string or thousands of media does not pin its scratch
// forever.
const (
	maxScratch = 4 << 10
	maxVector  = 64
)

// release drops the scratch's hold on the body (a consumed vector has
// nilled what it sent, but a failed write leaves the rest) and returns
// it to the pool.
func (fs *frameScratch) release() {
	clear(fs.vec)
	fs.vec, fs.bufs = fs.vec[:0], nil
	if cap(fs.vec) > maxVector {
		fs.vec = nil
	}
	if cap(fs.buf) > maxScratch {
		fs.buf = nil
	}
	frameScratches.Put(fs)
}

// writeFrame sends one envelope whose body is the concatenation of
// body's segments, in one write. A frame whose body is at most
// smallBody bytes is copied whole into the scratch and written with
// one Write. A larger one goes out as one vectored write of the length
// prefix and header, the caller's own segments, and the CRC trailer,
// which is run across the segments where they lie: on a TCP connection
// that is one writev (Go splits a vector longer than the kernel's
// IOV_MAX into as many as it needs), so a peer never observes a header
// whose body died in a second write, and the body is never copied in
// user space. Either way the frame's bytes are the same.
func writeFrame(w io.Writer, env *envelope, body [][]byte) error {
	fs := frameScratches.Get().(*frameScratch)
	defer fs.release()
	size := bodyLen(body)
	buf := appendHeader(append(fs.buf[:0], 0, 0, 0, 0), env, size)
	head := len(buf)
	n := head - 4 + size + 4
	if n > MaxFrame {
		return ErrTooLarge
	}
	binary.BigEndian.PutUint32(buf[:4], uint32(n))
	crc := wire.Checksum(buf[4:head])
	for _, seg := range body {
		crc = wire.ChecksumUpdate(crc, seg)
	}
	raceReleaseFrame()
	if size <= smallBody {
		buf = wire.AppendUint32(wire.Join(buf, body), crc)
		fs.buf = buf
		_, err := w.Write(buf)
		return err
	}
	buf = wire.AppendUint32(buf, crc)
	fs.buf = buf
	fs.vec = append(append(append(fs.vec[:0], buf[:head]), body...), buf[head:])
	fs.bufs = fs.vec
	if bw, ok := w.(buffersWriter); ok {
		_, err := bw.writeBuffers(&fs.bufs)
		return err
	}
	_, err := fs.bufs.WriteTo(w)
	return err
}

// bodyLen is the length of the body made of segs.
func bodyLen(segs [][]byte) int {
	n := 0
	for _, seg := range segs {
		n += len(seg)
	}
	return n
}

// newFrameReader is a connection's read side: one buffered reader for
// the connection's life, from which every frame is read. A small frame
// is parsed from one read. A connection carries one call at a time, so
// read-ahead past a frame is the next frame of the same conversation
// (the next request, or the next chunk of a streamed reply) and waits
// in the buffer for the next readFrame.
func newFrameReader(r io.Reader) *bufio.Reader { return bufio.NewReaderSize(r, readBuffer) }

// readFrame receives one envelope into env (see decodeEnvelope for
// names) from a buffer of its own, which the
// envelope's body then aliases: a small frame is copied out of the
// connection's read-ahead buffer, a larger one's remainder is read
// straight into its own. The buffer starts at the header's length
// capped at a megabyte and doubles only as bytes arrive, so a hostile
// or corrupt header claiming a near-MaxFrame size costs at most about
// twice the bytes the peer actually sends.
func readFrame(r *bufio.Reader, env *envelope, names func([]byte) string) error {
	*env = envelope{}
	head, err := r.Peek(4)
	if err != nil {
		return err
	}
	claim := binary.BigEndian.Uint32(head)
	_, _ = r.Discard(4) // cannot fail: Peek buffered these 4 bytes
	if claim > MaxFrame {
		return ErrTooLarge
	}
	n := int(claim)
	buf := make([]byte, min(n, 1<<20))
	for off := 0; ; {
		if _, err := io.ReadFull(r, buf[off:]); err != nil {
			return err
		}
		if len(buf) == n {
			raceAcquireFrame()
			return decodeEnvelope(buf, env, names)
		}
		off = len(buf)
		grown := make([]byte, min(n, 2*off))
		copy(grown, buf)
		buf = grown
	}
}
