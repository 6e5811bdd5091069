// Package wire is the compact binary encoding shared by the hot
// persistence and transport paths: a length-prefixed, CRC32C-checked
// framing for transport envelopes and WAL records, and a varint-tagged
// value codec covering the relational engine's scalar set (nil, int64,
// float64, string, []byte, bool, time.Time), and the plan-cached body
// codec every RPC message that does not encode itself goes through
// (body.go). It replaces gob on the wire (which re-sends type
// descriptors and re-walks reflection on every message) and JSON in
// the WAL (which base64-wraps every []byte). Every function appends to
// a buffer its caller owns, so a caller that keeps one buffer
// allocates nothing for framing.
//
// Every magic byte lives in [0x80, 0xF7]: a gob stream always starts
// with a segment length encoded either as one byte < 0x80 or as a
// negated byte count in [0xF8, 0xFF], and a JSON record starts with
// '{' (0x7B), so a file or frame written before the binary format can
// never be mistaken for one: its first byte fails the magic check and
// the decoder returns a clean error. Each format has exactly one
// reader, on disk as on the wire.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"
)

// Format magic bytes. All chosen from [0x80, 0xF7], the range no gob
// stream or JSON document can start with (see the package comment).
const (
	FrameMagic  = 0xB7 // transport envelope payload
	RecordMagic = 0xB9 // one WAL record
	SnapMagic   = 0xC1 // relstore checkpoint image (0xBA while rows named their columns)
	BlobMagic   = 0xC2 // BLOB store sidecar: a sealed index, then the objects' bytes (0xBB while it was one sealed image)
	PushMagic   = 0xBD // fabric push request body
	ReplyMagic  = 0xBE // fabric resolve reply body
	BundleMagic = 0xBF // a document bundle sent as a body of its own
	BodyMagic   = 0xC0 // plan-encoded message body (body.go)

	// Version is the current format version, encoded after every
	// magic byte but the three bundle-carrying bodies'. Decoders reject
	// versions they do not know.
	Version = 1

	// BundleVersion is the version byte after PushMagic, ReplyMagic and
	// BundleMagic. It moves on its own, because Version also frames the
	// WAL and the fabric's State stream. Version 2 carries each
	// medium's SHA-256; there is no reader for version 1.
	BundleVersion = 2
)

// Codec errors.
var (
	// ErrCorrupt reports a structural decoding failure: a bad magic or
	// version byte, a truncated field, a length that overruns the
	// input.
	ErrCorrupt = errors.New("wire: corrupt encoding")
	// ErrChecksum reports that a frame or record decoded structurally
	// but its CRC32C trailer does not match its payload.
	ErrChecksum = errors.New("wire: checksum mismatch")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C (Castagnoli) checksum of p — the
// polynomial with hardware support on both amd64 and arm64, so a
// trailer costs a table lookup loop at worst.
func Checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// ChecksumUpdate returns the checksum of the bytes crc covered followed
// by p, so a trailer can cover bytes that do not sit in one slice.
func ChecksumUpdate(crc uint32, p []byte) uint32 { return crc32.Update(crc, castagnoli, p) }

// AppendUvarint appends v in unsigned LEB128.
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// AppendVarint appends v zigzag-encoded, so small negatives stay
// small.
func AppendVarint(dst []byte, v int64) []byte {
	return binary.AppendVarint(dst, v)
}

// AppendUint32 appends v as 4 fixed little-endian bytes.
func AppendUint32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

// AppendString appends a length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBytes appends a length-prefixed byte slice.
func AppendBytes(dst []byte, b []byte) []byte {
	dst = AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendFloat64 appends v as 8 fixed little-endian bytes (IEEE 754).
func AppendFloat64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// AppendTime appends an instant as seconds + nanoseconds, which cover
// the full time.Time range (UnixNano alone saturates outside
// 1678-2262). The zone is not carried: Reader.Time returns UTC.
func AppendTime(dst []byte, t time.Time) []byte {
	dst = AppendVarint(dst, t.Unix())
	return AppendUvarint(dst, uint64(t.Nanosecond()))
}

// Value type tags. TestValueTagsMatchTheDecoder requires that Value
// decodes exactly the tags AppendValue writes.
const (
	tagNil   = 0
	tagInt   = 1
	tagFloat = 2
	tagStr   = 3
	tagBytes = 4
	tagFalse = 5
	tagTrue  = 6
	tagTime  = 7
)

// AppendValue appends one tagged scalar. The accepted dynamic types
// are exactly the relational engine's canonical set: nil, int64,
// float64, string, []byte, bool, time.Time. Anything else is an
// error — callers hold already-coerced values, so hitting it means a
// bug upstream, not bad user input.
func AppendValue(dst []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(dst, tagNil), nil
	case int64:
		return AppendVarint(append(dst, tagInt), x), nil
	case float64:
		return AppendFloat64(append(dst, tagFloat), x), nil
	case string:
		return AppendString(append(dst, tagStr), x), nil
	case []byte:
		return AppendBytes(append(dst, tagBytes), x), nil
	case bool:
		if x {
			return append(dst, tagTrue), nil
		}
		return append(dst, tagFalse), nil
	case time.Time:
		return AppendTime(append(dst, tagTime), x), nil
	default:
		return dst, fmt.Errorf("%w: unencodable value type %T", ErrCorrupt, v)
	}
}

// Reader decodes wire primitives from a byte slice with a sticky
// error: after the first failure every further read returns zero
// values, so decode sequences need a single Err check at the end.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps a buffer for decoding.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first decoding failure, nil if none.
func (r *Reader) Err() error { return r.err }

// Len reports the bytes not yet consumed.
func (r *Reader) Len() int { return len(r.buf) - r.off }

func (r *Reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated at offset %d", ErrCorrupt, r.off)
	}
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil || r.off >= len(r.buf) {
		r.fail()
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Uvarint reads an unsigned LEB128 integer.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// Varint reads a zigzag-encoded signed integer.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// Uint32 reads 4 fixed little-endian bytes.
func (r *Reader) Uint32() uint32 {
	if r.err != nil || r.off+4 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

// Float64 reads 8 fixed little-endian bytes written by AppendFloat64.
func (r *Reader) Float64() float64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v
}

// Time reads an instant written by AppendTime, in UTC.
func (r *Reader) Time() time.Time {
	sec := r.Varint()
	nsec := r.Uvarint()
	if r.err != nil || nsec >= 1e9 {
		r.fail()
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec)).UTC()
}

// Count reads an element count and fails when it exceeds the bytes
// left: every element occupies at least one byte, so a hostile count
// can never size an allocation beyond the input that carries it.
func (r *Reader) Count() int {
	n := r.Uvarint()
	if n > uint64(r.Len()) {
		r.fail()
		return 0
	}
	return int(n)
}

func (r *Reader) take(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)-r.off) {
		r.fail()
		return nil
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// String reads a length-prefixed string (an owning copy).
func (r *Reader) String() string {
	return string(r.take(r.Uvarint()))
}

// Bytes reads a length-prefixed byte slice as an owning copy, safe to
// retain after the underlying buffer is recycled. A zero length
// decodes as nil.
func (r *Reader) Bytes() []byte {
	b := r.take(r.Uvarint())
	if len(b) == 0 {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// Fixed reads the next n bytes WITHOUT copying, as View does; nil
// when fewer are left.
func (r *Reader) Fixed(n int) []byte {
	return r.take(uint64(n))
}

// View reads a length-prefixed byte slice WITHOUT copying: the result
// aliases the reader's buffer and is valid only as long as that buffer
// is, and nothing may write into it. It is for large payloads that
// are read, not modified (a frame's body, and the media bytes in it,
// which the BLOB store keeps as they are); everything else should use
// Bytes. A zero length decodes as nil.
func (r *Reader) View() []byte {
	b := r.take(r.Uvarint())
	if len(b) == 0 {
		return nil
	}
	return b[:len(b):len(b)]
}

// Value reads one tagged scalar written by AppendValue.
func (r *Reader) Value() any {
	switch tag := r.Byte(); tag {
	case tagNil:
		return nil
	case tagInt:
		return r.Varint()
	case tagFloat:
		if v := r.Float64(); r.err == nil {
			return v
		}
		return nil
	case tagStr:
		return r.String()
	case tagBytes:
		return r.Bytes()
	case tagFalse:
		return false
	case tagTrue:
		return true
	case tagTime:
		if t := r.Time(); r.err == nil {
			return t
		}
		return nil
	default:
		if r.err == nil {
			r.err = fmt.Errorf("%w: unknown value tag %d", ErrCorrupt, tag)
		}
		return nil
	}
}

// internSlots is the number of slots in an Interner: a power of two,
// so a string's slot is its hash masked. It is fixed, so an Interner
// never grows or rehashes.
const internSlots = 4096

// Interner shares the strings a decoder meets more than once. It is a
// direct-mapped table: a string hashes (CRC32C, the same in every
// process, so allocation counts do not vary from run to run) to one
// slot, which holds the boxed string last decoded there. A string
// equal to the slot's comes back as that boxed value; any other string
// is allocated, boxed and takes the slot over. Two strings that share
// a slot, met alternately, are each allocated every time, but decode
// correctly. The zero Interner is ready to use and allocates its slots
// on the first string it is given.
type Interner struct {
	slots *[internSlots]any
}

// internSlot returns the slot b hashes to.
func internSlot(b []byte) int { return int(Checksum(b) & (internSlots - 1)) }

// intern returns b as a boxed string, shared with the last string that
// hashed to the same slot if it is equal.
func (in *Interner) intern(b []byte) any {
	if in.slots == nil {
		in.slots = new([internSlots]any)
	}
	slot := &in.slots[internSlot(b)]
	if s, ok := (*slot).(string); ok && s == string(b) {
		return *slot
	}
	var v any = string(b)
	*slot = v
	return v
}

// ValueIn reads one tagged scalar as Value does, except that a string
// goes through in: a string equal to the one in its slot comes back as
// that same boxed value, so a string met many times is allocated once,
// unless another string takes its slot in between. Only strings are
// shared: they are immutable, and a []byte is not.
func (r *Reader) ValueIn(in *Interner) any {
	if r.err != nil || r.off >= len(r.buf) || r.buf[r.off] != tagStr {
		return r.Value()
	}
	r.off++
	b := r.take(r.Uvarint())
	if r.err != nil {
		return "" // what Value returns for a truncated string
	}
	return in.intern(b)
}

// StringIn reads a length-prefixed string, as String does, through in
// as ValueIn does.
func (r *Reader) StringIn(in *Interner) string {
	b := r.take(r.Uvarint())
	if r.err != nil {
		return ""
	}
	return in.intern(b).(string)
}

// AppendRecord frames one record payload for an append-only log:
//
//	[RecordMagic][version][uvarint len(payload)][payload][crc32c(payload)]
//
// The CRC trailer makes half-written tails and bit rot detectable;
// the magic byte makes a log written before the binary format (JSON
// lines) a clean error instead of a misparse.
func AppendRecord(dst []byte, payload []byte) []byte {
	return AppendSealed(dst, RecordMagic, payload)
}

// RecordSize is the length AppendRecord gives a record whose payload
// is n bytes long.
func RecordSize(n int) int {
	var prefix [binary.MaxVarintLen64]byte
	return 2 + binary.PutUvarint(prefix[:], uint64(n)) + n + 4
}

// magicErr describes a first byte that is not the wanted magic. No
// magic lives outside [0x80, 0xF7] and every gob stream and JSON
// document starts there (see the package comment), so such a byte is
// named as what it almost certainly is: a file older than the format.
func magicErr(what string, got, want byte) error {
	if got < 0x80 || got > 0xF7 {
		return fmt.Errorf("%w: %s starts 0x%02x, not magic 0x%02x: it predates the binary format", ErrCorrupt, what, got, want)
	}
	return fmt.Errorf("%w: %s magic 0x%02x, want 0x%02x", ErrCorrupt, what, got, want)
}

// CheckBundleHeader checks that body opens with magic and
// BundleVersion. Its error wraps ErrCorrupt and, for a body of another
// version, names that version: a peer on another build learns why the
// call failed.
func CheckBundleHeader(body []byte, magic byte, what string) error {
	if len(body) < 2 || body[0] != magic {
		return fmt.Errorf("%w: not a %s body", ErrCorrupt, what)
	}
	if body[1] != BundleVersion {
		return fmt.Errorf("%w: %s body version %d, this build reads version %d", ErrCorrupt, what, body[1], BundleVersion)
	}
	return nil
}

// ReadRecord reads one record written by AppendRecord from br. It
// returns io.EOF at a clean record boundary, io.ErrUnexpectedEOF when
// the stream ends inside a record (the torn tail a crash mid-append
// leaves), ErrChecksum when a fully present record fails its CRC,
// ErrCorrupt for structural garbage, and the reader's own error when
// the read fails for any reason but end of input. max bounds the
// accepted payload size (<= 0 means no bound). The returned payload is
// an owning copy.
func ReadRecord(br *bufio.Reader, max int) ([]byte, error) {
	magic, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if magic != RecordMagic {
		return nil, magicErr("record", magic, RecordMagic)
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, midRecord(err)
	}
	if ver != Version {
		return nil, fmt.Errorf("%w: record version %d", ErrCorrupt, ver)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, midRecord(err)
	}
	if max > 0 && n > uint64(max) {
		return nil, fmt.Errorf("%w: record claims %d bytes", ErrCorrupt, n)
	}
	payload, err := readPayload(br, n)
	if err != nil {
		return nil, midRecord(err)
	}
	var crc [4]byte
	if _, err := io.ReadFull(br, crc[:]); err != nil {
		return nil, midRecord(err)
	}
	if binary.LittleEndian.Uint32(crc[:]) != Checksum(payload) {
		return nil, fmt.Errorf("%w: record of %d bytes", ErrChecksum, n)
	}
	return payload, nil
}

// readPayload reads a record's n payload bytes. Up to a megabyte the
// buffer is sized from the length prefix; past that the prefix is not
// trusted with an allocation and the buffer grows with what the input
// really holds, so a corrupt length runs out of input, not of memory.
func readPayload(br *bufio.Reader, n uint64) ([]byte, error) {
	if n <= 1<<20 {
		payload := make([]byte, n)
		_, err := io.ReadFull(br, payload)
		return payload, err
	}
	if n > math.MaxInt64 {
		return nil, fmt.Errorf("%w: record claims %d bytes", ErrCorrupt, n)
	}
	payload, err := io.ReadAll(io.LimitReader(br, int64(n)))
	if err == nil && uint64(len(payload)) < n {
		err = io.EOF
	}
	return payload, err
}

// midRecord maps end of input inside a record to io.ErrUnexpectedEOF
// and passes every other read error through.
func midRecord(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// SealImage frames a whole-file image (a checkpoint snapshot or
// sidecar): [magic][version][payload][crc32c(payload)]. The payload
// slice is appended to a fresh buffer; the caller owns the result.
func SealImage(magic byte, payload []byte) []byte {
	out := make([]byte, 0, len(payload)+6)
	out = append(out, magic, Version)
	out = append(out, payload...)
	return AppendUint32(out, Checksum(payload))
}

// OpenImage validates a sealed image and returns its payload (a
// subslice of data — it stays valid only as long as data does).
// ErrCorrupt covers a wrong magic or version or a short file;
// ErrChecksum a payload that fails its trailer.
func OpenImage(magic byte, data []byte) ([]byte, error) {
	if len(data) > 0 && data[0] != magic {
		return nil, magicErr("image", data[0], magic)
	}
	if len(data) < 6 {
		return nil, fmt.Errorf("%w: image of %d bytes is too short", ErrCorrupt, len(data))
	}
	if data[1] != Version {
		return nil, fmt.Errorf("%w: image version %d", ErrCorrupt, data[1])
	}
	payload := data[2 : len(data)-4]
	if binary.LittleEndian.Uint32(data[len(data)-4:]) != Checksum(payload) {
		return nil, fmt.Errorf("%w: image of %d bytes", ErrChecksum, len(data))
	}
	return payload, nil
}
