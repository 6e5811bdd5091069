package fabric

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/docdb"
	"repro/internal/wire"
)

// Binary bodies of the two fabric messages that carry bundles. Both
// implement wire.Segmenter and transport.WireAppender/WireDecoder, so
// the transport sends them as segments, and Marshal and Unmarshal
// route them here instead of through the body codec:
//
//	push  := [PushMagic][BundleVersion] header bundle{count}
//	header:= refonly(0|1) M N watermark epoch
//	         n×(pos addr)  roster, ascending pos
//	         n×pos         down-set, ascending
//	         count         number of bundles, never 0
//	reply := [ReplyMagic][BundleVersion] servedBy bundle
//
// Integers are zigzag varints, counts uvarints, bundles are
// docdb.EncodeBundle, each medium under its SHA-256. The header comes
// first so that a relay can read the topology and start forwarding the
// body it was handed without looking at a single bundle byte (see
// handlePush). Neither body carries a checksum: the transport frame's
// CRC32C covers it on every hop.

// ErrBadBody reports a push or resolve-reply body that does not decode.
var ErrBadBody = errors.New("fabric: malformed message body")

// pushEncodes counts PushRequest encodes in this process. A broadcast
// costs exactly one — at the root — however many stations relay it;
// the relay tests pin that.
var pushEncodes atomic.Int64

// openBody checks a body's magic and version bytes and returns a
// reader positioned after them. A body of another version fails naming
// that version.
func openBody(body []byte, magic byte, what string) (*wire.Reader, error) {
	if err := wire.CheckBundleHeader(body, magic, what); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadBody, err)
	}
	return wire.NewReader(body[2:]), nil
}

// AppendSegments encodes the push into b, its media spliced in as the
// store views they are (docdb.EncodeBundle).
func (r PushRequest) AppendSegments(b *wire.Builder) error {
	pushEncodes.Add(1)
	b.Buf = append(b.Buf, wire.PushMagic, wire.BundleVersion)
	if r.RefOnly {
		b.Buf = append(b.Buf, 1)
	} else {
		b.Buf = append(b.Buf, 0)
	}
	for _, v := range []int{r.M, r.N, r.Watermark, r.Epoch} {
		b.Buf = wire.AppendVarint(b.Buf, int64(v))
	}
	positions := make([]int, 0, len(r.Roster))
	for pos := range r.Roster {
		positions = append(positions, pos)
	}
	sort.Ints(positions)
	b.Buf = wire.AppendUvarint(b.Buf, uint64(len(positions)))
	for _, pos := range positions {
		b.Buf = wire.AppendVarint(b.Buf, int64(pos))
		b.Buf = wire.AppendString(b.Buf, r.Roster[pos])
	}
	positions = positions[:0]
	for pos, down := range r.Down {
		if down {
			positions = append(positions, pos)
		}
	}
	sort.Ints(positions)
	b.Buf = wire.AppendUvarint(b.Buf, uint64(len(positions)))
	for _, pos := range positions {
		b.Buf = wire.AppendVarint(b.Buf, int64(pos))
	}
	b.Buf = wire.AppendUvarint(b.Buf, uint64(len(r.Bundles)))
	for i := range r.Bundles {
		if err := docdb.EncodeBundle(b, &r.Bundles[i]); err != nil {
			return err
		}
	}
	return nil
}

// AppendWire is AppendSegments flattened, for Marshal.
func (r PushRequest) AppendWire(dst []byte) ([]byte, error) {
	return wire.AppendFlat(dst, r.AppendSegments)
}

// decodePushHeader decodes a push body up to its bundles: the returned
// request has Bundles unset, and the reader is left at the bundle
// count for decodePushBundles. The count is checked here all the same
// — a push that carries nothing is rejected before anyone relays it.
func decodePushHeader(body []byte) (PushRequest, *wire.Reader, error) {
	var req PushRequest
	r, err := openBody(body, wire.PushMagic, "push")
	if err != nil {
		return req, nil, err
	}
	switch r.Byte() {
	case 0:
	case 1:
		req.RefOnly = true
	default:
		return req, nil, fmt.Errorf("%w: bad install-policy byte", ErrBadBody)
	}
	for _, v := range []*int{&req.M, &req.N, &req.Watermark, &req.Epoch} {
		*v = int(r.Varint())
	}
	if n := r.Count(); n > 0 {
		req.Roster = make(map[int]string)
		for i := 0; i < n && r.Err() == nil; i++ {
			req.Roster[int(r.Varint())] = r.String()
		}
	}
	if n := r.Count(); n > 0 {
		req.Down = make(map[int]bool)
		for i := 0; i < n && r.Err() == nil; i++ {
			req.Down[int(r.Varint())] = true
		}
	}
	peek := *r // a copy of the cursor: the count stays unread in r
	count := peek.Count()
	if peek.Err() != nil {
		return req, nil, fmt.Errorf("%w: push header: %v", ErrBadBody, peek.Err())
	}
	if count == 0 {
		return req, nil, fmt.Errorf("%w: push carries no bundle", ErrBadBody)
	}
	return req, r, nil
}

// decodePushBundles decodes the bundles of a push from the reader
// decodePushHeader returned. Their media bytes alias the body it reads
// from (docdb.ReadBundle).
func decodePushBundles(r *wire.Reader) ([]docdb.Bundle, error) {
	var bundles []docdb.Bundle
	for i, n := 0, r.Count(); i < n && r.Err() == nil; i++ {
		bundles = append(bundles, docdb.ReadBundle(r))
	}
	if r.Err() != nil {
		return nil, fmt.Errorf("%w: push bundles: %v", ErrBadBody, r.Err())
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d bytes after the last bundle", ErrBadBody, r.Len())
	}
	return bundles, nil
}

// DecodeWire implements transport.WireDecoder. The decoded bundles'
// media bytes alias body.
func (r *PushRequest) DecodeWire(body []byte) error {
	req, rd, err := decodePushHeader(body)
	if err != nil {
		return err
	}
	if req.Bundles, err = decodePushBundles(rd); err != nil {
		return err
	}
	*r = req
	return nil
}

// AppendSegments encodes the reply into b, its media spliced in as
// the store views they are (docdb.EncodeBundle).
func (r ResolveReply) AppendSegments(b *wire.Builder) error {
	b.Buf = append(b.Buf, wire.ReplyMagic, wire.BundleVersion)
	b.Buf = wire.AppendVarint(b.Buf, int64(r.ServedBy))
	return docdb.EncodeBundle(b, &r.Bundle)
}

// AppendWire is AppendSegments flattened, for Marshal.
func (r ResolveReply) AppendWire(dst []byte) ([]byte, error) {
	return wire.AppendFlat(dst, r.AppendSegments)
}

// DecodeWire implements transport.WireDecoder. The decoded bundle's
// media bytes alias body.
func (r *ResolveReply) DecodeWire(body []byte) error {
	rd, err := openBody(body, wire.ReplyMagic, "resolve reply")
	if err != nil {
		return err
	}
	reply := ResolveReply{ServedBy: int(rd.Varint())}
	reply.Bundle = docdb.ReadBundle(rd)
	if rd.Err() != nil {
		return fmt.Errorf("%w: resolve reply: %v", ErrBadBody, rd.Err())
	}
	if rd.Len() != 0 {
		return fmt.Errorf("%w: %d bytes after the bundle", ErrBadBody, rd.Len())
	}
	*r = reply
	return nil
}
