package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"slices"
	"testing"
)

// send writes env as a frame whose body is env.Body, in one segment.
func send(w io.Writer, env *envelope) error { return writeFrame(w, env, [][]byte{env.Body}) }

// recv reads one frame from a stream through a reader of its own.
func recv(r io.Reader) (*envelope, error) { return readEnvelope(newFrameReader(r)) }

// readEnvelope reads one frame from r into an envelope of its own,
// copying its method.
func readEnvelope(r *bufio.Reader) (*envelope, error) {
	env := new(envelope)
	if err := readFrame(r, env, nil); err != nil {
		return nil, err
	}
	return env, nil
}

// frameBytes encodes one envelope the way writeFrame puts it on the
// wire, for building seed inputs.
func frameBytes(t testing.TB, env *envelope) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := send(&buf, env); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// frameSeeds are the well-formed envelopes behind FuzzReadFrame's
// seed frames, under their corpus file names. The last two go into
// the corpus corrupted (corruptSeeds); TestWriteFrameGolden pins the
// bytes writeFrame makes of every one of them.
var frameSeeds = []struct {
	name string
	env  *envelope
}{
	{"ping", &envelope{ID: 1, Method: "Ping"}},
	{"push_payload", &envelope{ID: 7, Method: "Fabric.Push", Body: bytes.Repeat([]byte{0xAB}, 512)}},
	{"error_response", &envelope{ID: 9, IsResp: true, Err: "no such method"}},
	{"traced_call", &envelope{ID: 3, Method: "Fabric.Search", TraceID: 0xDEADBEEF, Parent: 42}},
	{"stream_chunk", &envelope{ID: 4, IsResp: true, More: true, Body: []byte("chunk")}},
	{"corrupt_trailer", &envelope{ID: 3, Method: "SQL", Body: []byte("x")}},
	{"corrupt_body", &envelope{ID: 8, Method: "Fabric.Push", Body: bytes.Repeat([]byte{0x33}, 64)}},
}

// corruptSeeds damages the frames of the two corrupt_ seeds: one
// breaks the CRC trailer, the other flips a body byte under it.
var corruptSeeds = map[string]func(frame []byte){
	"corrupt_trailer": func(frame []byte) { frame[len(frame)-1] ^= 0xFF },
	"corrupt_body":    func(frame []byte) { frame[len(frame)/2] ^= 0x01 },
}

// lyingFrame is a header claiming 200 MiB followed by the 1 KiB the
// peer really sends before the stream ends.
func lyingFrame() []byte {
	return append([]byte{0x0C, 0x80, 0x00, 0x00}, bytes.Repeat([]byte{0x5A}, 1<<10)...)
}

// FuzzReadFrame feeds the wire decoder arbitrary bytes: hostile input
// must produce an error — truncated headers, lying length prefixes,
// corrupt CRC trailers, frames from a pre-binary gob peer — and must
// never panic or allocate the claimed (rather than the delivered) body size.
func FuzzReadFrame(f *testing.F) {
	for _, seed := range frameSeeds {
		frame := frameBytes(f, seed.env)
		if corrupt, ok := corruptSeeds[seed.name]; ok {
			corrupt(frame)
		}
		f.Add(frame)
	}
	// Pre-binary gob frames: no magic byte, rejected.
	f.Add([]byte(legacyGobFrame))
	f.Add([]byte(corruptGobFrame))
	// Hostile shapes.
	f.Add([]byte{})                             // empty stream
	f.Add([]byte{0x00})                         // truncated header
	f.Add([]byte{0x00, 0x00, 0x00, 0x00})       // zero-length body
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})       // length way beyond MaxFrame
	f.Add([]byte{0x7F, 0xFF, 0xFF, 0xFF})       // length just beyond MaxFrame
	f.Add([]byte{0x00, 0x00, 0x00, 0x10, 1, 2}) // claims 16 bytes, delivers 2
	f.Add(lyingFrame())                         // claims 200 MiB, delivers 1 KiB
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := recv(bytes.NewReader(data))
		if err != nil {
			return // rejection is the expected outcome for hostile bytes
		}
		if env == nil {
			t.Fatal("readFrame returned neither an envelope nor an error")
		}
		// A frame the decoder accepted must survive a write/read cycle
		// intact — otherwise the codec silently mangles traffic.
		back, err := recv(bytes.NewReader(frameBytes(t, env)))
		if err != nil {
			t.Fatalf("re-reading an accepted frame failed: %v", err)
		}
		if !sameEnvelope(env, back) {
			t.Fatalf("round-trip mismatch: %+v vs %+v", env, back)
		}
	})
}

// FuzzFrameRoundTrip builds envelopes from arbitrary field values —
// trace context and stream chunks included — and asserts the codec is
// lossless for everything writeFrame accepts. Each input goes out on
// one stream as four frames: itself, then a streamed reply of two
// More-flagged chunks (its body inverted, then its body) and a final
// frame. The fuzzer's inputs also choose, through a generator seeded
// with their hash, where each body is cut into segments and how short
// each read of the stream returns. Each frame must equal the one
// written with its body in one segment, byte for byte, and read back
// identical through one buffered reader; the first body is checked
// again after the rest is read: a decoded body must not share a buffer
// a later read reuses.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint64(1), "Ping", false, "", []byte(nil), uint64(0), uint64(0), false)
	f.Add(uint64(1<<63), "Fabric.Resolve", true, "fabric: no station on the parent route holds an instance", []byte("bundle"), uint64(0), uint64(0), false)
	f.Add(uint64(0), "", false, "", bytes.Repeat([]byte{0}, 4096), uint64(0), uint64(0), true)
	f.Add(uint64(42), "a method name with spaces \x00 and bytes", true, "err", []byte{0xDE, 0xAD}, uint64(7), uint64(3), false)
	f.Add(uint64(5), "Fabric.Search", false, "", []byte("q"), uint64(1<<62), uint64(1<<61), true)
	// Bodies at the edges of the two frame sizes: the largest written
	// whole, the smallest written as a vector, and one that spans
	// several fills of a connection's read-ahead buffer.
	f.Add(uint64(6), "Bundle", true, "", bytes.Repeat([]byte{0x5C}, smallBody), uint64(0), uint64(0), false)
	f.Add(uint64(7), "Fabric.Resolve", true, "", bytes.Repeat([]byte{0xA5}, smallBody+1), uint64(9), uint64(2), false)
	f.Add(uint64(8), "Fabric.Push", false, "", bytes.Repeat([]byte{0x3C}, 3*readBuffer+17), uint64(1), uint64(1), true)
	f.Fuzz(func(t *testing.T, id uint64, method string, isResp bool, errStr string, body []byte, traceID, parent uint64, more bool) {
		h := fnv.New64a()
		fmt.Fprint(h, id, method, isResp, errStr, traceID, parent, more)
		h.Write(body)
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		inverted := make([]byte, len(body))
		for i, c := range body {
			inverted[i] = ^c
		}
		frames := []*envelope{
			{ID: id, Method: method, IsResp: isResp, Err: errStr, Body: body, TraceID: traceID, Parent: parent, More: more},
			{ID: id + 1, IsResp: true, More: true, Body: inverted, TraceID: parent, Parent: traceID},
			{ID: id + 1, IsResp: true, More: true, Body: body},
			{ID: id + 1, IsResp: true},
		}
		var stream bytes.Buffer
		for i, env := range frames {
			start := stream.Len()
			if err := writeFrame(&stream, env, cutBody(rng, env.Body)); err != nil {
				t.Fatalf("frame %d: writeFrame: %v", i, err)
			}
			frame := stream.Bytes()[start:]
			// The length prefix must match the payload exactly.
			if n := binary.BigEndian.Uint32(frame[:4]); int(n) != len(frame)-4 {
				t.Fatalf("frame %d: header claims %d bytes, frame carries %d", i, n, len(frame)-4)
			}
			if !bytes.Equal(frame, frameBytes(t, env)) {
				t.Fatalf("frame %d: a segmented write differs from the one-segment write", i)
			}
		}
		r := newFrameReader(&shortReader{r: &stream, rng: rng, max: 1 + rng.Intn(2*readBuffer)})
		var first *envelope
		for i, env := range frames {
			out, err := readEnvelope(r)
			if err != nil {
				t.Fatalf("frame %d: readFrame: %v", i, err)
			}
			if !sameEnvelope(env, out) {
				t.Fatalf("frame %d: round-trip mismatch: %+v vs %+v", i, env, out)
			}
			if i == 0 {
				first = out
			}
		}
		if _, err := readEnvelope(r); !errors.Is(err, io.EOF) {
			t.Fatalf("after the last frame: %v, want io.EOF", err)
		}
		if !bytes.Equal(first.Body, body) {
			t.Fatal("the first body changed when the later frames were read")
		}
		// A truncated frame must error, never hang or panic.
		if buf2 := frameBytes(t, frames[0]); len(buf2) > 4 {
			if _, err := recv(bytes.NewReader(buf2[:len(buf2)-1])); err == nil {
				t.Fatal("truncated frame accepted")
			}
			if _, err := recv(io.LimitReader(bytes.NewReader(buf2), 4)); err == nil {
				t.Fatal("header-only frame accepted")
			}
		}
	})
}

// cutBody splits body into up to five segments at points rng chooses;
// a segment may be empty.
func cutBody(rng *rand.Rand, body []byte) [][]byte {
	cuts := make([]int, rng.Intn(5))
	for i := range cuts {
		cuts[i] = rng.Intn(len(body) + 1)
	}
	slices.Sort(cuts)
	segs, at := [][]byte{}, 0
	for _, c := range cuts {
		segs = append(segs, body[at:c])
		at = c
	}
	return append(segs, body[at:])
}

// shortReader returns at most max bytes from each Read, and often
// fewer, as a socket may.
type shortReader struct {
	r   io.Reader
	rng *rand.Rand
	max int
}

func (s *shortReader) Read(p []byte) (int, error) {
	if n := min(len(p), s.max); n > 0 {
		p = p[:1+s.rng.Intn(n)]
	}
	return s.r.Read(p)
}
