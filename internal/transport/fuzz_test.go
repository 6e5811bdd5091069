package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// frameBytes encodes one envelope the way writeFrame puts it on the
// wire, for building seed inputs.
func frameBytes(t testing.TB, env *envelope) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, env); err != nil {
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
		env, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return // rejection is the expected outcome for hostile bytes
		}
		if env == nil {
			t.Fatal("readFrame returned neither an envelope nor an error")
		}
		// A frame the decoder accepted must survive a write/read cycle
		// intact — otherwise the codec silently mangles traffic.
		back, err := readFrame(bytes.NewReader(frameBytes(t, env)))
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
// lossless for everything writeFrame accepts. Each input goes out as
// two frames on one stream, the second carrying the first's body
// inverted, and the first body is checked again after the second
// frame is read: a decoded body must not share a buffer the next read
// reuses.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint64(1), "Ping", false, "", []byte(nil), uint64(0), uint64(0), false)
	f.Add(uint64(1<<63), "Fabric.Resolve", true, "fabric: no station on the parent route holds an instance", []byte("bundle"), uint64(0), uint64(0), false)
	f.Add(uint64(0), "", false, "", bytes.Repeat([]byte{0}, 4096), uint64(0), uint64(0), true)
	f.Add(uint64(42), "a method name with spaces \x00 and bytes", true, "err", []byte{0xDE, 0xAD}, uint64(7), uint64(3), false)
	f.Add(uint64(5), "Fabric.Search", false, "", []byte("q"), uint64(1<<62), uint64(1<<61), true)
	f.Fuzz(func(t *testing.T, id uint64, method string, isResp bool, errStr string, body []byte, traceID, parent uint64, more bool) {
		in := &envelope{ID: id, Method: method, IsResp: isResp, Err: errStr, Body: body,
			TraceID: traceID, Parent: parent, More: more}
		inverted := make([]byte, len(body))
		for i, c := range body {
			inverted[i] = ^c
		}
		next := &envelope{ID: id + 1, Method: method, IsResp: !isResp, Body: inverted, TraceID: parent, Parent: traceID}
		var buf bytes.Buffer
		if err := writeFrame(&buf, in); err != nil {
			t.Fatalf("writeFrame: %v", err)
		}
		// The length prefix must match the payload exactly.
		if n := binary.BigEndian.Uint32(buf.Bytes()[:4]); int(n) != buf.Len()-4 {
			t.Fatalf("header claims %d bytes, frame carries %d", n, buf.Len()-4)
		}
		if err := writeFrame(&buf, next); err != nil {
			t.Fatalf("writeFrame: %v", err)
		}
		out, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("readFrame: %v", err)
		}
		if !sameEnvelope(in, out) {
			t.Fatalf("round-trip mismatch: %+v vs %+v", in, out)
		}
		out2, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("second readFrame: %v", err)
		}
		if !sameEnvelope(next, out2) {
			t.Fatalf("second round-trip mismatch: %+v vs %+v", next, out2)
		}
		if !bytes.Equal(out.Body, body) {
			t.Fatal("the first body changed when the second frame was read")
		}
		// A truncated frame must error, never hang or panic.
		if buf2 := frameBytes(t, in); len(buf2) > 4 {
			if _, err := readFrame(bytes.NewReader(buf2[:len(buf2)-1])); err == nil {
				t.Fatal("truncated frame accepted")
			}
			if _, err := readFrame(io.LimitReader(bytes.NewReader(buf2), 4)); err == nil {
				t.Fatal("header-only frame accepted")
			}
		}
	})
}
