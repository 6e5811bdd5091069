package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/wire"
)

// Two frames exactly as the pre-binary transport wrote them (a length
// prefix, then a fresh gob stream of the envelope), kept as bytes now
// that nothing here can produce them: a Fabric.Resolve request, and a
// Ping with a flipped byte near its end. They are also committed fuzz
// seeds (corpusgen_test.go).
const (
	legacyGobFrame  = "\x00\x00\x00\x84c\x7f\x03\x01\x01\benvelope\x01\xff\x80\x00\x01\b\x01\x02ID\x01\x06\x00\x01\x06Method\x01\f\x00\x01\x06IsResp\x01\x02\x00\x01\x04More\x01\x02\x00\x01\x03Err\x01\f\x00\x01\x04Body\x01\n\x00\x01\aTraceID\x01\x06\x00\x01\x06Parent\x01\x06\x00\x00\x00\x1f\xff\x80\x01\v\x01\x0eFabric.Resolve\x04\x06legacy\x01\x05\x00"
	corruptGobFrame = "\x00\x00\x00pc\x7f\x03\x01\x01\benvelope\x01\xff\x80\x00\x01\b\x01\x02ID\x01\x06\x00\x01\x06Method\x01\f\x00\x01\x06IsResp\x01\x02\x00\x01\x04More\x01\x02\x00\x01\x03Err\x01\f\x00\x01\x04Body\x01\n\x00\x01\aTraceID\x01\x06\x00\x01\x06Parent\x01\x06\x00\x00\x00\v\xff\x80\x01\x02\x01\x04Pin\x98\x00"
)

func sameEnvelope(a, b *envelope) bool {
	return a.ID == b.ID && a.Method == b.Method && a.IsResp == b.IsResp &&
		a.More == b.More && a.Err == b.Err && bytes.Equal(a.Body, b.Body) &&
		a.TraceID == b.TraceID && a.Parent == b.Parent
}

func TestBinaryFrameRoundTrip(t *testing.T) {
	cases := []*envelope{
		{},
		{ID: 1, Method: "Ping"},
		{ID: 1 << 62, Method: "Fabric.Push", Body: bytes.Repeat([]byte{0xAB}, 512)},
		{ID: 9, IsResp: true, Err: "no such method"},
		{ID: 3, Method: "Fabric.Search", TraceID: 0xDEADBEEF, Parent: 42},
		{ID: 4, IsResp: true, More: true, Body: []byte("chunk")},
		{ID: 5, Method: "m", Body: []byte{}, TraceID: 1},
	}
	for i, in := range cases {
		var buf bytes.Buffer
		if err := writeFrame(&buf, in); err != nil {
			t.Fatalf("case %d: writeFrame: %v", i, err)
		}
		out, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("case %d: readFrame: %v", i, err)
		}
		if !sameEnvelope(in, out) {
			t.Fatalf("case %d: round trip mismatch:\n in: %+v\nout: %+v", i, in, out)
		}
	}
}

// TestLegacyGobFrameRejected: the read-side gob fallback is gone. A
// frame whose payload does not start with the frame magic — here what
// a pre-binary peer would send — is a corrupt header, not a decode
// attempt.
func TestLegacyGobFrameRejected(t *testing.T) {
	for _, frame := range []string{legacyGobFrame, corruptGobFrame} {
		if env, err := readFrame(strings.NewReader(frame)); !errors.Is(err, ErrBadHeader) {
			t.Fatalf("gob frame: envelope %+v, err %v; want ErrBadHeader", env, err)
		}
	}
}

func TestFrameChecksumDetectsCorruption(t *testing.T) {
	in := &envelope{ID: 5, Method: "SQL", Body: bytes.Repeat([]byte{0x11}, 64)}
	var buf bytes.Buffer
	if err := writeFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	// Flip one body byte; the CRC trailer must catch it.
	raw := buf.Bytes()
	raw[len(raw)/2] ^= 0x01
	if _, err := readFrame(bytes.NewReader(raw)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
}

func TestFrameBadVersionIsBadHeader(t *testing.T) {
	in := &envelope{ID: 5, Method: "m"}
	var buf bytes.Buffer
	if err := writeFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[5] = 0x7F // version byte, right after the prefix and magic
	if _, err := readFrame(bytes.NewReader(raw)); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("err = %v, want ErrBadHeader", err)
	}
}

// TestCorruptionErrorsAreNotUnreachable pins the repair-layer
// contract: neither a corrupt header nor a checksum failure may be
// classified as peer-unreachable — the peer answered, its answer was
// damaged, and grafting its subtree away would repair the wrong
// problem.
func TestCorruptionErrorsAreNotUnreachable(t *testing.T) {
	for _, err := range []error{ErrBadHeader, ErrChecksum} {
		if Unreachable(err) {
			t.Fatalf("Unreachable(%v) = true, want false", err)
		}
	}
	if !Unreachable(ErrTimeout) || !Unreachable(ErrClosed) || !Unreachable(ErrPeerDown) {
		t.Fatal("transport-level failures must remain unreachable")
	}
}

// countingWriter records each Write call and each vectored write, so
// the tests can pin the one-write framing contract.
type countingWriter struct {
	writes  int
	vectors []net.Buffers
	buf     bytes.Buffer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

func (w *countingWriter) writeBuffers(bufs net.Buffers) (int64, error) {
	w.vectors = append(w.vectors, append(net.Buffers(nil), bufs...))
	return bufs.WriteTo(&w.buf)
}

// TestWriteFrameSingleWrite pins the fix for the old two-write frame:
// a frame leaves in ONE vectored write (one writev on a TCP
// connection), so a failure can never strand a peer blocked after a
// bare header and a frame costs one syscall. The body segment of that
// write is the caller's own slice, not a copy of it.
func TestWriteFrameSingleWrite(t *testing.T) {
	w := &countingWriter{}
	env := &envelope{ID: 1, Method: "Fabric.Push", Body: bytes.Repeat([]byte{9}, 10000)}
	if err := writeFrame(w, env); err != nil {
		t.Fatal(err)
	}
	if w.writes != 0 || len(w.vectors) != 1 {
		t.Fatalf("writeFrame issued %d writes and %d vectored writes, want one vectored write", w.writes, len(w.vectors))
	}
	if body := w.vectors[0][1]; len(body) != len(env.Body) || &body[0] != &env.Body[0] {
		t.Fatal("the body segment of the vectored write is not the caller's slice")
	}
	out, err := readFrame(&w.buf)
	if err != nil {
		t.Fatal(err)
	}
	if !sameEnvelope(env, out) {
		t.Fatal("round trip through counting writer mismatched")
	}
}

// TestCountingConnCountsVectoredFrames: a frame the server writes
// through its counting wrapper goes out as a vectored write and is
// counted byte for byte.
func TestCountingConnCountsVectoredFrames(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	srv := NewServer()
	env := &envelope{ID: 3, Method: "Fabric.Push", IsResp: true, Body: bytes.Repeat([]byte{7}, 5000)}
	sent := make(chan error, 1)
	go func() { sent <- writeFrame(&countingConn{Conn: a, srv: srv}, env) }()
	got, err := readFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if !sameEnvelope(env, got) {
		t.Fatal("frame through the counting wrapper mismatched")
	}
	if out, want := srv.Stats().BytesOut, int64(len(frameBytes(t, env))); out != want {
		t.Fatalf("BytesOut = %d, want the frame's %d bytes", out, want)
	}
}

// TestWriteFrameGolden pins the bytes on the wire: writeFrame's output
// for every FuzzReadFrame seed envelope must equal the frames in
// testdata/frames.golden, which were written by the copying encoder
// that preceded vectored writes.
func TestWriteFrameGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "frames.golden"))
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, frame, _ := strings.Cut(line, " ")
		golden[name] = frame
	}
	for _, seed := range frameSeeds {
		want, ok := golden[seed.name]
		if !ok {
			t.Fatalf("%s: no golden frame", seed.name)
		}
		if got := hex.EncodeToString(frameBytes(t, seed.env)); got != want {
			t.Errorf("%s: frame\n got %s\nwant %s", seed.name, got, want)
		}
	}
}

// TestFrameBodySurvivesNextRead: a decoded body is the frame's own
// buffer, so reading the next frame from the same stream must leave
// it untouched.
func TestFrameBodySurvivesNextRead(t *testing.T) {
	first := bytes.Repeat([]byte{0x11}, 4096)
	var stream bytes.Buffer
	for i, body := range [][]byte{first, bytes.Repeat([]byte{0xEE}, 4096)} {
		if err := writeFrame(&stream, &envelope{ID: uint64(i), Method: "Fabric.Push", Body: body}); err != nil {
			t.Fatal(err)
		}
	}
	a, err := readFrame(&stream)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := readFrame(&stream); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Body, first) {
		t.Fatal("reading the second frame changed the first frame's body")
	}
}

// TestReadFrameLyingLengthBoundedAlloc: a header claiming 200 MiB
// followed by 1 KiB and the end of the stream is an error, and the
// read buffer grows with what arrives rather than with the claim.
func TestReadFrameLyingLengthBoundedAlloc(t *testing.T) {
	frame := lyingFrame()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(bytes.NewReader(frame))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a frame cut 1 KiB into a 200 MiB claim was accepted")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 4<<20 {
		t.Fatalf("reading the lying frame allocated %d bytes, want < 4 MiB", alloc)
	}
}

func TestWriteFrameRejectsOversize(t *testing.T) {
	env := &envelope{ID: 1, Body: make([]byte, MaxFrame+1)}
	if err := writeFrame(&countingWriter{}, env); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestFrameTruncatedFieldsAreBadHeader(t *testing.T) {
	// A structurally short binary payload (magic present, fields cut)
	// must be ErrBadHeader — but note a random truncation usually
	// fails the CRC first, which is fine; this case hand-builds a
	// payload whose CRC is valid but whose fields overrun.
	payload := []byte{wire.FrameMagic, wire.Version, flagMethod, 0x01, 0xFF}
	payload = wire.AppendUint32(payload, wire.Checksum(payload))
	var buf bytes.Buffer
	var head [4]byte
	binary.BigEndian.PutUint32(head[:], uint32(len(payload)))
	buf.Write(head[:])
	buf.Write(payload)
	if _, err := readFrame(&buf); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("err = %v, want ErrBadHeader", err)
	}
}

func BenchmarkFrameEncode(b *testing.B) {
	env := &envelope{ID: 42, Method: "Fabric.Push", Body: bytes.Repeat([]byte{0xCD}, 4096), TraceID: 7, Parent: 3}
	var sink countingWriter
	b.SetBytes(int64(len(env.Body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink.buf.Reset()
		if err := writeFrame(&sink, env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrameDecode(b *testing.B) {
	env := &envelope{ID: 42, Method: "Fabric.Push", Body: bytes.Repeat([]byte{0xCD}, 4096), TraceID: 7, Parent: 3}
	var buf bytes.Buffer
	if err := writeFrame(&buf, env); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(env.Body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := readFrame(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}
