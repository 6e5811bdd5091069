package transport

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"
)

// streamServer serves one method that streams n deterministic bytes
// and one that echoes over the plain path.
func streamServer(t *testing.T, payload []byte) (string, *Server) {
	t.Helper()
	srv := NewServer()
	srv.Handle("Stream", func(decode func(any) error) (any, error) {
		var req struct{}
		if err := decode(&req); err != nil {
			return nil, err
		}
		return bytes.NewReader(payload), nil
	})
	srv.Handle("Echo", func(decode func(any) error) (any, error) {
		var s string
		if err := decode(&s); err != nil {
			return nil, err
		}
		return s, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, srv
}

func streamPayload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i * 31)
	}
	return p
}

func TestCallStreamMultiChunk(t *testing.T) {
	// Three full chunks plus a partial one.
	payload := streamPayload(3*StreamChunk + 1234)
	addr, _ := streamServer(t, payload)
	p := NewPool(addr, 1, 5*time.Second)
	defer p.Close()
	var got bytes.Buffer
	n, err := p.CallStream("Stream", struct{}{}, &got)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(payload)) {
		t.Fatalf("streamed %d bytes, want %d", n, len(payload))
	}
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatal("streamed bytes corrupted")
	}
	// The connection stays usable for ordinary calls afterwards.
	var echo string
	if err := p.Call("Echo", "still alive", &echo); err != nil || echo != "still alive" {
		t.Fatalf("call after stream: %q, %v", echo, err)
	}
}

func TestCallStreamEmptyPayload(t *testing.T) {
	addr, _ := streamServer(t, nil)
	p := NewPool(addr, 1, time.Second)
	defer p.Close()
	var got bytes.Buffer
	n, err := p.CallStream("Stream", struct{}{}, &got)
	if err != nil || n != 0 {
		t.Fatalf("empty stream = %d bytes, %v", n, err)
	}
}

// failingReader yields some bytes and then an error, modelling a
// checkpoint file that goes bad mid-transfer.
type failingReader struct {
	left int
}

func (r *failingReader) Read(p []byte) (int, error) {
	if r.left <= 0 {
		return 0, errors.New("disk ate the checkpoint")
	}
	n := min(len(p), r.left)
	r.left -= n
	return n, nil
}

func TestCallStreamMidStreamError(t *testing.T) {
	srv := NewServer()
	srv.Handle("Bad", func(decode func(any) error) (any, error) {
		var req struct{}
		if err := decode(&req); err != nil {
			return nil, err
		}
		return &failingReader{left: StreamChunk / 2}, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := NewPool(addr, 1, 5*time.Second)
	defer p.Close()
	var got bytes.Buffer
	n, err := p.CallStream("Bad", struct{}{}, &got)
	if err == nil || err.Error() != "disk ate the checkpoint" {
		t.Fatalf("err = %v, want the server's read error", err)
	}
	if n != int64(StreamChunk/2) {
		t.Errorf("partial bytes before the error = %d, want %d", n, StreamChunk/2)
	}
	// The error frame closed the stream cleanly: the connection is
	// parked again.
	p.mu.Lock()
	idle := len(p.idle)
	p.mu.Unlock()
	if idle != 1 {
		t.Errorf("idle connections after a mid-stream error = %d, want 1", idle)
	}
	var echo bytes.Buffer
	if _, err := p.CallStream("Bad", struct{}{}, &echo); err == nil {
		t.Fatal("second stream unexpectedly succeeded")
	}
}

func TestPoolCallStream(t *testing.T) {
	payload := streamPayload(2*StreamChunk + 77)
	addr, _ := streamServer(t, payload)
	p := NewPool(addr, 2, 5*time.Second)
	defer p.Close()
	for i := 0; i < 3; i++ { // exercises idle reuse across streams
		var got bytes.Buffer
		n, err := p.CallStream("Stream", struct{}{}, &got)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if n != int64(len(payload)) || !bytes.Equal(got.Bytes(), payload) {
			t.Fatalf("round %d: %d bytes, corrupted=%v", i, n, !bytes.Equal(got.Bytes(), payload))
		}
	}
}

func TestPoolCallStreamRetriesStaleIdle(t *testing.T) {
	payload := streamPayload(StreamChunk + 9)
	addr, srv := streamServer(t, payload)
	p := NewPool(addr, 1, 5*time.Second)
	defer p.Close()
	var first bytes.Buffer
	if _, err := p.CallStream("Stream", struct{}{}, &first); err != nil {
		t.Fatal(err)
	}
	// The server restarts on the same address: the parked connection
	// is stale, and the pool must retry the stream on a fresh dial.
	srv.Close()
	srv2 := NewServer()
	srv2.Handle("Stream", func(decode func(any) error) (any, error) {
		var req struct{}
		if err := decode(&req); err != nil {
			return nil, err
		}
		return bytes.NewReader(payload), nil
	})
	if _, err := srv2.Listen(addr); err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	var second bytes.Buffer
	n, err := p.CallStream("Stream", struct{}{}, &second)
	if err != nil {
		t.Fatalf("stream across server restart: %v", err)
	}
	if n != int64(len(payload)) {
		t.Fatalf("streamed %d bytes, want %d", n, len(payload))
	}
}

// chunkyReader yields many small Reads so the server emits one frame
// per kilobyte — enough frames that the server is still sending when
// the consumer gives up.
type chunkyReader struct{ left int }

func (r *chunkyReader) Read(p []byte) (int, error) {
	if r.left == 0 {
		return 0, io.EOF
	}
	r.left--
	n := 1024
	if n > len(p) {
		n = len(p)
	}
	for i := 0; i < n; i++ {
		p[i] = byte(r.left)
	}
	return n, nil
}

type failAfterWriter struct{ writes int }

func (w *failAfterWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > 1 {
		return 0, errors.New("consumer gave up")
	}
	return len(p), nil
}

// TestAbandonedStreamDoesNotWedgeClient: a consumer that dies
// mid-stream costs only its connection — the pool discards it, unread
// frames and all — and the next call on the same pool goes through.
func TestAbandonedStreamDoesNotWedgeClient(t *testing.T) {
	srv := NewServer()
	srv.Handle("Chunks", func(decode func(any) error) (any, error) {
		var req struct{}
		if err := decode(&req); err != nil {
			return nil, err
		}
		return &chunkyReader{left: 64}, nil // 64 one-KiB frames
	})
	srv.Handle("Echo", func(decode func(any) error) (any, error) {
		var s string
		if err := decode(&s); err != nil {
			return nil, err
		}
		return s, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := NewPool(addr, 1, 5*time.Second)
	defer p.Close()
	if _, err := p.CallStream("Chunks", struct{}{}, &failAfterWriter{}); err == nil {
		t.Fatal("stream with a failing consumer succeeded")
	}
	var echo string
	if err := p.Call("Echo", "alive", &echo); err != nil || echo != "alive" {
		t.Fatalf("call after abandoned stream: %q, %v (client wedged?)", echo, err)
	}
}

func TestCallStreamTimeoutOnSilence(t *testing.T) {
	srv := NewServer()
	block := make(chan struct{})
	srv.Handle("Hang", func(decode func(any) error) (any, error) {
		var req struct{}
		if err := decode(&req); err != nil {
			return nil, err
		}
		<-block
		return bytes.NewReader(nil), nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { close(block); srv.Close() }()
	p := NewPool(addr, 1, 50*time.Millisecond)
	defer p.Close()
	var sink bytes.Buffer
	if _, err := p.CallStream("Hang", struct{}{}, &sink); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

// BenchmarkCallStream measures the chunked path against a large
// payload, the shape of a checkpoint crossing the wire.
func BenchmarkCallStream(b *testing.B) {
	payload := streamPayload(8 * StreamChunk)
	srv := NewServer()
	srv.Handle("Stream", func(decode func(any) error) (any, error) {
		var req struct{}
		if err := decode(&req); err != nil {
			return nil, err
		}
		return bytes.NewReader(payload), nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	p := NewPool(addr, 1, 30*time.Second)
	defer p.Close()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sink countWriter
		if _, err := p.CallStream("Stream", struct{}{}, &sink); err != nil {
			b.Fatal(err)
		}
		if int(sink) != len(payload) {
			b.Fatalf("streamed %d bytes, want %d", int(sink), len(payload))
		}
	}
}

type countWriter int

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}
