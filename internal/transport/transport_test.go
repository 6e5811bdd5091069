package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

type echoReq struct {
	Text string
	N    int
}

type echoResp struct {
	Text  string
	Twice int
}

func startEcho(t *testing.T) (string, *Server) {
	t.Helper()
	s := NewServer()
	s.Handle("echo", func(decode func(any) error) (any, error) {
		var req echoReq
		if err := decode(&req); err != nil {
			return nil, err
		}
		return echoResp{Text: req.Text, Twice: req.N * 2}, nil
	})
	s.Handle("fail", func(decode func(any) error) (any, error) {
		return nil, errors.New("deliberate failure")
	})
	s.Handle("slow", func(decode func(any) error) (any, error) {
		time.Sleep(50 * time.Millisecond)
		return echoResp{Text: "slow"}, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return addr, s
}

// call is one unary round trip on a bare connection, the step a
// Pool call makes once it holds one.
func call(c *conn, method string, req, resp any, d time.Duration) error {
	body, err := Marshal(req)
	if err != nil {
		return err
	}
	_, err, _ = c.roundTrip(&envelope{Method: method}, [][]byte{body}, resp, nil, d, time.Now().Add(d))
	return err
}

// dialConn opens a bare connection to addr, closed with the test.
func dialConn(t *testing.T, addr string) *conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return newConn(nc)
}

func TestCallRoundTrip(t *testing.T) {
	addr, _ := startEcho(t)
	p := NewPool(addr, 1, 5*time.Second)
	defer p.Close()
	var resp echoResp
	if err := p.Call("echo", echoReq{Text: "hello", N: 21}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Text != "hello" || resp.Twice != 42 {
		t.Errorf("resp = %+v", resp)
	}
}

func TestCallServerError(t *testing.T) {
	addr, _ := startEcho(t)
	p := NewPool(addr, 1, 5*time.Second)
	defer p.Close()
	err := p.Call("fail", echoReq{}, nil)
	if err == nil || !strings.Contains(err.Error(), "deliberate failure") {
		t.Fatalf("err = %v", err)
	}
}

func TestCallUnknownMethod(t *testing.T) {
	addr, _ := startEcho(t)
	p := NewPool(addr, 1, 5*time.Second)
	defer p.Close()
	err := p.Call("nope", echoReq{}, nil)
	if err == nil || !strings.Contains(err.Error(), "no such method") {
		t.Fatalf("err = %v", err)
	}
}

func TestConcurrentCallsCorrelate(t *testing.T) {
	addr, _ := startEcho(t)
	p := NewPool(addr, 4, 5*time.Second)
	defer p.Close()
	var wg sync.WaitGroup
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp echoResp
			text := fmt.Sprintf("msg-%d", i)
			if err := p.Call("echo", echoReq{Text: text, N: i}, &resp); err != nil {
				t.Error(err)
				return
			}
			if resp.Text != text || resp.Twice != i*2 {
				t.Errorf("mismatched response: sent %s/%d got %+v", text, i, resp)
			}
		}(i)
	}
	wg.Wait()
}

// TestOneConnectionAnswersInOrder: a connection's requests are served
// one at a time, so a fast request written behind a slow one on the
// same socket is answered second.
func TestOneConnectionAnswersInOrder(t *testing.T) {
	addr, _ := startEcho(t)
	c := dialConn(t, addr)
	for id, method := range []string{"slow", "echo"} {
		body, err := Marshal(echoReq{Text: method})
		if err != nil {
			t.Fatal(err)
		}
		if err := send(c, &envelope{ID: uint64(id + 1), Method: method, Body: body}); err != nil {
			t.Fatal(err)
		}
	}
	for want := uint64(1); want <= 2; want++ {
		got, err := readEnvelope(c.r)
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != want || got.Err != "" || got.Method != "" {
			t.Fatalf("reply %d: ID %d, err %q, method %q; want ID %d with no method", want, got.ID, got.Err, got.Method, want)
		}
	}
}

// blocker is a "block" handler beside startEcho's methods: it signals
// entered, waits for release (safe to call more than once), and
// signals returned as it hands back its reply.
type blocker struct {
	entered, returned chan struct{}
	release           func()
}

func blockingServer(t *testing.T) (string, *Server, *blocker) {
	t.Helper()
	gate := make(chan struct{})
	var once sync.Once
	b := &blocker{
		entered:  make(chan struct{}, 1),
		returned: make(chan struct{}, 1),
		release:  func() { once.Do(func() { close(gate) }) },
	}
	t.Cleanup(b.release)
	addr, srv := startEcho(t)
	srv.Handle("block", func(decode func(any) error) (any, error) {
		b.entered <- struct{}{}
		<-gate
		b.returned <- struct{}{}
		return echoResp{Text: "released"}, nil
	})
	return addr, srv, b
}

// TestPoolSlowCallDoesNotDelayAnother: a call stuck in a slow handler
// holds only its own connection; a second call through the same pool
// takes the other one and is answered at once.
func TestPoolSlowCallDoesNotDelayAnother(t *testing.T) {
	addr, _, b := blockingServer(t)
	p := NewPool(addr, 2, 5*time.Second)
	defer p.Close()
	slow := make(chan error, 1)
	go func() {
		var resp echoResp
		err := p.Call("block", echoReq{}, &resp)
		if err == nil && resp.Text != "released" {
			err = fmt.Errorf("block replied %+v", resp)
		}
		slow <- err
	}()
	<-b.entered
	start := time.Now()
	var resp echoResp
	if err := p.Call("echo", echoReq{Text: "fast", N: 2}, &resp); err != nil || resp.Text != "fast" || resp.Twice != 4 {
		t.Fatalf("fast call beside a blocked one: %+v, %v", resp, err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("fast call took %v beside a blocked one", d)
	}
	select {
	case err := <-slow:
		t.Fatalf("blocked call returned before its release: %v", err)
	default:
	}
	b.release()
	if err := <-slow; err != nil {
		t.Fatal(err)
	}
}

// TestServerCloseDoesNotWaitForHandlers: Close returns while a handler
// is still blocked, and the handler's late reply fails on its closed
// connection: no connection, its own or another, receives a frame.
func TestServerCloseDoesNotWaitForHandlers(t *testing.T) {
	addr, srv, b := blockingServer(t)
	blocked, idle := dialConn(t, addr), dialConn(t, addr)
	if err := call(idle, "echo", echoReq{Text: "x"}, nil, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	body, err := Marshal(echoReq{})
	if err != nil {
		t.Fatal(err)
	}
	if err := send(blocked, &envelope{ID: 1, Method: "block", Body: body}); err != nil {
		t.Fatal(err)
	}
	<-b.entered
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		b.release()
		t.Fatal("Close waited for a running handler")
	}
	b.release()
	<-b.returned
	for name, c := range map[string]*conn{"blocked": blocked, "idle": idle} {
		if err := c.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		if got, err := readEnvelope(c.r); err == nil {
			t.Errorf("%s connection received frame %+v after Close", name, got)
		} else if !errors.Is(err, io.EOF) {
			t.Errorf("%s connection: %v, want EOF", name, err)
		}
	}
}

func TestClientCloseFailsPending(t *testing.T) {
	addr, _ := startEcho(t)
	c := dialConn(t, addr)
	errCh := make(chan error, 1)
	go func() {
		errCh <- call(c, "slow", echoReq{}, nil, 5*time.Second)
	}()
	time.Sleep(10 * time.Millisecond)
	c.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Error("pending call succeeded after close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending call hung after close")
	}
	if err := call(c, "echo", echoReq{}, nil, 5*time.Second); !errors.Is(err, ErrClosed) {
		t.Errorf("call after close: %v", err)
	}
}

func TestServerCloseStopsClients(t *testing.T) {
	addr, s := startEcho(t)
	c := dialConn(t, addr)
	var resp echoResp
	if err := call(c, "echo", echoReq{Text: "x"}, &resp, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := call(c, "echo", echoReq{Text: "y"}, &resp, 5*time.Second); err == nil {
		t.Error("call succeeded after server close")
	}
}

func TestLargePayload(t *testing.T) {
	addr, _ := startEcho(t)
	p := NewPool(addr, 1, 5*time.Second)
	defer p.Close()
	big := strings.Repeat("x", 4<<20)
	var resp echoResp
	if err := p.Call("echo", echoReq{Text: big, N: 1}, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Text) != len(big) {
		t.Errorf("len = %d", len(resp.Text))
	}
}

func TestFrameEncodingRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &envelope{ID: 7, Method: "m", Body: []byte{1, 2, 3}}
	if err := send(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := recv(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != 7 || out.Method != "m" || len(out.Body) != 3 {
		t.Errorf("out = %+v", out)
	}
}

func TestReadFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := recv(&buf); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestReadFrameRejectsGarbage(t *testing.T) {
	// A payload that does not start with the frame magic is a header
	// problem; nothing tries to decode it as anything else.
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 12})
	buf.Write([]byte("junk payload"))
	if _, err := recv(&buf); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("err = %v", err)
	}
}

func TestMarshalUnmarshal(t *testing.T) {
	b, err := Marshal(echoReq{Text: "t", N: 3})
	if err != nil {
		t.Fatal(err)
	}
	var out echoReq
	if err := Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Text != "t" || out.N != 3 {
		t.Errorf("out = %+v", out)
	}
}
