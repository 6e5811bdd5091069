package transport

import (
	"bytes"
	"errors"
	"fmt"
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

func TestCallRoundTrip(t *testing.T) {
	addr, _ := startEcho(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var resp echoResp
	if err := c.Call("echo", echoReq{Text: "hello", N: 21}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Text != "hello" || resp.Twice != 42 {
		t.Errorf("resp = %+v", resp)
	}
}

func TestCallServerError(t *testing.T) {
	addr, _ := startEcho(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Call("fail", echoReq{}, nil)
	if err == nil || !strings.Contains(err.Error(), "deliberate failure") {
		t.Fatalf("err = %v", err)
	}
}

func TestCallUnknownMethod(t *testing.T) {
	addr, _ := startEcho(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Call("nope", echoReq{}, nil)
	if err == nil || !strings.Contains(err.Error(), "no such method") {
		t.Fatalf("err = %v", err)
	}
}

func TestConcurrentCallsCorrelate(t *testing.T) {
	addr, _ := startEcho(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp echoResp
			text := fmt.Sprintf("msg-%d", i)
			if err := c.Call("echo", echoReq{Text: text, N: i}, &resp); err != nil {
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

func TestSlowHandlerDoesNotBlockOthers(t *testing.T) {
	addr, _ := startEcho(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	slowDone := make(chan struct{})
	go func() {
		var resp echoResp
		c.Call("slow", echoReq{}, &resp)
		close(slowDone)
	}()
	start := time.Now()
	var resp echoResp
	if err := c.Call("echo", echoReq{Text: "fast"}, &resp); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 40*time.Millisecond {
		t.Errorf("fast call took %v behind slow call", d)
	}
	<-slowDone
}

func TestClientCloseFailsPending(t *testing.T) {
	addr, _ := startEcho(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		errCh <- c.Call("slow", echoReq{}, nil)
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
	if err := c.Call("echo", echoReq{}, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("call after close: %v", err)
	}
}

func TestServerCloseStopsClients(t *testing.T) {
	addr, s := startEcho(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var resp echoResp
	if err := c.Call("echo", echoReq{Text: "x"}, &resp); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := c.Call("echo", echoReq{Text: "y"}, &resp); err == nil {
		t.Error("call succeeded after server close")
	}
}

func TestLargePayload(t *testing.T) {
	addr, _ := startEcho(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	big := strings.Repeat("x", 4<<20)
	var resp echoResp
	if err := c.Call("echo", echoReq{Text: big, N: 1}, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Text) != len(big) {
		t.Errorf("len = %d", len(resp.Text))
	}
}

func TestFrameEncodingRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &envelope{ID: 7, Method: "m", Body: []byte{1, 2, 3}}
	if err := writeFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readFrame(&buf)
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
	if _, err := readFrame(&buf); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestReadFrameRejectsGarbage(t *testing.T) {
	// A payload that does not start with the frame magic is a header
	// problem; nothing tries to decode it as anything else.
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 12})
	buf.Write([]byte("junk payload"))
	if _, err := readFrame(&buf); !errors.Is(err, ErrBadHeader) {
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
