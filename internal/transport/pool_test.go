package transport

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// startGated serves a handler that records the peak number of
// simultaneously executing calls.
func startGated(t *testing.T, hold time.Duration) (string, *atomic.Int64) {
	t.Helper()
	var inflight, peak atomic.Int64
	s := NewServer()
	s.Handle("gated", func(decode func(any) error) (any, error) {
		var req echoReq
		if err := decode(&req); err != nil {
			return nil, err
		}
		n := inflight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(hold)
		inflight.Add(-1)
		return echoResp{Text: req.Text}, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return addr, &peak
}

func TestPoolCallAndReuse(t *testing.T) {
	addr, _ := startEcho(t)
	p := NewPool(addr, 2, time.Second)
	defer p.Close()
	for i := 0; i < 5; i++ {
		var resp echoResp
		if err := p.Call("echo", echoReq{Text: "hi", N: i}, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Twice != i*2 {
			t.Errorf("resp = %+v", resp)
		}
	}
	// Sequential calls reuse one parked connection.
	p.mu.Lock()
	idle := len(p.idle)
	p.mu.Unlock()
	if idle != 1 {
		t.Errorf("idle connections = %d, want 1", idle)
	}
}

func TestPoolServerErrorKeepsConnection(t *testing.T) {
	addr, _ := startEcho(t)
	p := NewPool(addr, 1, time.Second)
	defer p.Close()
	if err := p.Call("fail", echoReq{}, nil); err == nil || !strings.Contains(err.Error(), "deliberate failure") {
		t.Fatalf("err = %v", err)
	}
	p.mu.Lock()
	idle := len(p.idle)
	p.mu.Unlock()
	if idle != 1 {
		t.Errorf("idle connections after app error = %d, want 1", idle)
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	addr, peak := startGated(t, 30*time.Millisecond)
	p := NewPool(addr, 2, 5*time.Second)
	defer p.Close()
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var resp echoResp
			if err := p.Call("gated", echoReq{Text: "x"}, &resp); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > 2 {
		t.Errorf("peak concurrent calls = %d, want <= 2", got)
	}
}

func TestPoolPerCallTimeout(t *testing.T) {
	addr, _ := startGated(t, 2*time.Second)
	p := NewPool(addr, 1, 50*time.Millisecond)
	defer p.Close()
	start := time.Now()
	err := p.Call("gated", echoReq{Text: "x"}, &echoResp{})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if time.Since(start) > time.Second {
		t.Errorf("timeout took %v", time.Since(start))
	}
}

func TestPoolLazyReconnectWithBackoff(t *testing.T) {
	// First listener tells us the address, then goes away.
	s1 := NewServer()
	addr, err := s1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()

	p := NewPool(addr, 2, time.Second)
	defer p.Close()
	// The peer is down: the dial retries with backoff, then fails.
	start := time.Now()
	if err := p.Call("echo", echoReq{}, nil); err == nil {
		t.Fatal("call to downed peer succeeded")
	}
	if elapsed := time.Since(start); elapsed < dialBackoff {
		t.Errorf("no backoff observed (%v)", elapsed)
	}

	// The peer restarts on the same address: the next call dials afresh.
	s2 := NewServer()
	s2.Handle("echo", func(decode func(any) error) (any, error) {
		var req echoReq
		if err := decode(&req); err != nil {
			return nil, err
		}
		return echoResp{Text: req.Text, Twice: req.N * 2}, nil
	})
	if _, err := s2.Listen(addr); err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	defer s2.Close()
	var resp echoResp
	if err := p.Call("echo", echoReq{Text: "back", N: 2}, &resp); err != nil {
		t.Fatalf("call after restart: %v", err)
	}
	if resp.Twice != 4 {
		t.Errorf("resp = %+v", resp)
	}
}

func TestPoolRetriesStaleParkedConnection(t *testing.T) {
	s1 := NewServer()
	s1.Handle("echo", func(decode func(any) error) (any, error) {
		var req echoReq
		if err := decode(&req); err != nil {
			return nil, err
		}
		return echoResp{Text: req.Text, Twice: req.N * 2}, nil
	})
	addr, err := s1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(addr, 2, time.Second)
	defer p.Close()
	// Park a connection, then restart the server behind the pool's
	// back: the parked connection is now stale.
	if err := p.Call("echo", echoReq{N: 1}, &echoResp{}); err != nil {
		t.Fatal(err)
	}
	s1.Close()
	s2 := NewServer()
	s2.Handle("echo", func(decode func(any) error) (any, error) {
		var req echoReq
		if err := decode(&req); err != nil {
			return nil, err
		}
		return echoResp{Text: req.Text, Twice: req.N * 2}, nil
	})
	if _, err := s2.Listen(addr); err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	defer s2.Close()
	// The call pops the stale connection, fails at the transport
	// level, and must transparently retry on a fresh dial.
	var resp echoResp
	if err := p.Call("echo", echoReq{Text: "again", N: 3}, &resp); err != nil {
		t.Fatalf("call across peer restart: %v", err)
	}
	if resp.Twice != 6 {
		t.Errorf("resp = %+v", resp)
	}
}

func TestPoolClose(t *testing.T) {
	addr, _ := startEcho(t)
	p := NewPool(addr, 1, time.Second)
	if err := p.Call("echo", echoReq{N: 1}, &echoResp{}); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if err := p.Call("echo", echoReq{N: 1}, &echoResp{}); !errors.Is(err, ErrClosed) {
		t.Errorf("err after close = %v", err)
	}
}

func TestPoolFastFailAfterRepeatedDialFailure(t *testing.T) {
	// Learn a dead address.
	s := NewServer()
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	p := NewPool(addr, 2, time.Second)
	defer p.Close()
	p.threshold, p.cooldown = 2, time.Minute
	// The first threshold calls pay the full dial-with-backoff cost...
	for i := 0; i < 2; i++ {
		if err := p.Call("echo", echoReq{}, nil); err == nil {
			t.Fatal("call to dead peer succeeded")
		}
	}
	if !p.Down() {
		t.Fatal("breaker did not open after repeated dial failure")
	}
	// ...after which the breaker fails calls fast without dialing.
	start := time.Now()
	err = p.Call("echo", echoReq{}, nil)
	if !errors.Is(err, ErrPeerDown) {
		t.Fatalf("err = %v, want ErrPeerDown", err)
	}
	if d := time.Since(start); d > 20*time.Millisecond {
		t.Errorf("fast-fail took %v", d)
	}
	if !Unreachable(err) {
		t.Error("ErrPeerDown not classified as unreachable")
	}
}

func TestPoolBreakerRecoversAfterCooldown(t *testing.T) {
	s := NewServer()
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	p := NewPool(addr, 2, time.Second)
	defer p.Close()
	p.threshold, p.cooldown = 1, 20*time.Millisecond
	if err := p.Call("echo", echoReq{}, nil); err == nil {
		t.Fatal("call to dead peer succeeded")
	}
	if !p.Down() {
		t.Fatal("breaker did not open")
	}

	// The peer comes back; once the cooldown elapses the pool dials
	// again and the breaker resets.
	s2 := NewServer()
	s2.Handle("echo", func(decode func(any) error) (any, error) {
		var req echoReq
		if err := decode(&req); err != nil {
			return nil, err
		}
		return echoResp{Text: req.Text, Twice: req.N * 2}, nil
	})
	if _, err := s2.Listen(addr); err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	defer s2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var resp echoResp
		if err := p.Call("echo", echoReq{Text: "back", N: 2}, &resp); err == nil {
			if resp.Twice != 4 {
				t.Errorf("resp = %+v", resp)
			}
			break
		} else if !errors.Is(err, ErrPeerDown) {
			t.Fatalf("unexpected err through cooldown: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never recovered after cooldown")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if p.Down() {
		t.Error("breaker still open after successful dial")
	}
}

func TestPoolBreakerEvictsIdleConnections(t *testing.T) {
	s1 := NewServer()
	s1.Handle("echo", func(decode func(any) error) (any, error) {
		var req echoReq
		if err := decode(&req); err != nil {
			return nil, err
		}
		return echoResp{Text: req.Text}, nil
	})
	addr, err := s1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(addr, 4, time.Second)
	defer p.Close()
	p.threshold, p.cooldown = 1, time.Minute
	// Park two connections.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.Call("echo", echoReq{N: 1}, &echoResp{}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	s1.Close()
	// Concurrent calls beyond the idle count force a dial, which fails
	// and trips the breaker; the parked (now stale) connections must be
	// evicted with it.
	for i := 0; i < 3; i++ {
		p.Call("echo", echoReq{}, nil)
		if p.Down() {
			break
		}
	}
	if !p.Down() {
		t.Fatal("breaker did not open")
	}
	p.mu.Lock()
	idle := len(p.idle)
	p.mu.Unlock()
	if idle != 0 {
		t.Errorf("idle connections after breaker opened = %d, want 0", idle)
	}
}

func TestClientCallTimeoutDirect(t *testing.T) {
	addr, _ := startGated(t, 2*time.Second)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CallTimeout("gated", echoReq{}, &echoResp{}, 30*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
}
