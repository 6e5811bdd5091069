package transport

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
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

// down reports whether the pool's breaker is open: the peer was
// recently undialable and calls are failing fast.
func (p *Pool) down() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return time.Now().Before(p.downUntil)
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
	// The first threshold calls pay the full dial-with-backoff cost...
	for i := 0; i < failThreshold; i++ {
		if err := p.Call("echo", echoReq{}, nil); err == nil {
			t.Fatal("call to dead peer succeeded")
		}
	}
	if !p.down() {
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
	for i := 0; i < failThreshold; i++ {
		if err := p.Call("echo", echoReq{}, nil); err == nil {
			t.Fatal("call to dead peer succeeded")
		}
	}
	if !p.down() {
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
	if p.down() {
		t.Error("breaker still open after successful dial")
	}
}

func TestPoolBreakerEvictsIdleConnections(t *testing.T) {
	const parked = 4
	arrived, release := make(chan struct{}, parked), make(chan struct{})
	s1 := NewServer()
	s1.Handle("echo", func(decode func(any) error) (any, error) {
		arrived <- struct{}{}
		<-release
		return echoResp{}, nil
	})
	addr, err := s1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(addr, parked, time.Second)
	defer p.Close()
	// Park a connection in every slot: each call is held until all of
	// them are in flight, so each needs a connection of its own.
	var wg sync.WaitGroup
	for i := 0; i < parked; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.Call("echo", echoReq{N: 1}, &echoResp{}); err != nil {
				t.Error(err)
			}
		}()
	}
	for i := 0; i < parked; i++ {
		<-arrived
	}
	close(release)
	wg.Wait()
	s1.Close()
	// Each call pops a stale parked connection and retries on a dial,
	// which fails; failThreshold of them trip the breaker, and the
	// parked connections no call has reached yet must be evicted with
	// it.
	calls := 0
	for !p.down() && calls < parked {
		p.Call("echo", echoReq{}, nil)
		calls++
	}
	if !p.down() {
		t.Fatal("breaker did not open")
	}
	p.mu.Lock()
	idle := len(p.idle)
	p.mu.Unlock()
	if idle != 0 || calls >= parked {
		t.Errorf("breaker opened after %d calls with %d connections still parked; want fewer than %d calls and none parked", calls, idle, parked)
	}
}

func TestClientCallTimeoutDirect(t *testing.T) {
	addr, _ := startGated(t, 2*time.Second)
	c := dialConn(t, addr)
	if err := call(c, "gated", echoReq{}, &echoResp{}, 30*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
}

// unresponsiveAddr returns the address of a listening socket whose
// accept queue is full and never drained: a connect to it neither
// succeeds nor fails but hangs until the dialer gives up — a host that
// stopped answering. Linux only: there a listen backlog of 0 queues
// exactly one connection, which the helper makes, and later SYNs are
// dropped.
func unresponsiveAddr(t *testing.T) string {
	t.Helper()
	if runtime.GOOS != "linux" {
		t.Skip("needs Linux accept-queue behaviour: a backlog-0 listener with one queued connection drops later SYNs, so a dial hangs")
	}
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Close(fd) })
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", sa.(*syscall.SockaddrInet4).Port)
	filler, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { filler.Close() })
	return addr
}

// TestCallTimeoutBoundsTheDial: a peer that accepts no connections
// costs a call its timeout — dial attempts and backoff stop at the
// call's deadline — and the failure reads as an unreachable peer.
func TestCallTimeoutBoundsTheDial(t *testing.T) {
	addr := unresponsiveAddr(t)
	p := NewPool(addr, 1, 200*time.Millisecond)
	defer p.Close()
	done := make(chan error, 1)
	start := time.Now()
	go func() { done <- p.Call("echo", echoReq{}, nil) }()
	select {
	case err := <-done:
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Errorf("a 200ms call to an unresponsive peer took %v", elapsed)
		}
		if !Unreachable(err) {
			t.Errorf("err = %v, want an unreachable-peer error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a 200ms call to an unresponsive peer had not returned after 5s")
	}
}
