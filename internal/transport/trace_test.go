package transport

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// TestTraceRidesEnvelope proves the envelope carries trace context to
// the server, the server opens a span parented to the caller's hop,
// and every dispatch — traced or not — lands in the method histogram.
func TestTraceRidesEnvelope(t *testing.T) {
	srv := NewServer()
	o := obs.NewObserver(64)
	o.SetPos(3)
	srv.SetObserver(o)

	var seen obs.TraceContext
	srv.HandleCtx("Echo", func(ctx *Ctx, decode func(any) error) (any, error) {
		var s string
		if err := decode(&s); err != nil {
			return nil, err
		}
		seen = ctx.Span().Context()
		ctx.Annotate("hop note %d", 1)
		return s, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := NewPool(addr, 1, 5*time.Second)
	defer p.Close()

	tc := obs.TraceContext{TraceID: obs.NewTraceID(), SpanID: 42}
	var out string
	if err := p.CallTrace("Echo", "hi", &out, tc, 0); err != nil {
		t.Fatal(err)
	}
	if out != "hi" {
		t.Fatalf("echo = %q", out)
	}
	if seen.TraceID != tc.TraceID {
		t.Fatalf("handler saw trace %x, want %x", seen.TraceID, tc.TraceID)
	}
	if seen.SpanID == 0 || seen.SpanID == tc.SpanID {
		t.Fatalf("handler context should expose the server span, got %+v", seen)
	}

	spans := o.ForTrace(tc.TraceID)
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Method != "Echo" || sp.Parent != 42 || sp.Station != 3 || sp.Err != "" {
		t.Fatalf("span = %+v", sp)
	}
	if sp.Bytes <= 0 {
		t.Fatalf("span bytes = %d", sp.Bytes)
	}
	if len(sp.Notes) != 1 || sp.Notes[0] != "hop note 1" {
		t.Fatalf("notes = %v", sp.Notes)
	}

	// An untraced call records no span but still hits the histogram.
	if err := p.Call("Echo", "again", &out); err != nil {
		t.Fatal(err)
	}
	if got := len(o.ForTrace(tc.TraceID)); got != 1 {
		t.Fatalf("untraced call leaked a span: %d", got)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if o.Metrics.Summaries()["Echo"].Count == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("histogram count = %+v, want 2 calls", o.Metrics.Summaries()["Echo"])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPoolCallTrace checks the pooled path threads trace context too.
func TestPoolCallTrace(t *testing.T) {
	srv := NewServer()
	o := obs.NewObserver(64)
	srv.SetObserver(o)
	srv.Handle("Ping", func(decode func(any) error) (any, error) { return "pong", nil })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	p := NewPool(addr, 2, 5*time.Second)
	defer p.Close()
	tc := obs.TraceContext{TraceID: obs.NewTraceID(), SpanID: 7}
	var out string
	if err := p.CallTrace("Ping", struct{}{}, &out, tc, 0); err != nil {
		t.Fatal(err)
	}
	spans := o.ForTrace(tc.TraceID)
	if len(spans) != 1 || spans[0].Parent != 7 {
		t.Fatalf("spans = %+v", spans)
	}
}
