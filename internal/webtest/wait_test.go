package webtest

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestPollReturnsOnCondition(t *testing.T) {
	n := 0
	start := time.Now()
	if err := PollErr(5*time.Second, "three probes", func() (bool, error) { n++; return n >= 3, nil }); err != nil {
		t.Fatalf("PollErr gave up before the condition held: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("PollErr took %v for a near-immediate condition", d)
	}
}

func TestPollTimesOut(t *testing.T) {
	start := time.Now()
	err := PollErr(30*time.Millisecond, "nothing", func() (bool, error) { return false, nil })
	if err == nil || !strings.Contains(err.Error(), "timed out") || !strings.Contains(err.Error(), "nothing") {
		t.Fatalf("err = %v, want a timeout naming what was waited for", err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Errorf("PollErr gave up after only %v", d)
	}
}

func TestPollErrStopsOnHardError(t *testing.T) {
	boom := errors.New("boom")
	start := time.Now()
	err := PollErr(5*time.Second, "a socket", func() (bool, error) { return false, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want it to wrap the condition's error", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("PollErr kept polling for %v after a hard error", d)
	}
}
