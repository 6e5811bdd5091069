package webtest

import (
	"fmt"
	"time"
)

// Readiness polling for process orchestration and the multi-process
// and multi-station tests. Fixed sleeps either flake on a loaded CI
// machine or idle on a fast one; PollErr re-checks a condition with
// exponential backoff (1ms up to 50ms between probes) so a caller
// proceeds the moment the system settles and still survives slow
// schedulers.

// PollErr waits for cond (the load harness waiting for a fabric roster
// to fill, a driver waiting for a daemon socket): cond reports done, or
// a hard error that aborts the wait immediately. A timeout yields an
// error naming what was waited for.
func PollErr(timeout time.Duration, what string, cond func() (bool, error)) error {
	deadline := time.Now().Add(timeout)
	interval := time.Millisecond
	for {
		done, err := cond()
		if err != nil {
			return fmt.Errorf("waiting for %s: %w", what, err)
		}
		if done {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v waiting for %s", timeout, what)
		}
		time.Sleep(interval)
		if interval < 50*time.Millisecond {
			interval *= 2
		}
	}
}
