package fabric

// In-process views of a station that only this package's tests read;
// a deployed station answers the same questions over RPC (Admin).

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/webtest"
)

// Down reports whether the station's current view declares pos dead.
func (s *Station) Down(pos int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.down[pos]
}

// Fetches returns how many times this station has pulled the document
// from a remote holder since the last migration.
func (s *Station) Fetches(url string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fetches[url]
}

// Events collects the fabric-wide event timeline matching the filter
// from this station.
func (s *Station) Events(f obs.EventFilter) (*EventsReply, error) {
	return gather(s, eventsOp, f, nil)
}

// Trace collects the fabric-wide span set for one TraceID from this
// station.
func (s *Station) Trace(id uint64) (*TraceReply, error) {
	return gather(s, traceOp, id, nil)
}

// eventually polls cond until it holds, failing the test when timeout
// passes first.
func eventually(t testing.TB, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	if err := webtest.PollErr(timeout, what, func() (bool, error) { return cond(), nil }); err != nil {
		t.Fatal(err)
	}
}
