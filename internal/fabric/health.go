package fabric

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/transport"
)

// Failure detection. The root owns liveness: it heartbeats every
// joined station, counts consecutive probe failures, and declares a
// station dead at the threshold — bumping the roster epoch so the
// decision rides out to the tree on the next RPC. Non-root stations
// contribute observations (ReportDown) when a fan-out or a resolve
// hits an unreachable peer; the root confirms with one probe of its
// own before believing them, so a single flaky connection cannot evict
// a healthy station.

// HeartbeatReply answers a liveness probe. Err carries the station's
// cluster.Node liveness-check failure, which the root treats exactly
// like an unreachable station.
type HeartbeatReply struct {
	Pos int
	Err string
}

// HealthReply is a station's liveness view of the fabric. Only the
// root's view is authoritative; other stations report what the last
// epoch told them plus their own suspicions.
type HealthReply struct {
	Pos     int
	N       int
	Epoch   int
	IsRoot  bool
	Down    []int
	Suspect []int
	Roster  map[int]string
}

// EvictRequest forces the root to declare a station dead immediately —
// the operator's override when waiting out the probe threshold is not
// an option.
type EvictRequest struct {
	Pos int
}

// ReportDownRequest carries a relay's observation that a peer was
// unreachable during a tree operation.
type ReportDownRequest struct {
	Pos int
}

// MarkDown declares a station dead (root only): its children graft
// onto their nearest live ancestor on the next tree operation, and
// resolve routes skip it. The epoch bump carries the decision to the
// rest of the tree.
func (s *Station) MarkDown(pos int) error {
	if !s.isRoot {
		return fmt.Errorf("%w: mark-down", ErrNotRoot)
	}
	if pos == 1 {
		return errors.New("fabric: the root station cannot be marked down")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.roster[pos]; !ok {
		return fmt.Errorf("fabric: no station at position %d", pos)
	}
	if !s.down[pos] {
		s.down[pos] = true
		delete(s.suspect, pos) // down supersedes suspicion
		s.epoch++
	}
	return nil
}

// Epoch returns the station's current roster epoch.
func (s *Station) Epoch() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// StartHeartbeat begins the root's liveness sweep: every interval it
// probes each joined station with the per-probe timeout, declaring a
// station dead after hbFailThreshold consecutive failures and reviving
// it when probes succeed again. Idempotent-ish: a second call replaces
// the running loop.
func (s *Station) StartHeartbeat(interval, timeout time.Duration) error {
	if !s.isRoot {
		return fmt.Errorf("%w: heartbeat", ErrNotRoot)
	}
	if interval <= 0 {
		interval = DefaultHeartbeatInterval
	}
	if timeout <= 0 {
		timeout = DefaultHeartbeatTimeout
	}
	stop := make(chan struct{})
	// Swap the stop channel in one critical section: two concurrent
	// StartHeartbeat calls must not strand an unstoppable loop.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("fabric: station is closed")
	}
	old := s.hbStop
	s.hbStop = stop
	s.mu.Unlock()
	if old != nil {
		close(old)
	}
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				s.ProbeOnce(timeout)
			}
		}
	}()
	return nil
}

// StopHeartbeat halts the liveness sweep (no-op when none runs).
func (s *Station) StopHeartbeat() {
	s.mu.Lock()
	stop := s.hbStop
	s.hbStop = nil
	s.mu.Unlock()
	if stop != nil {
		close(stop)
	}
}

// ProbeOnce runs one synchronous liveness sweep over every joined
// station, updating the failure counters and the down-set. Exposed so
// tests (and an operator's health check) can force a deterministic
// sweep instead of waiting out the heartbeat interval.
func (s *Station) ProbeOnce(timeout time.Duration) {
	if !s.isRoot {
		return
	}
	if timeout <= 0 {
		timeout = DefaultHeartbeatTimeout
	}
	v := s.view()
	type outcome struct {
		pos int
		err error
	}
	results := make(chan outcome, len(v.Roster))
	probes := 0
	for pos, addr := range v.Roster {
		if pos == 1 {
			continue
		}
		probes++
		go func(pos int, addr string) {
			results <- outcome{pos, s.probe(pos, addr, timeout)}
		}(pos, addr)
	}
	for i := 0; i < probes; i++ {
		out := <-results
		s.recordProbe(out.pos, out.err)
	}
}

// probe sends one heartbeat and validates the answer: a transport
// failure, a failing liveness check, or a station that turns out to
// hold a different position (the address was recycled) all count as
// probe failures. Every probe — a heartbeat sweep's, a down report's
// confirmation, a rejoin takeover's — is one call on a fresh pool of
// one, closed afterwards: it never queues behind bundle transfers on
// the peer's pool (a busy fabric must not look dead), it reflects the
// wire right now rather than a verdict a breaker cached a moment ago
// (handing a position to a rejoiner on a stale fast-fail would split
// it between two live processes), and timeout bounds all of it, dial
// included.
func (s *Station) probe(pos int, addr string, timeout time.Duration) error {
	p := transport.NewPool(addr, 1, timeout)
	defer p.Close()
	var reply HeartbeatReply
	//lint:ignore tracecall heartbeat probes are deliberately untraced: they fire every interval on every station and would drown the span rings in no-op control-plane spans
	if err := p.Call(methodHeartbeat, struct{}{}, &reply); err != nil {
		return err
	}
	if reply.Err != "" {
		return fmt.Errorf("fabric: station %d liveness check: %s", pos, reply.Err)
	}
	if reply.Pos != 0 && reply.Pos != pos {
		return fmt.Errorf("fabric: station at %s answers as position %d, not %d", addr, reply.Pos, pos)
	}
	return nil
}

// recordProbe folds one probe outcome into the failure counters,
// declaring or reviving the station at the edges.
func (s *Station) recordProbe(pos int, err error) {
	s.mu.Lock()
	if err == nil {
		s.hbFails[pos] = 0
		revive := s.down[pos] || s.suspect[pos]
		if revive {
			delete(s.down, pos)
			delete(s.suspect, pos)
			s.epoch++
		}
		epoch := s.epoch
		s.mu.Unlock()
		if revive {
			s.event("revived", "pos", pos, "epoch", epoch)
		}
		return
	}
	s.hbFails[pos]++
	fails := s.hbFails[pos]
	declare := fails >= hbFailThreshold && !s.down[pos]
	if declare {
		s.down[pos] = true
		delete(s.suspect, pos)
		s.epoch++
	}
	epoch := s.epoch
	s.mu.Unlock()
	if declare {
		s.event("down-declared", "pos", pos, "fails", fails, "epoch", epoch, "cause", err.Error())
	}
}

// noteSuspect records a locally observed peer failure and escalates it
// to the root, which confirms with a probe of its own. On the root the
// confirmation runs directly.
func (s *Station) noteSuspect(pos int) {
	s.mu.Lock()
	if s.suspect[pos] || s.down[pos] {
		s.mu.Unlock()
		return
	}
	s.suspect[pos] = true
	rootAddr := s.roster[1]
	isRoot := s.isRoot
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return
	}
	s.event("suspect", "pos", pos, "reporter", s.Pos())
	if isRoot {
		go s.confirmDown(pos)
		return
	}
	if rootAddr != "" {
		// Best effort: the root also discovers the failure through its
		// own heartbeats, this just shortens the window.
		//lint:ignore tracecall fire-and-forget failure report on the control plane; there is no request trace to continue and none worth starting for a hint the root re-verifies anyway
		go s.pool(rootAddr).Call(methodReportDown, ReportDownRequest{Pos: pos}, nil)
	}
}

// confirmDown double-checks a reported failure with one short probe
// before declaring the station dead (root only).
func (s *Station) confirmDown(pos int) {
	s.mu.Lock()
	addr, held := s.roster[pos]
	already := s.down[pos]
	s.mu.Unlock()
	if !held || already || pos == 1 {
		return
	}
	if s.probe(pos, addr, DefaultHeartbeatTimeout) == nil {
		s.mu.Lock()
		delete(s.suspect, pos)
		s.mu.Unlock()
		s.event("suspicion-refuted", "pos", pos)
		return
	}
	if s.MarkDown(pos) == nil {
		s.event("down-confirmed", "pos", pos, "epoch", s.Epoch())
	}
}

// healthView renders the station's current liveness view.
func (s *Station) healthView() HealthReply {
	v := s.view()
	reply := HealthReply{
		Pos: v.pos, N: v.N, Epoch: v.Epoch, IsRoot: v.isRoot, Roster: v.Roster,
	}
	for pos := range v.Down {
		reply.Down = append(reply.Down, pos)
	}
	for pos := range v.suspect {
		reply.Suspect = append(reply.Suspect, pos)
	}
	sort.Ints(reply.Down)
	sort.Ints(reply.Suspect)
	return reply
}

// handleHeartbeat answers a liveness probe, consulting the node's
// installed liveness check.
func (s *Station) handleHeartbeat(decode func(any) error) (any, error) {
	var req struct{}
	if err := decode(&req); err != nil {
		return nil, err
	}
	reply := HeartbeatReply{Pos: s.Pos()}
	if err := s.node.LivenessCheck(); err != nil {
		reply.Err = err.Error()
	}
	return reply, nil
}

// handleHealth reports the station's liveness view.
func (s *Station) handleHealth(decode func(any) error) (any, error) {
	var req struct{}
	if err := decode(&req); err != nil {
		return nil, err
	}
	return s.healthView(), nil
}

// handleEvict force-marks a station dead (root only) and returns the
// resulting health view.
func (s *Station) handleEvict(decode func(any) error) (any, error) {
	var req EvictRequest
	if err := decode(&req); err != nil {
		return nil, err
	}
	if err := s.MarkDown(req.Pos); err != nil {
		return nil, err
	}
	return s.healthView(), nil
}

// handleReportDown takes a relay's unreachability observation and
// verifies it before acting (root only).
func (s *Station) handleReportDown(decode func(any) error) (any, error) {
	var req ReportDownRequest
	if err := decode(&req); err != nil {
		return nil, err
	}
	if !s.isRoot {
		return nil, fmt.Errorf("%w: report-down", ErrNotRoot)
	}
	s.confirmDown(req.Pos)
	return struct{}{}, nil
}
