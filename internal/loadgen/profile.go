package loadgen

import (
	"fmt"
	"strings"
	"time"
)

// A load profile scripts one compressed semester day against the
// distribution fabric: which fabric to stand up, how many courses to
// author, the traffic phases (broadcast bursts, lecture-hour resolve
// storms, evening federated search, background check-out/check-in) and
// the latency SLOs the run is judged against. Times in the profile are
// SIMULATED — a TimeScale of 360 replays a six-hour day in one minute
// of wall clock. The shipped profiles are Go values (profiles.go).

// Profile is one load profile. Zero values are not defaults: a phase
// needs Clients >= 1, a search phase TopK >= 1, and an SLO that leaves
// the error rate unchecked says so with MaxErrorRate -1.
type Profile struct {
	Name      string
	Seed      int64
	TimeScale float64 // simulated seconds per wall second
	Fabric    FabricSpec
	Courses   CourseLoad
	Phases    []Phase
	SLOs      []SLO
}

// FabricSpec shapes the self-hosted fabric (ignored when the harness
// targets an already-running one, except Stations which it verifies).
type FabricSpec struct {
	Stations  int
	M         int
	Watermark int
}

// CourseLoad shapes the synthetic course corpus seeded on the root.
type CourseLoad struct {
	Count         int
	Pages         int
	ExtraLinks    int
	ImagesPerPage int
}

// Phase is one traffic segment: Rate ops per simulated second of Op
// traffic across the simulated window [Start, Start+Duration), driven
// by Clients concurrent workers.
type Phase struct {
	Name     string
	Op       string // broadcast | resolve | search | checkout | migrate
	Start    time.Duration
	Duration time.Duration
	Rate     float64
	Clients  int
	RefsOnly bool // broadcast: push references instead of full bundles
	TopK     int  // search: hits requested
	Phrase   bool // search: phrase query
}

// SLO is one latency/throughput objective for an op class. Zero-valued
// thresholds are unchecked; MaxErrorRate is a fraction, -1 = unchecked.
type SLO struct {
	Op            string
	P50, P95, P99 time.Duration
	MaxErrorRate  float64
	MinThroughput float64 // ops per simulated second
}

// Ops the driver knows how to issue.
var knownOps = map[string]bool{
	"broadcast": true, "resolve": true, "search": true,
	"checkout": true, "migrate": true,
}

// Validate checks profile invariants; Run calls it before anything else.
func (p *Profile) Validate() error {
	var errs []string
	add := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }
	if p.TimeScale <= 0 {
		add("time-scale must be positive, got %g", p.TimeScale)
	}
	if p.Fabric.Stations < 1 {
		add("fabric.stations must be >= 1, got %d", p.Fabric.Stations)
	}
	if p.Fabric.M < 1 {
		add("fabric.m must be >= 1, got %d", p.Fabric.M)
	}
	if p.Courses.Count < 1 {
		add("courses.count must be >= 1, got %d", p.Courses.Count)
	}
	if len(p.Phases) == 0 {
		add("profile declares no phases")
	}
	phaseOps := map[string]bool{}
	for i, ph := range p.Phases {
		if !knownOps[ph.Op] {
			add("phases[%d] (%s): unknown op %q", i, ph.Name, ph.Op)
		}
		if ph.Start < 0 {
			add("phases[%d] (%s): start must not be negative, got %s", i, ph.Name, ph.Start)
		}
		if ph.Duration <= 0 {
			add("phases[%d] (%s): duration must be positive", i, ph.Name)
		}
		if ph.Rate <= 0 {
			add("phases[%d] (%s): rate must be positive", i, ph.Name)
		}
		if ph.Clients < 1 {
			add("phases[%d] (%s): clients must be >= 1", i, ph.Name)
		}
		if ph.Op == "search" && ph.TopK < 1 {
			add("phases[%d] (%s): top-k must be >= 1, got %d", i, ph.Name, ph.TopK)
		}
		if (ph.Op == "resolve" || ph.Op == "search" || ph.Op == "checkout") && p.Fabric.Stations < 2 {
			add("phases[%d] (%s): %s traffic needs at least 2 stations", i, ph.Name, ph.Op)
		}
		phaseOps[ph.Op] = true
	}
	for i, s := range p.SLOs {
		if !phaseOps[s.Op] {
			add("slos[%d]: op %q has no traffic phase", i, s.Op)
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("profile: %s", strings.Join(errs, "; "))
	}
	return nil
}

// SimDuration is the simulated end of the last phase.
func (p *Profile) SimDuration() time.Duration {
	var end time.Duration
	for _, ph := range p.Phases {
		if t := ph.Start + ph.Duration; t > end {
			end = t
		}
	}
	return end
}
