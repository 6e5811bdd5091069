package loadgen

import (
	"fmt"
	"sync"
	"time"
)

// The paced executor. Each phase gets its own worker group; a phase's
// ops are dealt round-robin to its clients, and every worker sleeps
// until an op's wall-clock slot (simulated time divided by the
// time-scale) before firing it. Workers never skip ops — when the
// target can't keep up they fall behind schedule and the lag is
// recorded, so a run always executes the plan's exact op multiset and
// only the latency numbers reflect the stress.

// CourseURL is the implementation URL of the i-th seeded course —
// shared by the host (authoring) and the driver (traffic).
func CourseURL(i int) string {
	return fmt.Sprintf("http://mmu/load-%03d/v1", i)
}

// CourseScript is the script name of the i-th seeded course.
func CourseScript(i int) string {
	return fmt.Sprintf("load-%03d", i)
}

// Logf is the driver's progress callback (nil = silent).
type Logf func(format string, args ...any)

// Run validates the profile, replays the plan against the target and
// returns the collector plus the measured wall duration.
func Run(p *Profile, plan *Plan, tgt Target, logf Logf) (*Collector, time.Duration, error) {
	if err := p.Validate(); err != nil {
		return nil, 0, err
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if tgt.Stations() < p.Fabric.Stations {
		return nil, 0, fmt.Errorf("loadgen: profile wants %d stations, target has %d",
			p.Fabric.Stations, tgt.Stations())
	}
	col := NewCollector()
	start := time.Now()
	var wg sync.WaitGroup
	for pi := range plan.Ops {
		ph := plan.Phases[pi]
		ops := plan.Ops[pi]
		logf("phase %-18s %s+%s sim  %4d %s ops, %d client(s)",
			ph.Name, ph.Start, ph.Duration, len(ops), ph.Op, ph.Clients)
		for c := 0; c < ph.Clients; c++ {
			wg.Add(1)
			go func(worker int) {
				defer wg.Done()
				for i := worker; i < len(ops); i += ph.Clients {
					runOp(p, tgt, col, start, ops[i])
				}
			}(c)
		}
	}
	wg.Wait()
	wall := time.Since(start)
	logf("replayed %d ops: %s simulated in %s wall (scale %gx)",
		plan.Total, p.SimDuration().Round(time.Millisecond), wall.Round(time.Millisecond), p.TimeScale)
	return col, wall, nil
}

// runOp waits for the op's wall slot, fires it and records the result.
func runOp(p *Profile, tgt Target, col *Collector, start time.Time, op Op) {
	slot := start.Add(time.Duration(float64(op.At) / p.TimeScale))
	lag := time.Duration(0)
	if d := time.Until(slot); d > 0 {
		time.Sleep(d)
	} else {
		lag = -d
	}
	began := time.Now()
	var (
		bytes int64
		trace uint64
		err   error
	)
	switch op.Kind {
	case "broadcast":
		bytes, trace, err = tgt.Broadcast(CourseURL(op.Course), op.RefsOnly)
	case "migrate":
		trace, err = tgt.Migrate(CourseURL(op.Course))
	case "resolve":
		bytes, trace, err = tgt.Resolve(op.Station, CourseURL(op.Course))
	case "search":
		_, trace, err = tgt.Search(op.Station, op.Terms, op.Phrase, op.TopK)
	case "checkout":
		err = tgt.Checkout(op.Station, "script", op.ObjectID, op.User)
	default:
		err = fmt.Errorf("loadgen: unknown op kind %q", op.Kind)
	}
	conflict := op.Kind == "checkout" && IsConflict(err)
	col.Record(op.Kind, op.Phase, time.Since(began), bytes, lag, trace, err, conflict)
}
