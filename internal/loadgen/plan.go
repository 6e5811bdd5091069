package loadgen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// Plan generation is split from execution so op counts and parameters
// are a pure function of the profile: every op's simulated issue time,
// target station and arguments are drawn up front from per-phase
// seeded streams. The paced executor then only decides WHEN wall-clock
// ops fire, never WHAT they are — the same profile and seed always
// replay the identical op sequence, which is what the determinism
// tests pin down.

// Op is one planned operation.
type Op struct {
	ID       int           // unique across the plan
	Phase    string        // owning phase name
	Kind     string        // broadcast | resolve | search | checkout | migrate
	At       time.Duration // simulated issue time
	Station  int           // 0-based station index; 0 is the root
	Course   int           // course index into the seeded corpus
	Terms    []string      // search terms
	TopK     int
	Phrase   bool
	RefsOnly bool
	User     string // checkout user
	ObjectID string // checkout target
}

// Plan is the full scripted day.
type Plan struct {
	Ops    [][]Op // per phase, in issue order
	Phases []Phase
	Total  int
}

// searchTermPool are words the course generator actually emits (page
// bodies say "Lecture material for course-NNN, page i of N"; keywords
// are virtual/university/topicN), so planned queries hit real postings
// instead of measuring the empty-result fast path.
var searchTermPool = []string{
	"lecture", "material", "course", "page",
	"virtual", "university",
	"topic0", "topic1", "topic2", "topic3", "topic4", "topic5", "topic6",
}

// BuildPlan scripts the profile's phases into concrete ops.
func BuildPlan(p *Profile) *Plan {
	plan := &Plan{Phases: p.Phases}
	id := 0
	for pi, ph := range p.Phases {
		// One stream per phase: adding a phase never perturbs the
		// draws of the others.
		rng := rand.New(rand.NewSource(p.Seed<<16 + int64(pi)))
		count := int(math.Round(ph.Rate * ph.Duration.Seconds()))
		if count < 1 {
			count = 1
		}
		// Courses are picked Zipf-style: a few hot lectures dominate,
		// matching the paper's lecture-hour access skew.
		var zipf *rand.Zipf
		if p.Courses.Count > 1 {
			zipf = rand.NewZipf(rng, 1.3, 1, uint64(p.Courses.Count-1))
		}
		course := func() int {
			if zipf == nil {
				return 0
			}
			return int(zipf.Uint64())
		}
		// Non-root station, uniformly: leaf traffic in the tree.
		leaf := func() int {
			if p.Fabric.Stations < 2 {
				return 0
			}
			return 1 + rng.Intn(p.Fabric.Stations-1)
		}
		ops := make([]Op, 0, count)
		spacing := ph.Duration / time.Duration(count)
		for i := 0; i < count; i++ {
			op := Op{
				ID:    id,
				Phase: ph.Name,
				Kind:  ph.Op,
				// Issue times spread evenly across the window; the
				// first op fires one spacing in so a phase never
				// lands exactly on its predecessor's end tick.
				At:     ph.Start + time.Duration(i)*spacing + spacing/2,
				Course: course(),
			}
			switch ph.Op {
			case "broadcast", "migrate":
				op.Station = 0 // tree-wide ops run from the root
			case "resolve":
				op.Station = leaf()
			case "search":
				op.Station = leaf()
				op.TopK = ph.TopK
				op.Phrase = ph.Phrase
				n := 1 + rng.Intn(2)
				for t := 0; t < n; t++ {
					op.Terms = append(op.Terms, searchTermPool[rng.Intn(len(searchTermPool))])
				}
			case "checkout":
				op.Station = leaf()
				op.User = fmt.Sprintf("instructor-%d", rng.Intn(8))
				// Contend on a small pool of course documents so some
				// checkouts genuinely collide, like real co-editing.
				op.ObjectID = fmt.Sprintf("load-%03d", course())
			}
			op.RefsOnly = ph.RefsOnly
			ops = append(ops, op)
			id++
		}
		sort.SliceStable(ops, func(a, b int) bool { return ops[a].At < ops[b].At })
		plan.Ops = append(plan.Ops, ops)
		plan.Total += len(ops)
	}
	return plan
}
