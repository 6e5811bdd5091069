package loadgen

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// The shipped load profiles. A new day is one more function here and
// one more entry in shipped; `webdocload -profile <name>` picks it.

var shipped = map[string]func() *Profile{
	"semester-day": SemesterDay,
	"ci-smoke":     CISmoke,
}

// ProfileNames lists the shipped profiles, sorted.
func ProfileNames() []string {
	names := make([]string, 0, len(shipped))
	for name := range shipped {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ProfileByName returns a fresh copy of the named shipped profile.
func ProfileByName(name string) (*Profile, error) {
	mk, ok := shipped[name]
	if !ok {
		return nil, fmt.Errorf("unknown profile %q (known: %s)", name, strings.Join(ProfileNames(), ", "))
	}
	return mk(), nil
}

// SemesterDay is one compressed semester day at the virtual university
// (ICPP'99 scenario): the morning pre-lecture broadcast from the root,
// the lecture-hour resolve storm at the leaf stations, evening
// federated search over the course corpus, background co-editing
// check-outs, and the end-of-day migration that demotes instances back
// to references. Six simulated hours replayed at 360x, about 60 s wall.
func SemesterDay() *Profile {
	return &Profile{
		Name:      "semester-day",
		Seed:      1999,
		TimeScale: 360,
		Fabric:    FabricSpec{Stations: 7, M: 3, Watermark: 2},
		Courses:   CourseLoad{Count: 12, Pages: 10, ExtraLinks: 4, ImagesPerPage: 1},
		Phases: []Phase{
			// 08:00 - pre-lecture push: full instances of today's
			// lectures, ~18 broadcasts across the half hour.
			{Name: "morning-broadcast", Op: "broadcast", Start: 0, Duration: 30 * time.Minute, Rate: 0.01, Clients: 1},
			// 09:00-11:00 - students at the leaves pull course pages,
			// ~360 fetches over the two hours.
			{Name: "lecture-resolve", Op: "resolve", Start: time.Hour, Duration: 2 * time.Hour, Rate: 0.05, Clients: 4},
			// 12:00-13:30 - library hour: federation-wide keyword search.
			{Name: "evening-search", Op: "search", Start: 4 * time.Hour, Duration: 90 * time.Minute, Rate: 0.03, Clients: 2, TopK: 10},
			// All day - instructors co-edit: check out, check in.
			{Name: "editing", Op: "checkout", Start: 15 * time.Minute, Duration: 5*time.Hour + 30*time.Minute, Rate: 0.01, Clients: 2},
			// 17:30 - end of lectures: migrate instances back to references.
			{Name: "end-of-day", Op: "migrate", Start: 5*time.Hour + 30*time.Minute, Duration: 30 * time.Minute, Rate: 0.005, Clients: 1},
		},
		SLOs: []SLO{
			{Op: "broadcast", P95: 2 * time.Second, MaxErrorRate: 0},
			{Op: "resolve", P50: 250 * time.Millisecond, P95: time.Second, P99: 2 * time.Second, MaxErrorRate: 0},
			{Op: "search", P95: time.Second, P99: 2 * time.Second, MaxErrorRate: 0},
			{Op: "checkout", P95: 500 * time.Millisecond, MaxErrorRate: -1},
		},
	}
}

// CISmoke is a miniature semester day on a 3-station fabric, about
// 10 s of wall clock. Its SLO thresholds are deliberately loose: the
// smoke run guards the harness path and the report schema on a shared
// CI machine, not the latency numbers.
func CISmoke() *Profile {
	return &Profile{
		Name:      "ci-smoke",
		Seed:      42,
		TimeScale: 60,
		Fabric:    FabricSpec{Stations: 3, M: 3, Watermark: 2},
		Courses:   CourseLoad{Count: 4, Pages: 5, ExtraLinks: 2, ImagesPerPage: 1},
		Phases: []Phase{
			{Name: "morning-broadcast", Op: "broadcast", Start: 0, Duration: 2 * time.Minute, Rate: 0.05, Clients: 1},
			{Name: "lecture-resolve", Op: "resolve", Start: 2 * time.Minute, Duration: 4 * time.Minute, Rate: 0.15, Clients: 2},
			{Name: "evening-search", Op: "search", Start: 6 * time.Minute, Duration: 2 * time.Minute, Rate: 0.1, Clients: 2, TopK: 5},
			{Name: "editing", Op: "checkout", Start: time.Minute, Duration: 7 * time.Minute, Rate: 0.05, Clients: 1},
			{Name: "end-of-day", Op: "migrate", Start: 8 * time.Minute, Duration: 2 * time.Minute, Rate: 0.02, Clients: 1},
		},
		SLOs: []SLO{
			{Op: "broadcast", P99: 10 * time.Second, MaxErrorRate: 0},
			{Op: "resolve", P99: 5 * time.Second, MaxErrorRate: 0},
			{Op: "search", P99: 5 * time.Second, MaxErrorRate: 0},
			{Op: "checkout", P99: 5 * time.Second, MaxErrorRate: -1},
		},
	}
}
