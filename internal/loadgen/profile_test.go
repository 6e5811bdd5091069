package loadgen

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"
	"time"
)

// planHash is an FNV-64a over every planned op's drawn parameters, in
// plan order.
func planHash(pl *Plan) uint64 {
	h := fnv.New64a()
	for _, ops := range pl.Ops {
		for _, op := range ops {
			fmt.Fprintf(h, "%s|%d|%d|%d|%q|%d|%s|%s\n",
				op.Kind, op.At, op.Station, op.Course, op.Terms, op.TopK, op.User, op.ObjectID)
		}
	}
	return h.Sum64()
}

// TestShippedProfiles pins each shipped profile to the plan and SLOs
// its earlier file-based form produced: same op counts, same drawn ops
// (hash), same objectives — including the -1 that leaves checkout's
// error rate unchecked.
func TestShippedProfiles(t *testing.T) {
	cases := []struct {
		name   string
		counts map[string]int
		hash   uint64
		slos   string
	}{
		{
			name:   "semester-day",
			counts: map[string]int{"broadcast": 18, "checkout": 198, "migrate": 9, "resolve": 360, "search": 162},
			hash:   0x3b1c0db69385aa40,
			slos: "[{Op:broadcast P50:0s P95:2s P99:0s MaxErrorRate:0 MinThroughput:0} " +
				"{Op:resolve P50:250ms P95:1s P99:2s MaxErrorRate:0 MinThroughput:0} " +
				"{Op:search P50:0s P95:1s P99:2s MaxErrorRate:0 MinThroughput:0} " +
				"{Op:checkout P50:0s P95:500ms P99:0s MaxErrorRate:-1 MinThroughput:0}]",
		},
		{
			name:   "ci-smoke",
			counts: map[string]int{"broadcast": 6, "checkout": 21, "migrate": 2, "resolve": 36, "search": 12},
			hash:   0xdfa9821ef7ed90de,
			slos: "[{Op:broadcast P50:0s P95:0s P99:10s MaxErrorRate:0 MinThroughput:0} " +
				"{Op:resolve P50:0s P95:0s P99:5s MaxErrorRate:0 MinThroughput:0} " +
				"{Op:search P50:0s P95:0s P99:5s MaxErrorRate:0 MinThroughput:0} " +
				"{Op:checkout P50:0s P95:0s P99:5s MaxErrorRate:-1 MinThroughput:0}]",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := ProfileByName(c.name)
			if err != nil {
				t.Fatal(err)
			}
			if p.Name != c.name {
				t.Errorf("Name = %q", p.Name)
			}
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
			pl := BuildPlan(p)
			if got := pl.OpCounts(); !reflect.DeepEqual(got, c.counts) {
				t.Errorf("op counts = %v, want %v", got, c.counts)
			}
			if got := planHash(pl); got != c.hash {
				t.Errorf("plan hash = %#x, want %#x", got, c.hash)
			}
			if got := fmt.Sprintf("%+v", p.SLOs); got != c.slos {
				t.Errorf("SLOs =\n%s\nwant\n%s", got, c.slos)
			}
		})
	}
}

func TestProfileByName(t *testing.T) {
	if got, want := ProfileNames(), []string{"ci-smoke", "semester-day"}; !reflect.DeepEqual(got, want) {
		t.Errorf("ProfileNames = %v, want %v", got, want)
	}
	a, _ := ProfileByName("ci-smoke")
	a.Seed = 7
	if b, _ := ProfileByName("ci-smoke"); b.Seed == 7 {
		t.Error("ProfileByName hands out a shared value")
	}
	_, err := ProfileByName("no-such-day")
	if err == nil || !strings.Contains(err.Error(), "no-such-day") ||
		!strings.Contains(err.Error(), "ci-smoke, semester-day") {
		t.Fatalf("err = %v, want the name and the known names", err)
	}
}

func TestProfileErrors(t *testing.T) {
	// valid returns a profile Validate accepts; each case breaks one thing.
	valid := func() *Profile {
		return &Profile{
			TimeScale: 1,
			Fabric:    FabricSpec{Stations: 3, M: 3, Watermark: 2},
			Courses:   CourseLoad{Count: 1},
			Phases: []Phase{
				{Name: "push", Op: "broadcast", Duration: time.Second, Rate: 1, Clients: 1},
				{Name: "find", Op: "search", Duration: time.Second, Rate: 1, Clients: 1, TopK: 10},
			},
			SLOs: []SLO{{Op: "broadcast", P95: time.Second, MaxErrorRate: -1}},
		}
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("base profile: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(p *Profile)
		want   string
	}{
		{"bad-op", func(p *Profile) { p.Phases[0].Op = "teleport" }, "unknown op"},
		{"no-phases", func(p *Profile) { p.Phases, p.SLOs = nil, nil }, "no phases"},
		{"bad-rate", func(p *Profile) { p.Phases[0].Rate = 0 }, "rate must be positive"},
		{"bad-duration", func(p *Profile) { p.Phases[0].Duration = 0 }, "duration must be positive"},
		{"orphan-slo", func(p *Profile) { p.SLOs[0].Op = "resolve" }, "no traffic phase"},
		{"zero-top-k", func(p *Profile) { p.Phases[1].TopK = 0 }, "top-k"},
		{"negative-start", func(p *Profile) { p.Phases[0].Start = -time.Minute }, "start"},
		{"zero-clients", func(p *Profile) { p.Phases[0].Clients = 0 }, "clients"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := valid()
			c.mutate(p)
			err := p.Validate()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want substring %q", err, c.want)
			}
		})
	}
}
