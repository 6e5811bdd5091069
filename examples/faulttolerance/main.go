// Faulttolerance demonstrates the failure-handling extension of the
// distribution layer: when student stations fail mid-semester, the
// pre-broadcast grafts their children onto the nearest live ancestor
// and on-demand pulls skip dead holders on the parent route. It also
// shows the chunked-relay ablation (E11): cutting the lecture bundle
// into blocks removes the store-and-forward depth penalty.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/cluster"
	"repro/internal/netsim"
	"repro/internal/workload"
)

func build() (*cluster.Cluster, workload.CourseSpec) {
	c, err := cluster.New(cluster.Config{
		Stations:  15,
		M:         2,
		UplinkBps: 1.25e6, // 10 Mb/s
		Latency:   5 * time.Millisecond,
		Watermark: 0,
		Mode:      netsim.Sequential,
	})
	if err != nil {
		log.Fatal(err)
	}
	spec := workload.DefaultSpec(1)
	spec.Pages = 12
	spec.MediaScaleDown = 64
	if _, _, err := c.AuthorCourse(spec); err != nil {
		log.Fatal(err)
	}
	if err := c.BroadcastReferences(spec.URL); err != nil {
		log.Fatal(err)
	}
	return c, spec
}

func slowest(times []time.Duration) time.Duration {
	var max time.Duration
	for _, t := range times {
		if t > max {
			max = t
		}
	}
	return max
}

func main() {
	// Baseline store-and-forward broadcast over the healthy tree.
	c, spec := build()
	times, size, err := c.PreBroadcast(spec.URL)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("healthy tree (m=2, 15 stations): %.2f MiB everywhere after %v\n",
		float64(size)/(1<<20), slowest(times).Round(time.Millisecond))

	// Chunked relay removes the depth penalty.
	c, spec = build()
	times, _, err = c.PreBroadcastChunked(spec.URL, size/16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("chunked relay (16 blocks):        everywhere after %v\n",
		slowest(times).Round(time.Millisecond))

	// A student under a failed subtree still pulls on demand: on a
	// fresh deployment, station 5's parent (2) is dead, so the root
	// serves it over the live ancestor route.
	c, spec = build()
	for _, down := range []int{2, 6} {
		if err := c.MarkDown(down); err != nil {
			log.Fatal(err)
		}
	}
	res, err := c.FetchOnDemand(5, spec.URL)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstations 2 and 6 down; station 5 (child of 2) pulled from station %d in %v\n",
		res.ServedBy, res.Latency.Round(time.Millisecond))

	// The broadcast routes around the failures.
	times, _, err = c.PreBroadcast(spec.URL)
	if err != nil {
		log.Fatal(err)
	}
	delivered := 0
	for pos := 2; pos <= c.Size(); pos++ {
		if times[pos-1] > 0 {
			delivered++
		}
	}
	fmt.Printf("broadcast reached %d of %d live student stations after %v\n",
		delivered, c.Size()-3, slowest(times).Round(time.Millisecond))

	// Recovery: station 2 comes back and reviews the lecture; the pull
	// route works again with the parent as first candidate.
	if err := c.MarkUp(2); err != nil {
		log.Fatal(err)
	}
	res, err = c.FetchOnDemand(2, spec.URL)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered station 2 pulled from station %d in %v\n",
		res.ServedBy, res.Latency.Round(time.Millisecond))
}
