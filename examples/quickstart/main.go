// Quickstart walks the whole system end to end, the way the paper's
// virtual university uses it: an instructor authors a course on station
// 1, publishes it to the virtual library, pre-broadcasts it to the
// student stations before the lecture, students play it back and check
// materials out of the library, and the buffers migrate back to
// references after class.
package main

import (
	"fmt"
	"log"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/library"
	"repro/internal/webtest"
	"repro/internal/workload"
)

func main() {
	// Seven stations on a 10 Mb/s department LAN, m = 3.
	c, err := cluster.New(cluster.Config{
		Stations:  7,
		M:         3,
		UplinkBps: 1.25e6,
		Latency:   5 * time.Millisecond,
		Watermark: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	root, err := c.Station(1)
	if err != nil {
		log.Fatal(err)
	}
	lib := library.New(root.Store)

	// Author and publish a 12-page course with scaled-down media.
	spec := workload.DefaultSpec(1)
	spec.ScriptName = "intro-cs"
	spec.URL = "http://mmu/intro-cs/v1"
	spec.Author = "Shih"
	spec.Pages = 12
	spec.MediaScaleDown = 2048
	// Publishing authors it on the instructor station, announces a
	// reference to every student station and catalogs it in the library.
	course, _, err := c.AuthorCourse(spec)
	if err != nil {
		log.Fatal(err)
	}
	if err := c.BroadcastReferences(spec.URL); err != nil {
		log.Fatal(err)
	}
	lib.RegisterInstructor("Shih")
	if err := lib.Add(spec.ScriptName, "CS-101", "Shih"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("published %s: %d pages, %d media objects, %.2f MiB\n",
		spec.ScriptName, course.PageCount, course.MediaCount, float64(course.MediaBytes)/(1<<20))

	// The course is searchable in the Web-savvy virtual library.
	hits := lib.Search(library.Query{Keywords: []string{"virtual"}})
	fmt.Printf("library search for 'virtual': %d hit(s); first = %s\n", len(hits), hits[0].Entry.ScriptName)

	// Pre-broadcast the lecture down the m-ary tree.
	times, size, err := c.PreBroadcast(spec.URL)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("distributed %.2f MiB to %d stations (m=%d); slowest station ready after %v\n",
		float64(size)/(1<<20), c.Size()-1, c.M(), slices.Max(times).Round(time.Millisecond))

	// A student at station 5 plays the lecture: no stalls after the
	// pre-broadcast.
	rep, err := c.Playback(5, spec.URL, 2*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("playback at station 5: %d pages, %d stalls\n", rep.Pages, rep.Stalls)

	// The student checks lecture notes out of the library; the ledger
	// feeds assessment.
	co, err := lib.CheckOut(spec.ScriptName, "alice")
	if err != nil {
		log.Fatal(err)
	}
	if err := lib.CheckIn(co); err != nil {
		log.Fatal(err)
	}
	assessment, err := lib.Assess("alice")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("assessment for alice: %d checkouts, %d distinct documents, score %.1f\n",
		assessment.Checkouts, assessment.DistinctDocs, assessment.Score)

	// After the lecture the duplicated instances migrate to references.
	freed, err := c.EndLecture(spec.URL)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lecture ended: %.2f MiB of buffer space reclaimed\n", float64(freed)/(1<<20))

	// Run the testing subsystem over the course.
	suite := &webtest.Suite{Store: root.Store}
	testName, bugName, err := suite.Report(spec.URL, "Huang", 1)
	if err != nil {
		log.Fatal(err)
	}
	if bugName == "" {
		fmt.Printf("white-box test %s: course is clean\n", testName)
	} else {
		fmt.Printf("white-box test %s filed bug %s\n", testName, bugName)
	}
	cx, err := suite.Complexity(spec.URL)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("course complexity: %d pages, %d links, cyclomatic %d\n", cx.Pages, cx.Links, cx.Cyclomatic)
}
