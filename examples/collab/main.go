// Collab demonstrates collaborative course development per section 3 of
// the paper: two instructors work on the same course under the object
// locking compatibility table, updates trigger referential-integrity
// alerts, each instructor keeps separate annotations over the shared
// implementation, and the configuration management records versions at
// every check-in.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/annotate"
	"repro/internal/cluster"
	"repro/internal/docdb"
	"repro/internal/integrity"
	"repro/internal/locking"
	"repro/internal/schema"
	"repro/internal/workload"
)

func main() {
	c, err := cluster.New(cluster.Config{
		Stations:  3,
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
	store := root.Store
	locks := locking.NewManager()
	diagram := integrity.Default()
	alertQueue := integrity.NewQueue()

	spec := workload.DefaultSpec(1)
	spec.ScriptName = "mm-course"
	spec.URL = "http://mmu/mm-course/v1"
	spec.Pages = 8
	spec.MediaScaleDown = 4096
	if _, _, err := c.AuthorCourse(spec); err != nil {
		log.Fatal(err)
	}
	if err := c.BroadcastReferences(spec.URL); err != nil {
		log.Fatal(err)
	}

	fmt.Println("the paper's object locking compatibility table:")
	fmt.Print(locking.TableString())

	// Shih read-locks the course container; Ma can read a component but
	// not write it, yet may write the parent database object.
	course := locking.Path{"mmu", "mm-course"}
	page := locking.Path{"mmu", "mm-course", "v1", "index.html"}
	parent := locking.Path{"mmu"}

	shihLock, _, err := locks.TryAcquire("Shih", course, locking.Read)
	if err != nil {
		log.Fatal(err)
	}
	if lk, blockers, _ := locks.TryAcquire("Ma", page, locking.Read); lk != nil {
		fmt.Println("\nMa reads a component under Shih's read lock: granted")
		lk.Release()
	} else {
		log.Fatalf("component read refused: %v", blockers)
	}
	if lk, blockers, _ := locks.TryAcquire("Ma", page, locking.Write); lk == nil {
		fmt.Printf("Ma writes the same component: blocked by %v (as the table requires)\n", blockers)
	} else {
		lk.Release()
		log.Fatal("component write should have been blocked")
	}
	if lk, _, _ := locks.TryAcquire("Ma", parent, locking.Write); lk != nil {
		fmt.Println("Ma writes the parent database object: granted (parents stay open)")
		lk.Release()
	} else {
		log.Fatal("parent write should have been granted")
	}
	shihLock.Release()

	// Ma edits the script through the full collaborative path: write-lock
	// the script subtree, check it out, update it, check it in, release
	// the lock, then propagate integrity alerts to Ma's queue.
	sc, err := store.Script(spec.ScriptName)
	if err != nil {
		log.Fatal(err)
	}
	lock, err := locks.Acquire(context.Background(), "Ma", locking.Path{sc.DBName, spec.ScriptName}, locking.Write)
	if err != nil {
		log.Fatal(err)
	}
	co, err := store.CheckOut(schema.KindScript, spec.ScriptName, "Ma")
	if err != nil {
		log.Fatal(err)
	}
	if err := store.SetProgress(spec.ScriptName, 75); err != nil {
		log.Fatal(err)
	}
	if err := store.CheckIn(co, "edit by Ma"); err != nil {
		log.Fatal(err)
	}
	lock.Release()
	alerts, err := diagram.Propagate(integrity.DocResolver{Store: store}, schema.KindScript, spec.ScriptName)
	if err != nil {
		log.Fatal(err)
	}
	alertQueue.Push("Ma", alerts)
	fmt.Printf("\nMa's edit raised %d referential-integrity alerts:\n", len(alerts))
	for i, a := range alertQueue.Pending("Ma") {
		if i == 4 {
			fmt.Printf("  ... and %d more\n", len(alerts)-4)
			break
		}
		fmt.Printf("  [%s -> %s] %s\n", a.SourceKind, a.TargetKind, a.Message)
	}
	alertQueue.AckAll("Ma")

	// Each instructor annotates the shared course separately.
	for _, instr := range []string{"Shih", "Ma"} {
		doc := &annotate.Document{
			Author:  instr,
			PageURL: spec.URL + "/index.html",
			Primitives: []annotate.Primitive{
				{Kind: annotate.PrimRect, At: time.Second,
					Points: []annotate.Point{{X: 10, Y: 10}, {X: 200, Y: 80}}, Color: 0xFF0000, Width: 2},
				{Kind: annotate.PrimText, At: 3 * time.Second,
					Points: []annotate.Point{{X: 20, Y: 40}}, Text: "note by " + instr},
			},
		}
		if err := doc.Validate(); err != nil {
			log.Fatal(err)
		}
		err := store.SaveAnnotation(docdb.Annotation{
			Name:        "ann-" + spec.ScriptName + "-" + instr,
			ScriptName:  spec.ScriptName,
			StartingURL: spec.URL,
			Author:      instr,
			File:        doc.Encode(),
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	stored, err := store.Annotations(spec.URL)
	if err != nil {
		log.Fatal(err)
	}
	var docs []*annotate.Document
	for _, a := range stored {
		doc, err := annotate.Decode(a.File)
		if err != nil {
			log.Fatalf("annotation %s: %v", a.Name, err)
		}
		docs = append(docs, doc)
	}
	fmt.Printf("\n%d instructors hold separate annotations over the same implementation\n", len(docs))
	merged, authors := annotate.Merge(docs...)
	fmt.Println("merged playback stream:")
	for i, p := range merged {
		fmt.Printf("  t=%v %-8s by %s\n", p.At, p.Kind, authors[i])
	}

	// The configuration management kept a version per check-in.
	hist, err := store.History("script", spec.ScriptName)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nversion history of %s:\n", spec.ScriptName)
	for _, v := range hist {
		fmt.Printf("  v%d by %s: %s\n", v.Version, v.Author, v.Comment)
	}
}
