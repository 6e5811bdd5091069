package repro

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/cluster"
	"repro/internal/docdb"
	"repro/internal/integrity"
	"repro/internal/library"
	"repro/internal/locking"
	"repro/internal/minisql"
	"repro/internal/relstore"
	"repro/internal/schema"
	"repro/internal/webtest"
	"repro/internal/workload"
)

// smallSpec is the shared course shape for integration tests.
func systemSpec(n int) workload.CourseSpec {
	spec := workload.DefaultSpec(n)
	spec.Pages = 8
	spec.ExtraLinks = 4
	spec.ImagesPerPage = 1
	spec.VideoEvery = 4
	spec.AudioEvery = 0
	spec.MediaScaleDown = 16384
	return spec
}

// TestFullSemesterScenario drives the whole system through a realistic
// sequence: publish three courses, distribute them, run lectures with
// playback, collaborate on edits, circulate library materials for a
// cohort of students, test the courses, and verify buffers reclaim.
func TestFullSemesterScenario(t *testing.T) {
	c, err := cluster.New(cluster.Config{
		Stations:  13,
		M:         3,
		UplinkBps: 1.25e6,
		Latency:   5 * time.Millisecond,
		Watermark: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	root, err := c.Station(1)
	if err != nil {
		t.Fatal(err)
	}
	store := root.Store
	lib := library.New(store)
	lib.RegisterInstructor("Shih")
	locks := locking.NewManager()
	alerts := integrity.NewQueue()
	suite := &webtest.Suite{Store: store}

	// Publishing authors each course on the instructor station,
	// announces references to every student station and catalogs it.
	specs := make([]workload.CourseSpec, 3)
	for i := range specs {
		specs[i] = systemSpec(i + 1)
		if _, _, err := c.AuthorCourse(specs[i]); err != nil {
			t.Fatalf("author %d: %v", i, err)
		}
		if err := c.BroadcastReferences(specs[i].URL); err != nil {
			t.Fatalf("announce %d: %v", i, err)
		}
		if err := lib.Add(specs[i].ScriptName, []string{"CS-101", "MM-201", "ED-110"}[i], "Shih"); err != nil {
			t.Fatalf("catalog %d: %v", i, err)
		}
	}

	// All three courses are searchable.
	if hits := lib.Search(library.Query{}); len(hits) != 3 {
		t.Fatalf("catalog = %d", len(hits))
	}

	for li, spec := range specs {
		if _, _, err := c.PreBroadcast(spec.URL); err != nil {
			t.Fatalf("distribute %d: %v", li, err)
		}
		// Every student station plays without stalls.
		for pos := 2; pos <= c.Size(); pos += 4 {
			rep, err := c.Playback(pos, spec.URL, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Stalls != 0 {
				t.Errorf("lecture %d station %d stalled %d times", li, pos, rep.Stalls)
			}
		}
		// Mid-semester edit under a write lock, with integrity alerts
		// propagated to the editor's queue.
		editScript(t, store, locks, alerts, spec, "Ma", float64(60+li*10))
		// Students check out the notes.
		for _, student := range []string{"alice", "bob"} {
			co, err := lib.CheckOut(spec.ScriptName, student)
			if err != nil {
				t.Fatal(err)
			}
			if err := lib.CheckIn(co); err != nil {
				t.Fatal(err)
			}
		}
		// Lecture ends; student buffers return to references.
		freed, err := c.EndLecture(spec.URL)
		if err != nil {
			t.Fatal(err)
		}
		if freed <= 0 {
			t.Errorf("lecture %d freed %d bytes", li, freed)
		}
		// The testing subsystem finds generated courses clean.
		if _, bug, err := suite.Report(spec.URL, "Huang", li+1); err != nil {
			t.Fatal(err)
		} else if bug != "" {
			t.Errorf("course %d has bug %s", li, bug)
		}
	}

	// After three lectures, only the instructor station holds bytes.
	usage := c.DiskUsage()
	for pos := 2; pos <= c.Size(); pos++ {
		if usage[pos-1] != 0 {
			t.Errorf("station %d holds %d bytes after semester end", pos, usage[pos-1])
		}
	}
	if usage[0] == 0 {
		t.Error("instructor station lost its courses")
	}

	// Assessment reflects six checkouts each semester for both students.
	for _, student := range []string{"alice", "bob"} {
		a, err := lib.Assess(student)
		if err != nil {
			t.Fatal(err)
		}
		if a.Checkouts != 3 || a.DistinctDocs != 3 {
			t.Errorf("%s assessment = %+v", student, a)
		}
	}
}

// editScript performs one collaborative edit of spec's script: write-lock
// the script subtree, check it out, set its progress to pct, check it
// in, then propagate integrity alerts to the editor's queue. It asserts
// that the queue holds exactly the alerts raised, that the edit left one
// history version, and that the new progress reads back.
func editScript(t *testing.T, store *docdb.Store, locks *locking.Manager, alerts *integrity.Queue, spec workload.CourseSpec, editor string, pct float64) {
	t.Helper()
	lock, err := locks.Acquire(context.Background(), editor, locking.Path{spec.DBName, spec.ScriptName}, locking.Write)
	if err != nil {
		t.Fatal(err)
	}
	co, err := store.CheckOut(schema.KindScript, spec.ScriptName, editor)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.SetProgress(spec.ScriptName, pct); err != nil {
		t.Fatal(err)
	}
	if err := store.CheckIn(co, "edit by "+editor); err != nil {
		t.Fatal(err)
	}
	lock.Release()
	raised, err := integrity.Default().Propagate(integrity.DocResolver{Store: store}, schema.KindScript, spec.ScriptName)
	if err != nil {
		t.Fatal(err)
	}
	alerts.Push(editor, raised)
	if len(raised) == 0 {
		t.Error("edit raised no alerts")
	}
	if pending := alerts.Pending(editor); len(pending) != len(raised) {
		t.Errorf("pending alerts = %d, want the %d raised", len(pending), len(raised))
	}
	alerts.AckAll(editor)
	// The edit went through checkout: history holds one version.
	if hist, err := store.History(schema.KindScript, spec.ScriptName); err != nil {
		t.Fatal(err)
	} else if len(hist) != 1 {
		t.Errorf("history = %+v", hist)
	}
	if sc, err := store.Script(spec.ScriptName); err != nil {
		t.Fatal(err)
	} else if sc.PctComplete != pct {
		t.Errorf("pct complete = %v, want %v", sc.PctComplete, pct)
	}
}

// publishCourse authors spec on the instructor station of a seven-station
// cluster, announces references to every student station and catalogs
// the course in the virtual library.
func publishCourse(t *testing.T, spec workload.CourseSpec, courseNumber, instructor string) (*cluster.Cluster, *docdb.Store, *library.Library) {
	t.Helper()
	c, err := cluster.New(cluster.Config{
		Stations:  7,
		M:         3,
		UplinkBps: 1.25e6,
		Latency:   5 * time.Millisecond,
		Watermark: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	root, err := c.Station(1)
	if err != nil {
		t.Fatal(err)
	}
	lib := library.New(root.Store)
	lib.RegisterInstructor(instructor)
	if _, _, err := c.AuthorCourse(spec); err != nil {
		t.Fatal(err)
	}
	if err := c.BroadcastReferences(spec.URL); err != nil {
		t.Fatal(err)
	}
	if err := lib.Add(spec.ScriptName, courseNumber, instructor); err != nil {
		t.Fatal(err)
	}
	return c, root.Store, lib
}

// TestPublishDistributeLectureCycle runs one lecture end to end: the
// published course is searchable, pre-broadcast reaches every station,
// a student plays it without stalls, and the lecture's end reclaims the
// student buffers.
func TestPublishDistributeLectureCycle(t *testing.T) {
	spec := systemSpec(1)
	c, _, lib := publishCourse(t, spec, "CS-101", "Shih")
	hits := lib.Search(library.Query{Course: "CS-101"})
	if len(hits) != 1 || hits[0].Entry.ScriptName != spec.ScriptName {
		t.Fatalf("hits = %+v", hits)
	}
	times, size, err := c.PreBroadcast(spec.URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != c.Size() || size <= 0 {
		t.Fatalf("pre-broadcast = %v, %d bytes", times, size)
	}
	// Every student station (all but the root at index 0) received it.
	for i, d := range times[1:] {
		if d <= 0 {
			t.Errorf("station %d: pre-broadcast time %v", i+2, d)
		}
	}
	rep, err := c.Playback(5, spec.URL, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stalls != 0 {
		t.Errorf("stalls = %d after distribution", rep.Stalls)
	}
	freed, err := c.EndLecture(spec.URL)
	if err != nil {
		t.Fatal(err)
	}
	if freed <= 0 {
		t.Errorf("freed = %d", freed)
	}
}

// TestEditScriptLocksAndAlerts runs one collaborative edit on a freshly
// published course.
func TestEditScriptLocksAndAlerts(t *testing.T) {
	spec := systemSpec(2)
	_, store, _ := publishCourse(t, spec, "MM-201", "Ma")
	editScript(t, store, locking.NewManager(), integrity.NewQueue(), spec, "Ma", 55)
}

// TestStationPersistenceAcrossRestart checkpoints a durable station
// (relational + BLOB layers), recovers it into a fresh store and
// verifies the document layer is intact, including a bundle export.
func TestStationPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	store, err := docdb.Open(relstore.NewDB(), blob.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Recover(dir); err != nil {
		t.Fatal(err)
	}
	store.Now = func() time.Time { return time.Date(1999, 4, 21, 0, 0, 0, 0, time.UTC) }
	spec := systemSpec(1)
	course, err := workload.BuildCourse(store, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.NewInstance(spec.URL, 1, true); err != nil {
		t.Fatal(err)
	}
	wantBundle, err := store.ExportBundle(spec.URL)
	if err != nil {
		t.Fatal(err)
	}

	// Persist both layers, then restart from the directory.
	if _, err := store.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if err := store.Rel().CloseWAL(); err != nil {
		t.Fatal(err)
	}
	store2, err := docdb.Open(relstore.NewDB(), blob.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store2.Recover(dir); err != nil {
		t.Fatal(err)
	}
	defer store2.Rel().CloseWAL()

	// Everything is back: scripts, pages, media bytes, object forms.
	sc, err := store2.Script(spec.ScriptName)
	if err != nil {
		t.Fatal(err)
	}
	if sc.DBName != spec.DBName {
		t.Errorf("script = %+v", sc)
	}
	gotBundle, err := store2.ExportBundle(spec.URL)
	if err != nil {
		t.Fatal(err)
	}
	if gotBundle.TotalBytes() != wantBundle.TotalBytes() {
		t.Errorf("bundle bytes = %d, want %d", gotBundle.TotalBytes(), wantBundle.TotalBytes())
	}
	if len(gotBundle.Media) != course.MediaCount {
		t.Errorf("media = %d, want %d", len(gotBundle.Media), course.MediaCount)
	}
	obj, err := store2.ObjectByURL(spec.URL)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Form != schema.FormInstance || !obj.Persistent {
		t.Errorf("object = %+v", obj)
	}
}

// TestTCPDistributionScenario moves a course between three real TCP
// stations: author on 1, pull to 2, then 3 pulls from 2 — the on-demand
// parent route over real sockets.
func TestTCPDistributionScenario(t *testing.T) {
	stores := make([]*docdb.Store, 3)
	nodes := make([]*cluster.Node, 3)
	addrs := make([]string, 3)
	for i := range stores {
		s, err := docdb.Open(relstore.NewDB(), blob.NewStore())
		if err != nil {
			t.Fatal(err)
		}
		s.Now = func() time.Time { return time.Date(1999, 4, 21, 0, 0, 0, 0, time.UTC) }
		stores[i] = s
		nodes[i] = cluster.NewNode(i+1, s)
		addr, err := nodes[i].Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer nodes[i].Close()
		addrs[i] = addr
	}
	spec := systemSpec(2)
	if _, err := workload.BuildCourse(stores[0], spec); err != nil {
		t.Fatal(err)
	}
	if _, err := stores[0].NewInstance(spec.URL, 1, true); err != nil {
		t.Fatal(err)
	}

	// Station 2 pulls from station 1.
	c1, err := cluster.DialStation(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	bundle, err := c1.FetchBundle(spec.URL)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := cluster.DialStation(addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Import(bundle, false); err != nil {
		t.Fatal(err)
	}

	// Station 3 pulls from station 2 (its parent under m=2).
	bundle2, err := c2.FetchBundle(spec.URL)
	if err != nil {
		t.Fatal(err)
	}
	c3, err := cluster.DialStation(addrs[2])
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if _, err := c3.Import(bundle2, false); err != nil {
		t.Fatal(err)
	}

	// Byte-identical content end to end.
	orig, err := stores[0].HTML(spec.URL, "index.html")
	if err != nil {
		t.Fatal(err)
	}
	final, err := stores[2].HTML(spec.URL, "index.html")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, final) {
		t.Error("content corrupted across two TCP hops")
	}
	// All three stations report the instance over SQL.
	for i, addr := range addrs {
		rs, err := cluster.DialStation(addr)
		if err != nil {
			t.Fatal(err)
		}
		reply, err := rs.SQL("SELECT COUNT(*) FROM doc_objects WHERE form = 'instance'")
		rs.Close()
		if err != nil {
			t.Fatal(err)
		}
		if reply.Rows[0][0] != "1" {
			t.Errorf("station %d instances = %s", i+1, reply.Rows[0][0])
		}
	}
}

// TestSQLOverDocumentStore verifies the administrative SQL path sees
// the document layer's tables directly.
func TestSQLOverDocumentStore(t *testing.T) {
	store, err := docdb.Open(relstore.NewDB(), blob.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	store.Now = func() time.Time { return time.Date(1999, 4, 21, 0, 0, 0, 0, time.UTC) }
	spec := systemSpec(3)
	if _, err := workload.BuildCourse(store, spec); err != nil {
		t.Fatal(err)
	}
	sess := minisql.NewSession(store.Rel())
	res, err := sess.Exec("SELECT COUNT(*) FROM html_files")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != int64(8) {
		t.Errorf("html_files = %v", res.Rows[0][0])
	}
	res, err = sess.Exec("SELECT script_name FROM scripts WHERE author = 'instructor'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != spec.ScriptName {
		t.Errorf("scripts = %v", res.Rows)
	}
	// The FK chain protects the document layer through SQL too.
	if _, err := sess.Exec("DELETE FROM scripts WHERE script_name = '" + spec.ScriptName + "'"); err == nil {
		t.Error("SQL deleted a script that implementations still reference")
	}
}
