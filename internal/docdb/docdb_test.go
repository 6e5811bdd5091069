package docdb

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/relstore"
	"repro/internal/schema"
)

// newStore builds a store with a deterministic clock.
func newStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(relstore.NewDB(), blob.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(1999, 4, 21, 9, 0, 0, 0, time.UTC)
	n := 0
	s.Now = func() time.Time {
		n++
		return base.Add(time.Duration(n) * time.Second)
	}
	return s
}

// seedCourse creates db -> script -> implementation with two HTML pages,
// one program and two media files.
func seedCourse(t *testing.T, s *Store) (scriptName, url string) {
	t.Helper()
	if err := s.CreateDatabase(Database{Name: "mmu", Keywords: []string{"virtual", "university"}, Author: "Shih"}); err != nil {
		t.Fatal(err)
	}
	sc := Script{
		Name:        "intro-cs",
		DBName:      "mmu",
		Keywords:    []string{"computer", "science"},
		Author:      "Shih",
		Description: "Introduction to computer science",
		PctComplete: 40,
	}
	if err := s.CreateScript(sc); err != nil {
		t.Fatal(err)
	}
	url = "http://mmu/intro-cs/v1"
	if err := s.AddImplementation(Implementation{StartingURL: url, ScriptName: "intro-cs", Author: "Shih"}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutHTML(url, "index.html", []byte("<html><a href=page2.html>next</a></html>")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutHTML(url, "page2.html", []byte("<html>two</html>")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutProgram(url, "quiz.java", "java", []byte("class Quiz {}")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AttachImplMedia(url, "lecture.wav", blob.KindAudio, bytes.Repeat([]byte("au"), 500)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AttachImplMedia(url, "diagram.gif", blob.KindImage, bytes.Repeat([]byte("im"), 200)); err != nil {
		t.Fatal(err)
	}
	return "intro-cs", url
}

func TestOpenInstallsSchemaOnce(t *testing.T) {
	rel := relstore.NewDB()
	if _, err := Open(rel, blob.NewStore()); err != nil {
		t.Fatal(err)
	}
	// A second Open over the same engine must not fail.
	if _, err := Open(rel, blob.NewStore()); err != nil {
		t.Fatal(err)
	}
}

func TestDatabaseRoundTrip(t *testing.T) {
	s := newStore(t)
	if err := s.CreateDatabase(Database{Name: "d", Keywords: []string{"k1", "k2"}, Author: "a"}); err != nil {
		t.Fatal(err)
	}
	got, err := s.Database("d")
	if err != nil {
		t.Fatal(err)
	}
	if got.Author != "a" || len(got.Keywords) != 2 || got.Version != 1 || got.Created.IsZero() {
		t.Errorf("got = %+v", got)
	}
}

func TestScriptRoundTripAndListing(t *testing.T) {
	s := newStore(t)
	seedCourse(t, s)
	sc, err := s.Script("intro-cs")
	if err != nil {
		t.Fatal(err)
	}
	if sc.DBName != "mmu" || sc.PctComplete != 40 || len(sc.Keywords) != 2 {
		t.Errorf("script = %+v", sc)
	}
	list, err := s.Scripts("mmu")
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Name != "intro-cs" {
		t.Errorf("list = %+v", list)
	}
	if err := s.SetProgress("intro-cs", 80); err != nil {
		t.Fatal(err)
	}
	sc, _ = s.Script("intro-cs")
	if sc.PctComplete != 80 {
		t.Errorf("pct = %v", sc.PctComplete)
	}
}

func TestScriptRequiresDatabase(t *testing.T) {
	s := newStore(t)
	err := s.CreateScript(Script{Name: "x", DBName: "ghost"})
	if !errors.Is(err, relstore.ErrFK) {
		t.Fatalf("err = %v", err)
	}
}

func TestFilesRoundTrip(t *testing.T) {
	s := newStore(t)
	_, url := seedCourse(t, s)
	got, err := s.HTML(url, "index.html")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(got, []byte("page2.html")) {
		t.Errorf("content = %q", got)
	}
	files, err := s.HTMLFiles(url)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Errorf("html files = %d", len(files))
	}
	progs, err := s.ProgramFiles(url)
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 1 || progs[0].Language != "java" {
		t.Errorf("programs = %+v", progs)
	}
	// PutHTML replaces on the same path.
	if err := s.PutHTML(url, "index.html", []byte("<html>new</html>")); err != nil {
		t.Fatal(err)
	}
	got, _ = s.HTML(url, "index.html")
	if !bytes.Equal(got, []byte("<html>new</html>")) {
		t.Errorf("replaced content = %q", got)
	}
	files, _ = s.HTMLFiles(url)
	if len(files) != 2 {
		t.Errorf("replace created a new row: %d files", len(files))
	}
}

func TestMediaAttachAndShare(t *testing.T) {
	s := newStore(t)
	_, url := seedCourse(t, s)
	media, err := s.ImplMedia(url)
	if err != nil {
		t.Fatal(err)
	}
	if len(media) != 2 {
		t.Fatalf("media = %d", len(media))
	}
	// Attaching identical content to another impl shares the BLOB.
	if err := s.AddImplementation(Implementation{StartingURL: "http://mmu/other", ScriptName: "intro-cs"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AttachImplMedia("http://mmu/other", "lecture.wav", blob.KindAudio, bytes.Repeat([]byte("au"), 500)); err != nil {
		t.Fatal(err)
	}
	st := s.Blobs().Stats()
	if st.DedupHits != 1 {
		t.Errorf("dedup hits = %d, want 1", st.DedupHits)
	}
	if st.Objects != 2 {
		t.Errorf("distinct objects = %d, want 2", st.Objects)
	}
}

func TestTestRecordAndBugReportChain(t *testing.T) {
	s := newStore(t)
	script, url := seedCourse(t, s)
	tr := TestRecord{
		Name:        "t1",
		ScriptName:  script,
		StartingURL: url,
		Scope:       "global",
		Messages:    []string{"open index.html", "click page2.html"},
	}
	if err := s.RecordTest(tr); err != nil {
		t.Fatal(err)
	}
	br := BugReport{
		Name:           "b1",
		TestName:       "t1",
		QAEngineer:     "Huang",
		BadURLs:        []string{"http://mmu/missing"},
		MissingObjects: []string{"ghost.gif"},
	}
	if err := s.FileBugReport(br); err != nil {
		t.Fatal(err)
	}
	recs, err := s.TestRecords(script)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || len(recs[0].Messages) != 2 {
		t.Fatalf("records = %+v", recs)
	}
	bugs, err := s.BugReports("t1")
	if err != nil {
		t.Fatal(err)
	}
	if len(bugs) != 1 || bugs[0].BadURLs[0] != "http://mmu/missing" {
		t.Fatalf("bugs = %+v", bugs)
	}
	// Bug reports require their test record.
	err = s.FileBugReport(BugReport{Name: "b2", TestName: "ghost"})
	if !errors.Is(err, relstore.ErrFK) {
		t.Errorf("err = %v", err)
	}
}

func TestAnnotationsPerInstructor(t *testing.T) {
	s := newStore(t)
	script, url := seedCourse(t, s)
	for _, author := range []string{"Shih", "Ma", "Huang"} {
		a := Annotation{
			Name:        "ann-" + author,
			ScriptName:  script,
			StartingURL: url,
			Author:      author,
			File:        []byte("encoded-" + author),
		}
		if err := s.SaveAnnotation(a); err != nil {
			t.Fatal(err)
		}
	}
	anns, err := s.Annotations(url)
	if err != nil {
		t.Fatal(err)
	}
	if len(anns) != 3 {
		t.Fatalf("annotations = %d, want 3 (different instructors annotate the same course)", len(anns))
	}
}

func TestCheckOutExclusive(t *testing.T) {
	s := newStore(t)
	script, _ := seedCourse(t, s)
	co, err := s.CheckOut(schema.KindScript, script, "shih")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CheckOut(schema.KindScript, script, "ma"); !errors.Is(err, ErrCheckedOut) {
		t.Fatalf("second checkout: err = %v", err)
	}
	if err := s.CheckIn(co, "revised section 2"); err != nil {
		t.Fatal(err)
	}
	// After check-in another user may check out.
	if _, err := s.CheckOut(schema.KindScript, script, "ma"); err != nil {
		t.Fatalf("checkout after checkin: %v", err)
	}
}

func TestCheckInBumpsVersions(t *testing.T) {
	s := newStore(t)
	script, _ := seedCourse(t, s)
	for i := 0; i < 3; i++ {
		co, err := s.CheckOut(schema.KindScript, script, "shih")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.CheckIn(co, "edit"); err != nil {
			t.Fatal(err)
		}
	}
	hist, err := s.History(schema.KindScript, script)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 3 {
		t.Fatalf("history = %d", len(hist))
	}
	for i, v := range hist {
		if v.Version != int64(i+1) {
			t.Errorf("version[%d] = %d", i, v.Version)
		}
	}
}

func TestCheckInTwiceFails(t *testing.T) {
	s := newStore(t)
	script, _ := seedCourse(t, s)
	co, _ := s.CheckOut(schema.KindScript, script, "shih")
	if err := s.CheckIn(co, "x"); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckIn(co, "y"); !errors.Is(err, ErrNotCheckedOut) {
		t.Fatalf("err = %v", err)
	}
}

func TestOutstandingAndCheckoutsOf(t *testing.T) {
	s := newStore(t)
	script, url := seedCourse(t, s)
	if _, err := s.CheckOut(schema.KindScript, script, "shih"); err != nil {
		t.Fatal(err)
	}
	co2, err := s.CheckOut(schema.KindImplementation, url, "shih")
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Outstanding("shih")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("outstanding = %d", len(out))
	}
	if err := s.CheckIn(co2, "done"); err != nil {
		t.Fatal(err)
	}
	out, _ = s.Outstanding("shih")
	if len(out) != 1 {
		t.Fatalf("outstanding after checkin = %d", len(out))
	}
	all, err := s.CheckoutsOf(schema.KindImplementation, url)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 || all[0].InTime.IsZero() {
		t.Errorf("checkouts of impl = %+v", all)
	}
}

func TestReplaceAnnotationBumpsVersion(t *testing.T) {
	s := newStore(t)
	script, url := seedCourse(t, s)
	a := Annotation{Name: "ann-1", ScriptName: script, StartingURL: url, Author: "Shih", File: []byte("v1")}
	if err := s.SaveAnnotation(a); err != nil {
		t.Fatal(err)
	}
	if err := s.ReplaceAnnotation("ann-1", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	anns, err := s.Annotations(url)
	if err != nil {
		t.Fatal(err)
	}
	if len(anns) != 1 || anns[0].Version != 2 || string(anns[0].File) != "v2" {
		t.Errorf("annotation = %+v", anns[0])
	}
	if err := s.ReplaceAnnotation("ghost", []byte("x")); !errors.Is(err, relstore.ErrNotFound) {
		t.Errorf("err = %v", err)
	}
}

// TestCheckoutPairCostIndependentOfHistory: a component's check-out /
// check-in pair must cost the same on its 2000th edit as on its first.
// The ledger used to read the component's whole checkout and version
// history on every pair, so the cost grew with every edit (10x and
// more by the end of this run). A window is only a millisecond of
// work, which a busy machine can stretch, so the timing gets three
// attempts; growth with history fails every one of them.
func TestCheckoutPairCostIndependentOfHistory(t *testing.T) {
	const pairs, window, attempts = 2000, 100, 3
	median := func(d []time.Duration) time.Duration {
		d = slices.Clone(d)
		slices.Sort(d)
		return d[len(d)/2]
	}
	var first, last time.Duration
	for attempt := 0; attempt < attempts; attempt++ {
		s := newStore(t)
		script, _ := seedCourse(t, s)
		took := make([]time.Duration, pairs)
		for i := range took {
			start := time.Now()
			co, err := s.CheckOut(schema.KindScript, script, "shih")
			if err != nil {
				t.Fatal(err)
			}
			if err := s.CheckIn(co, "edit"); err != nil {
				t.Fatal(err)
			}
			took[i] = time.Since(start)
		}
		hist, err := s.History(schema.KindScript, script)
		if err != nil || len(hist) != pairs || hist[pairs-1].Version != pairs {
			t.Fatalf("history: %d versions (err %v), want 1..%d", len(hist), err, pairs)
		}
		if all, err := s.CheckoutsOf(schema.KindScript, script); err != nil || len(all) != pairs {
			t.Fatalf("ledger: %d checkouts (err %v), want %d", len(all), err, pairs)
		}
		first, last = median(took[:window]), median(took[pairs-window:])
		if last <= 2*first {
			return
		}
	}
	t.Errorf("pair cost grew with history in %d attempts: median %v over the first %d pairs, %v over the last %d",
		attempts, first, window, last, window)
}
