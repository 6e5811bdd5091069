package docdb

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/blob"

	"repro/internal/relstore"
	"repro/internal/schema"
	"repro/internal/wire"
)

func TestInstanceAndReferenceForms(t *testing.T) {
	s := newStore(t)
	_, url := seedCourse(t, s)
	inst, err := s.NewInstance(url, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Form != schema.FormInstance || inst.Station != 1 || !inst.Persistent {
		t.Errorf("inst = %+v", inst)
	}
	got, err := s.ObjectByURL(url)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != inst.ID {
		t.Errorf("ObjectByURL = %+v", got)
	}
	ref, err := s.MakeReference(url, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Form != schema.FormReference || ref.Origin != 1 {
		t.Errorf("ref = %+v", ref)
	}
	refs, err := s.ObjectsByForm(schema.FormReference)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 1 {
		t.Errorf("references = %d", len(refs))
	}
}

func TestDeclareClassAndInstantiateSharesBLOBs(t *testing.T) {
	s := newStore(t)
	_, url := seedCourse(t, s)
	inst, err := s.NewInstance(url, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	before := s.Blobs().Stats()

	class, err := s.DeclareClass(inst.ID)
	if err != nil {
		t.Fatal(err)
	}
	if class.Form != schema.FormClass {
		t.Fatalf("class = %+v", class)
	}
	// The instance now points at its class.
	inst2, _ := s.Object(inst.ID)
	if inst2.ClassID != class.ID {
		t.Errorf("instance class_id = %q, want %q", inst2.ClassID, class.ID)
	}

	newObj, err := s.Instantiate(class.ID, "http://mmu/intro-cs/v2", 1)
	if err != nil {
		t.Fatal(err)
	}
	if newObj.ClassID != class.ID {
		t.Errorf("new instance class = %q", newObj.ClassID)
	}
	// Structure copied: same HTML and program files under the new URL.
	html, err := s.HTMLFiles("http://mmu/intro-cs/v2")
	if err != nil {
		t.Fatal(err)
	}
	if len(html) != 2 {
		t.Errorf("copied html = %d", len(html))
	}
	media, err := s.ImplMedia("http://mmu/intro-cs/v2")
	if err != nil {
		t.Fatal(err)
	}
	if len(media) != 2 {
		t.Errorf("shared media = %d", len(media))
	}
	// No BLOB bytes were duplicated: physical bytes unchanged.
	after := s.Blobs().Stats()
	if after.PhysicalBytes != before.PhysicalBytes {
		t.Errorf("physical bytes grew from %d to %d during Instantiate", before.PhysicalBytes, after.PhysicalBytes)
	}
	if after.LogicalBytes <= before.LogicalBytes {
		t.Errorf("logical bytes should grow with sharing: %d -> %d", before.LogicalBytes, after.LogicalBytes)
	}
}

func TestDeclareClassRequiresInstance(t *testing.T) {
	s := newStore(t)
	_, url := seedCourse(t, s)
	ref, err := s.MakeReference(url, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.DeclareClass(ref.ID); !errors.Is(err, ErrWrongForm) {
		t.Fatalf("err = %v", err)
	}
}

func TestInstantiateRequiresClass(t *testing.T) {
	s := newStore(t)
	_, url := seedCourse(t, s)
	inst, _ := s.NewInstance(url, 1, true)
	if _, err := s.Instantiate(inst.ID, "http://x", 1); !errors.Is(err, ErrWrongForm) {
		t.Fatalf("err = %v", err)
	}
}

func TestDuplicateComponentCopiesSmallSharesBig(t *testing.T) {
	s := newStore(t)
	_, url := seedCourse(t, s)
	before := s.Blobs().Stats()
	if err := s.DuplicateComponent(url, "http://mmu/copy", "Ma"); err != nil {
		t.Fatal(err)
	}
	// HTML is physically copied (mutating the copy leaves the original).
	if err := s.PutHTML("http://mmu/copy", "index.html", []byte("<html>changed</html>")); err != nil {
		t.Fatal(err)
	}
	orig, _ := s.HTML(url, "index.html")
	if bytes.Equal(orig, []byte("<html>changed</html>")) {
		t.Error("editing the duplicate changed the original HTML")
	}
	// BLOBs are shared, not copied.
	after := s.Blobs().Stats()
	if after.PhysicalBytes != before.PhysicalBytes {
		t.Errorf("duplicate copied BLOB bytes: %d -> %d", before.PhysicalBytes, after.PhysicalBytes)
	}
}

func TestMigrateToReferenceFreesContent(t *testing.T) {
	s := newStore(t)
	_, url := seedCourse(t, s)
	inst, err := s.NewInstance(url, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	resident, err := s.ResidentBytes(url)
	if err != nil {
		t.Fatal(err)
	}
	if resident == 0 {
		t.Fatal("expected resident content")
	}
	if err := s.MigrateToReference(inst.ID, 1); err != nil {
		t.Fatal(err)
	}
	obj, _ := s.Object(inst.ID)
	if obj.Form != schema.FormReference || obj.Origin != 1 {
		t.Errorf("after migrate = %+v", obj)
	}
	resident, _ = s.ResidentBytes(url)
	if resident != 0 {
		t.Errorf("resident after migrate = %d, want 0", resident)
	}
	if st := s.Blobs().Stats(); st.PhysicalBytes != 0 {
		t.Errorf("blob bytes after migrate = %d, want 0 (buffer space reclaimed)", st.PhysicalBytes)
	}
	// The implementation row survives (references still resolve).
	if _, err := s.Implementation(url); err != nil {
		t.Errorf("implementation row lost: %v", err)
	}
}

func TestMigratePersistentRefused(t *testing.T) {
	s := newStore(t)
	_, url := seedCourse(t, s)
	inst, _ := s.NewInstance(url, 1, true)
	if err := s.MigrateToReference(inst.ID, 1); !errors.Is(err, ErrWrongForm) {
		t.Fatalf("err = %v", err)
	}
}

func TestExportImportBundleRoundTrip(t *testing.T) {
	src := newStore(t)
	_, url := seedCourse(t, src)
	if _, err := src.NewInstance(url, 1, true); err != nil {
		t.Fatal(err)
	}
	if err := src.SaveAnnotation(Annotation{Name: "a1", ScriptName: "intro-cs", StartingURL: url, Author: "Shih", File: []byte("enc")}); err != nil {
		t.Fatal(err)
	}
	b, err := src.ExportBundle(url)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.HTML) != 2 || len(b.Programs) != 1 || len(b.Media) != 2 || len(b.Annotations) != 1 {
		t.Fatalf("bundle = %d html, %d prog, %d media, %d ann",
			len(b.HTML), len(b.Programs), len(b.Media), len(b.Annotations))
	}
	if b.TotalBytes() <= 0 {
		t.Error("bundle size must be positive")
	}

	dst := newStore(t)
	obj, err := dst.ImportBundle(b, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Form != schema.FormInstance || obj.Station != 7 || obj.Persistent {
		t.Errorf("imported obj = %+v", obj)
	}
	html, err := dst.HTML(url, "index.html")
	if err != nil {
		t.Fatal(err)
	}
	srcHTML, _ := src.HTML(url, "index.html")
	if !bytes.Equal(html, srcHTML) {
		t.Error("HTML content differs after import")
	}
	media, _ := dst.ImplMedia(url)
	if len(media) != 2 {
		t.Errorf("imported media = %d", len(media))
	}
	anns, _ := dst.Annotations(url)
	if len(anns) != 1 {
		t.Errorf("imported annotations = %d", len(anns))
	}
}

// TestBundleWireRoundTrip: an exported bundle survives the binary
// body codec field for field, installs from the decoded form, and
// every truncation of the encoding is reported through the reader.
func TestBundleWireRoundTrip(t *testing.T) {
	src := newStore(t)
	_, url := seedCourse(t, src)
	if err := src.SaveAnnotation(Annotation{Name: "a1", ScriptName: "intro-cs", StartingURL: url, Author: "Shih", File: []byte("enc")}); err != nil {
		t.Fatal(err)
	}
	want, err := src.ExportBundle(url)
	if err != nil {
		t.Fatal(err)
	}
	enc := AppendBundle(nil, want)
	r := wire.NewReader(enc)
	got := ReadBundle(r)
	if r.Err() != nil || r.Len() != 0 {
		t.Fatalf("decode: err %v, %d bytes left", r.Err(), r.Len())
	}
	if !reflect.DeepEqual(&got, want) {
		t.Fatalf("round trip changed the bundle:\n got %+v\nwant %+v", got, *want)
	}
	if _, err := newStore(t).ImportBundle(&got, 7, false); err != nil {
		t.Fatalf("importing the decoded bundle: %v", err)
	}
	for n := 0; n < len(enc); n++ {
		r := wire.NewReader(enc[:n:n])
		ReadBundle(r)
		if !errors.Is(r.Err(), wire.ErrCorrupt) {
			t.Fatalf("bundle cut to %d of %d bytes: err = %v", n, len(enc), r.Err())
		}
	}
}

func TestImportBundleIdempotent(t *testing.T) {
	src := newStore(t)
	_, url := seedCourse(t, src)
	b, err := src.ExportBundle(url)
	if err != nil {
		t.Fatal(err)
	}
	dst := newStore(t)
	if _, err := dst.ImportBundle(b, 2, false); err != nil {
		t.Fatal(err)
	}
	st1 := dst.Blobs().Stats()
	if _, err := dst.ImportBundle(b, 2, false); err != nil {
		t.Fatal(err)
	}
	st2 := dst.Blobs().Stats()
	if st1 != st2 {
		t.Errorf("double import changed accounting: %+v -> %+v", st1, st2)
	}
	media, _ := dst.ImplMedia(url)
	if len(media) != 2 {
		t.Errorf("media rows after double import = %d, want 2", len(media))
	}
}

// TestImportBundleAtomic: an import that fails part-way — here on an
// annotation whose script does not exist — leaves no media rows, no
// instance and no BLOB references behind, so a retry of the fixed
// bundle installs exactly one descriptor per medium.
func TestImportBundleAtomic(t *testing.T) {
	src := newStore(t)
	_, url := seedCourse(t, src)
	b, err := src.ExportBundle(url)
	if err != nil {
		t.Fatal(err)
	}
	good := b.Annotations
	b.Annotations = append(good, Annotation{Name: "stray", ScriptName: "no-such-script", StartingURL: url, File: []byte("x")})
	dst := newStore(t)
	before := dst.Blobs().Stats()
	if _, err := dst.ImportBundle(b, 2, false); !errors.Is(err, relstore.ErrFK) {
		t.Fatalf("import with a dangling annotation: err = %v, want a foreign key violation", err)
	}
	media, err := dst.ImplMedia(url)
	if err != nil {
		t.Fatal(err)
	}
	after := dst.Blobs().Stats()
	if len(media) != 0 || after.Objects != before.Objects ||
		after.PhysicalBytes != before.PhysicalBytes || after.LogicalBytes != before.LogicalBytes {
		t.Fatalf("failed import left %d media rows and BLOB stats %+v (before %+v)", len(media), after, before)
	}
	if _, err := dst.ObjectByURL(url); err == nil {
		t.Fatal("failed import left an object behind")
	}

	b.Annotations = good
	if _, err := dst.ImportBundle(b, 2, false); err != nil {
		t.Fatal(err)
	}
	media, err = dst.ImplMedia(url)
	if err != nil {
		t.Fatal(err)
	}
	if len(media) != len(b.Media) {
		t.Fatalf("media rows after the retry = %d, want %d", len(media), len(b.Media))
	}
	var want int64
	for _, m := range b.Media {
		want += int64(len(m.Data))
	}
	if got := dst.Blobs().Stats().LogicalBytes; got != want {
		t.Fatalf("LogicalBytes after the retry = %d, want %d", got, want)
	}
}

func TestImportUpgradesReferenceToInstance(t *testing.T) {
	src := newStore(t)
	_, url := seedCourse(t, src)
	b, err := src.ExportBundle(url)
	if err != nil {
		t.Fatal(err)
	}
	dst := newStore(t)
	// The station first learns about the document via a broadcast
	// reference; it needs the impl row for the FK, which ImportBundle
	// would create — simulate the reference-only state.
	if err := dst.CreateDatabase(Database{Name: "mmu"}); err != nil {
		t.Fatal(err)
	}
	if err := dst.CreateScript(Script{Name: "intro-cs", DBName: "mmu"}); err != nil {
		t.Fatal(err)
	}
	if err := dst.AddImplementation(Implementation{StartingURL: url, ScriptName: "intro-cs"}); err != nil {
		t.Fatal(err)
	}
	ref, err := dst.MakeReference(url, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := dst.ImportBundle(b, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if obj.ID != ref.ID {
		t.Errorf("import created a new object %s instead of upgrading %s", obj.ID, ref.ID)
	}
	if obj.Form != schema.FormInstance {
		t.Errorf("form = %s", obj.Form)
	}
}

func TestExportBundleMissingImpl(t *testing.T) {
	s := newStore(t)
	if _, err := s.ExportBundle("http://nope"); !errors.Is(err, relstore.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestResidentBytesCountsAllLayers(t *testing.T) {
	s := newStore(t)
	_, url := seedCourse(t, s)
	got, err := s.ResidentBytes(url)
	if err != nil {
		t.Fatal(err)
	}
	// 2 html files + 1 program + 2 media (1000 + 400 bytes).
	want := int64(len("<html><a href=page2.html>next</a></html>")+len("<html>two</html>")+len("class Quiz {}")) + 1000 + 400
	if got != want {
		t.Errorf("resident = %d, want %d", got, want)
	}
}

func TestMigrateNonInstanceRefused(t *testing.T) {
	s := newStore(t)
	_, url := seedCourse(t, s)
	ref, _ := s.MakeReference(url, 2, 1)
	if err := s.MigrateToReference(ref.ID, 1); !errors.Is(err, ErrWrongForm) {
		t.Fatalf("err = %v", err)
	}
}

func TestDeleteImplementationCascades(t *testing.T) {
	s := newStore(t)
	script, url := seedCourse(t, s)
	if _, err := s.NewInstance(url, 1, true); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordTest(TestRecord{Name: "t1", ScriptName: script, StartingURL: url, Scope: "global"}); err != nil {
		t.Fatal(err)
	}
	if err := s.FileBugReport(BugReport{Name: "b1", TestName: "t1"}); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveAnnotation(Annotation{Name: "a1", ScriptName: script, StartingURL: url}); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteImplementation(url); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Implementation(url); !errors.Is(err, relstore.ErrNotFound) {
		t.Errorf("impl survives: %v", err)
	}
	if st := s.Blobs().Stats(); st.PhysicalBytes != 0 {
		t.Errorf("blob bytes = %d after delete", st.PhysicalBytes)
	}
	if recs, _ := s.TestRecords(script); len(recs) != 0 {
		t.Errorf("test records survive: %+v", recs)
	}
	if _, err := s.ObjectByURL(url); err == nil {
		t.Error("doc object survives")
	}
	// The script itself survives.
	if _, err := s.Script(script); err != nil {
		t.Errorf("script lost: %v", err)
	}
}

func TestDeleteImplementationUnknown(t *testing.T) {
	s := newStore(t)
	if err := s.DeleteImplementation("http://ghost"); !errors.Is(err, relstore.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestDeleteScriptCascades(t *testing.T) {
	s := newStore(t)
	script, url := seedCourse(t, s)
	if _, err := s.AttachScriptMedia(script, "verbal.wav", blob.KindAudio, []byte("narration")); err != nil {
		t.Fatal(err)
	}
	// A second implementation of the same script.
	if err := s.DuplicateComponent(url, "http://mmu/second", "Ma"); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteScript(script); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Script(script); !errors.Is(err, relstore.ErrNotFound) {
		t.Errorf("script survives: %v", err)
	}
	if st := s.Blobs().Stats(); st.PhysicalBytes != 0 {
		t.Errorf("blob bytes = %d after script delete", st.PhysicalBytes)
	}
	// The database row survives and can host new scripts.
	if err := s.CreateScript(Script{Name: "fresh", DBName: "mmu"}); err != nil {
		t.Errorf("database unusable after delete: %v", err)
	}
}
