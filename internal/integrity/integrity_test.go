package integrity

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/docdb"
	"repro/internal/relstore"
	"repro/internal/schema"
)

// mapResolver is a hand-built dependency fixture.
type mapResolver map[string][]string

func (m mapResolver) Dependents(kind, id, targetKind string) ([]string, error) {
	return m[kind+"/"+id+"->"+targetKind], nil
}

func TestAddLinkValidation(t *testing.T) {
	d := NewDiagram()
	d.AddNode("a")
	if err := d.AddLink(Link{From: "a", To: "b", Label: "x"}); !errors.Is(err, ErrUnknownKind) {
		t.Errorf("unknown target: %v", err)
	}
	if err := d.AddLink(Link{From: "z", To: "a", Label: "x"}); !errors.Is(err, ErrUnknownKind) {
		t.Errorf("unknown source: %v", err)
	}
	d.AddNode("b")
	if err := d.AddLink(Link{From: "a", To: "b", Label: "x", Mult: Plus}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddLink(Link{From: "a", To: "b", Label: "x", Mult: Star}); !errors.Is(err, ErrDupLink) {
		t.Errorf("duplicate: %v", err)
	}
}

func TestPropagateTwoLevels(t *testing.T) {
	d := NewDiagram()
	for _, k := range []string{"script", "impl", "html"} {
		d.AddNode(k)
	}
	d.AddLink(Link{From: "script", To: "impl", Label: "implements", Mult: Plus})
	d.AddLink(Link{From: "impl", To: "html", Label: "contains", Mult: Plus})
	r := mapResolver{
		"script/s1->impl": {"u1", "u2"},
		"impl/u1->html":   {"f1", "f2"},
		"impl/u2->html":   {"f3"},
	}
	alerts, err := d.Propagate(r, "script", "s1")
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 5 {
		t.Fatalf("alerts = %d, want 5 (2 impls + 3 html files)", len(alerts))
	}
	depths := map[int]int{}
	for _, a := range alerts {
		depths[a.Depth]++
	}
	if depths[1] != 2 || depths[2] != 3 {
		t.Errorf("depth histogram = %v", depths)
	}
}

func TestPropagateSharedDependentVisitedOnce(t *testing.T) {
	d := NewDiagram()
	for _, k := range []string{"a", "b", "c"} {
		d.AddNode(k)
	}
	d.AddLink(Link{From: "a", To: "b", Label: "l1", Mult: Star})
	d.AddLink(Link{From: "a", To: "c", Label: "l2", Mult: Star})
	d.AddLink(Link{From: "b", To: "c", Label: "l3", Mult: Star})
	// c1 is reachable directly and via b1 — it must be alerted once.
	r := mapResolver{
		"a/a1->b": {"b1"},
		"a/a1->c": {"c1"},
		"b/b1->c": {"c1"},
	}
	alerts, err := d.Propagate(r, "a", "a1")
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, a := range alerts {
		if a.TargetID == "c1" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("c1 alerted %d times, want 1", count)
	}
}

func TestPropagateCycleTerminates(t *testing.T) {
	d := NewDiagram()
	d.AddNode("a")
	d.AddNode("b")
	d.AddLink(Link{From: "a", To: "b", Label: "f", Mult: Star})
	d.AddLink(Link{From: "b", To: "a", Label: "g", Mult: Star})
	r := mapResolver{
		"a/x->b": {"y"},
		"b/y->a": {"x"}, // cycle back to the origin
	}
	alerts, err := d.Propagate(r, "a", "x")
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 1 {
		t.Fatalf("alerts = %v", alerts)
	}
}

func TestPropagateUnknownKind(t *testing.T) {
	d := NewDiagram()
	if _, err := d.Propagate(mapResolver{}, "nope", "x"); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("err = %v", err)
	}
}

func TestVerifyPlusViolation(t *testing.T) {
	d := NewDiagram()
	d.AddNode("script")
	d.AddNode("impl")
	d.AddLink(Link{From: "script", To: "impl", Label: "implements", Mult: Plus})
	violations, err := d.Verify(mapResolver{}, "script", "lonely")
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 1 {
		t.Fatalf("violations = %v", violations)
	}
	if violations[0].Link.Label != "implements" || violations[0].Count != 0 {
		t.Errorf("violation = %+v", violations[0])
	}
	if violations[0].String() == "" {
		t.Error("violation must render")
	}
	// Satisfied constraint produces no violation.
	r := mapResolver{"script/ok->impl": {"u"}}
	violations, err = d.Verify(r, "script", "ok")
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 0 {
		t.Errorf("violations = %v", violations)
	}
}

func TestQueuePushPendingAck(t *testing.T) {
	q := NewQueue()
	q.Push("shih", []Alert{{Message: "m1"}, {Message: "m2"}})
	q.Push("ma", []Alert{{Message: "m3"}})
	p := q.Pending("shih")
	if len(p) != 2 || p[0].ID == 0 {
		t.Fatalf("pending = %+v", p)
	}
	if !q.Ack("shih", p[0].ID) {
		t.Error("ack failed")
	}
	if q.Ack("shih", p[0].ID) {
		t.Error("double ack succeeded")
	}
	if len(q.Pending("shih")) != 1 {
		t.Errorf("pending after ack = %d", len(q.Pending("shih")))
	}
	if n := q.AckAll("ma"); n != 1 {
		t.Errorf("AckAll = %d", n)
	}
	if len(q.Pending("ma")) != 0 {
		t.Error("queue not cleared")
	}
}

func TestMultiplicityString(t *testing.T) {
	if One.String() != "1" || Plus.String() != "+" || Star.String() != "*" {
		t.Error("multiplicity rendering broken")
	}
}

// buildDocStore seeds a docdb with the canonical course shape.
func buildDocStore(t *testing.T) *docdb.Store {
	t.Helper()
	s, err := docdb.Open(relstore.NewDB(), blob.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	s.Now = func() time.Time { return time.Date(1999, 4, 21, 0, 0, 0, 0, time.UTC) }
	if err := s.CreateDatabase(docdb.Database{Name: "mmu"}); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateScript(docdb.Script{Name: "s1", DBName: "mmu"}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddImplementation(docdb.Implementation{StartingURL: "u1", ScriptName: "s1"}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutHTML("u1", "index.html", []byte("<html>1</html>")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutHTML("u1", "p2.html", []byte("<html>2</html>")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutProgram("u1", "a.java", "java", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AttachImplMedia("u1", "v.mpg", blob.KindVideo, []byte("vid")); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordTest(docdb.TestRecord{Name: "t1", ScriptName: "s1", StartingURL: "u1", Scope: "local"}); err != nil {
		t.Fatal(err)
	}
	if err := s.FileBugReport(docdb.BugReport{Name: "b1", TestName: "t1"}); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveAnnotation(docdb.Annotation{Name: "a1", ScriptName: "s1", StartingURL: "u1", Author: "ma"}); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDefaultDiagramOverDocDB(t *testing.T) {
	store := buildDocStore(t)
	d := Default()
	r := DocResolver{Store: store}

	alerts, err := d.Propagate(r, schema.KindScript, "s1")
	if err != nil {
		t.Fatal(err)
	}
	// Direct: impl u1, test t1, annotation a1. Via u1: 2 html, 1
	// program, 1 media, (t1 and a1 already seen). Via t1: bug b1.
	byKind := map[string]int{}
	for _, a := range alerts {
		byKind[a.TargetKind]++
	}
	want := map[string]int{
		schema.KindImplementation: 1,
		schema.KindTestRecord:     1,
		schema.KindAnnotation:     1,
		schema.KindHTMLFile:       2,
		schema.KindProgramFile:    1,
		schema.KindMedia:          1,
		schema.KindBugReport:      1,
	}
	for k, n := range want {
		if byKind[k] != n {
			t.Errorf("alerts for %s = %d, want %d (all: %v)", k, byKind[k], n, byKind)
		}
	}
	if len(alerts) != 8 {
		t.Errorf("total alerts = %d, want 8", len(alerts))
	}
}

func TestDefaultDiagramVerify(t *testing.T) {
	store := buildDocStore(t)
	d := Default()
	r := DocResolver{Store: store}
	// s1 has an implementation: no violations.
	v, err := d.Verify(r, schema.KindScript, "s1")
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 0 {
		t.Errorf("violations = %v", v)
	}
	// A fresh script with no implementation violates the "+" link.
	if err := store.CreateScript(docdb.Script{Name: "empty", DBName: "mmu"}); err != nil {
		t.Fatal(err)
	}
	v, err = d.Verify(r, schema.KindScript, "empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 1 {
		t.Errorf("violations = %v", v)
	}
}

func TestDocResolverUnknownPair(t *testing.T) {
	store := buildDocStore(t)
	r := DocResolver{Store: store}
	if _, err := r.Dependents(schema.KindBugReport, "b1", schema.KindScript); err == nil {
		t.Error("expected error for unresolvable pair")
	}
}

// Violation is a multiplicity constraint failure found by Verify.
type Violation struct {
	Kind  string
	ID    string
	Link  Link
	Count int
}

func (v Violation) String() string {
	return fmt.Sprintf("%s %s has %d %s dependents via %q, multiplicity %s requires at least one",
		v.Kind, v.ID, v.Count, v.Link.To, v.Link.Label, v.Link.Mult)
}

// Verify checks the "+" multiplicity constraints for one object: every
// Plus link must resolve to at least one dependent.
func (d *Diagram) Verify(r Resolver, kind, id string) ([]Violation, error) {
	if !d.nodes[kind] {
		return nil, fmt.Errorf("%w: %s", ErrUnknownKind, kind)
	}
	var out []Violation
	for _, l := range d.links[kind] {
		if l.Mult != Plus {
			continue
		}
		deps, err := r.Dependents(kind, id, l.To)
		if err != nil {
			return nil, err
		}
		if len(deps) == 0 {
			out = append(out, Violation{Kind: kind, ID: id, Link: l, Count: 0})
		}
	}
	return out, nil
}

// Ack removes one alert from a user's queue by id, reporting whether it
// was present.
func (q *Queue) Ack(user string, id int) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	alerts := q.pending[user]
	for i, a := range alerts {
		if a.ID == id {
			q.pending[user] = append(alerts[:i], alerts[i+1:]...)
			return true
		}
	}
	return false
}
