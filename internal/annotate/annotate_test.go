package annotate

import (
	"bytes"
	"errors"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func sampleDoc() *Document {
	return &Document{
		Author:  "Shih",
		PageURL: "http://mmu/intro/index.html",
		Primitives: []Primitive{
			{Kind: PrimLine, At: 2 * time.Second, Points: []Point{{0, 0}, {100, 50}}, Color: 0xFF0000, Width: 2},
			{Kind: PrimText, At: 5 * time.Second, Points: []Point{{10, 20}}, Text: "see figure 2", Color: 0x0000FF, Width: 1},
			{Kind: PrimRect, At: 1 * time.Second, Points: []Point{{5, 5}, {60, 40}}, Color: 0x00FF00, Width: 3},
			{Kind: PrimFreehand, At: 8 * time.Second, Points: []Point{{0, 0}, {1, 2}, {3, 4}}, Width: 1},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	d := sampleDoc()
	data := d.Encode()
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, got) {
		t.Errorf("round trip mismatch:\nwant %+v\ngot  %+v", d, got)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("not an annotation")); !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v", err)
	}
	if _, err := Decode(nil); !errors.Is(err, ErrBadMagic) {
		t.Errorf("nil: err = %v", err)
	}
}

func TestDecodeRejectsWrongVersion(t *testing.T) {
	data := sampleDoc().Encode()
	data[4] = 0xFF // clobber version
	if _, err := Decode(data); !errors.Is(err, ErrBadVersion) {
		t.Errorf("err = %v", err)
	}
}

func TestDecodeTruncatedFails(t *testing.T) {
	data := sampleDoc().Encode()
	for _, cut := range []int{5, 8, 12, len(data) / 2, len(data) - 1} {
		if _, err := Decode(data[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestDecodeHugeLengthRejected(t *testing.T) {
	// A corrupt primitive count must not cause a giant allocation.
	var buf bytes.Buffer
	buf.WriteString("MMUA")
	buf.Write([]byte{0, 1})                   // version
	buf.Write([]byte{0, 0, 0, 0})             // author len 0
	buf.Write([]byte{0, 0, 0, 0})             // url len 0
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // primitive count
	if _, err := Decode(buf.Bytes()); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v", err)
	}
}

func TestPlaybackWindowAndOrder(t *testing.T) {
	d := sampleDoc()
	got := d.Playback(0, 6*time.Second)
	if len(got) != 3 {
		t.Fatalf("playback = %d prims", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].At < got[i-1].At {
			t.Error("playback out of order")
		}
	}
	if got[0].Kind != PrimRect { // at 1s
		t.Errorf("first = %v", got[0].Kind)
	}
	// Window excludes the upper bound.
	got = d.Playback(5*time.Second, 8*time.Second)
	if len(got) != 1 || got[0].Kind != PrimText {
		t.Errorf("window = %+v", got)
	}
}

func TestDuration(t *testing.T) {
	if d := sampleDoc().Duration(); d != 8*time.Second {
		t.Errorf("duration = %v", d)
	}
	empty := &Document{}
	if empty.Duration() != 0 {
		t.Error("empty duration != 0")
	}
}

func TestMergePreservesAuthors(t *testing.T) {
	d1 := &Document{Author: "Shih", Primitives: []Primitive{
		{Kind: PrimLine, At: 3 * time.Second, Points: []Point{{0, 0}, {1, 1}}},
	}}
	d2 := &Document{Author: "Ma", Primitives: []Primitive{
		{Kind: PrimLine, At: 1 * time.Second, Points: []Point{{2, 2}, {3, 3}}},
		{Kind: PrimLine, At: 5 * time.Second, Points: []Point{{4, 4}, {5, 5}}},
	}}
	prims, authors := Merge(d1, d2)
	if len(prims) != 3 || len(authors) != 3 {
		t.Fatalf("merged = %d/%d", len(prims), len(authors))
	}
	if authors[0] != "Ma" || authors[1] != "Shih" || authors[2] != "Ma" {
		t.Errorf("authors = %v", authors)
	}
	if prims[0].At != time.Second {
		t.Errorf("order wrong: %v", prims[0].At)
	}
}

func TestBoundingBox(t *testing.T) {
	d := sampleDoc()
	min, max, ok := d.BoundingBox()
	if !ok {
		t.Fatal("no bbox")
	}
	if min.X != 0 || min.Y != 0 || max.X != 100 || max.Y != 50 {
		t.Errorf("bbox = %+v %+v", min, max)
	}
	empty := &Document{}
	if _, _, ok := empty.BoundingBox(); ok {
		t.Error("empty doc has bbox")
	}
}

func TestValidate(t *testing.T) {
	good := sampleDoc()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Document{
		{Primitives: []Primitive{{Kind: PrimLine, Points: []Point{{0, 0}}}}},
		{Primitives: []Primitive{{Kind: PrimText}}},
		{Primitives: []Primitive{{Kind: PrimFreehand, Points: []Point{{0, 0}}}}},
		{Primitives: []Primitive{{Kind: PrimKind(99), Points: []Point{{0, 0}, {1, 1}}}}},
		{Primitives: []Primitive{{Kind: PrimLine, At: -time.Second, Points: []Point{{0, 0}, {1, 1}}}}},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("bad doc %d validated", i)
		}
	}
}

// Property: encode/decode round-trips arbitrary (valid-shaped)
// documents.
func TestQuickEncodeDecode(t *testing.T) {
	f := func(author, url, text string, xs []int32, atRaw uint32, color uint32, width uint8) bool {
		points := make([]Point, 0, len(xs)+2)
		points = append(points, Point{0, 0}, Point{1, 1})
		for _, x := range xs {
			points = append(points, Point{X: x, Y: -x})
		}
		d := &Document{
			Author:  author,
			PageURL: url,
			Primitives: []Primitive{
				{Kind: PrimFreehand, At: time.Duration(atRaw), Points: points, Color: color, Width: width},
				{Kind: PrimText, At: time.Duration(atRaw) * 2, Points: []Point{{9, 9}}, Text: text},
			},
		}
		got, err := Decode(d.Encode())
		if err != nil {
			return false
		}
		return reflect.DeepEqual(d, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPrimKindString(t *testing.T) {
	names := map[PrimKind]string{
		PrimLine: "line", PrimText: "text", PrimRect: "rect",
		PrimEllipse: "ellipse", PrimFreehand: "freehand",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d = %s", k, k.String())
		}
	}
}

// Playback returns the primitives with offsets in [from, to), in time
// order, for the annotation playback the student subsystem performs.
func (d *Document) Playback(from, to time.Duration) []Primitive {
	out := make([]Primitive, 0, len(d.Primitives))
	for _, p := range d.Primitives {
		if p.At >= from && p.At < to {
			out = append(out, p)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Duration is the offset of the last primitive, i.e. the playback
// length.
func (d *Document) Duration() time.Duration {
	var max time.Duration
	for _, p := range d.Primitives {
		if p.At > max {
			max = p.At
		}
	}
	return max
}

// BoundingBox returns the smallest rectangle covering every point of
// the document, and false when the document draws nothing.
func (d *Document) BoundingBox() (min, max Point, ok bool) {
	for _, p := range d.Primitives {
		for _, pt := range p.Points {
			if !ok {
				min, max, ok = pt, pt, true
				continue
			}
			if pt.X < min.X {
				min.X = pt.X
			}
			if pt.Y < min.Y {
				min.Y = pt.Y
			}
			if pt.X > max.X {
				max.X = pt.X
			}
			if pt.Y > max.Y {
				max.Y = pt.Y
			}
		}
	}
	return min, max, ok
}
