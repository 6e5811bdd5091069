// Package annotate models the instruction annotation daemon of the
// paper: instructors "draw lines, text, and simple graphic objects on
// the top of a Web page", and different instructors keep different
// annotations over the same virtual course. An annotation document is a
// timestamped stream of drawing primitives over one page; documents
// encode to a compact binary format (the "annotation files" stored in
// the Annotation table) and play back in time order for students.
package annotate

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"
)

// PrimKind enumerates drawing primitives.
type PrimKind uint8

// Drawing primitive kinds.
const (
	PrimLine PrimKind = iota + 1
	PrimText
	PrimRect
	PrimEllipse
	PrimFreehand
)

// String names the primitive.
func (k PrimKind) String() string {
	switch k {
	case PrimLine:
		return "line"
	case PrimText:
		return "text"
	case PrimRect:
		return "rect"
	case PrimEllipse:
		return "ellipse"
	case PrimFreehand:
		return "freehand"
	default:
		return fmt.Sprintf("PrimKind(%d)", uint8(k))
	}
}

// Point is a page coordinate.
type Point struct {
	X, Y int32
}

// Primitive is one drawing action with its offset from the start of the
// annotation session.
type Primitive struct {
	Kind   PrimKind
	At     time.Duration // offset from session start
	Points []Point       // line: 2, rect/ellipse: 2 (corners), freehand: n
	Text   string        // PrimText only
	Color  uint32        // 0xRRGGBB
	Width  uint8         // stroke width
}

// Document is one instructor's annotation of one page.
type Document struct {
	Author     string
	PageURL    string
	Primitives []Primitive
}

// Encoding errors.
var (
	ErrBadMagic   = errors.New("annotate: not an annotation file")
	ErrBadVersion = errors.New("annotate: unsupported annotation format version")
	ErrCorrupt    = errors.New("annotate: corrupt annotation file")
)

const (
	magic   = "MMUA"
	version = uint16(1)
	// maxReasonable guards length-prefixed reads against corrupt input.
	maxReasonable = 1 << 20
)

// Encode renders the document to the binary annotation-file format.
func (d *Document) Encode() []byte {
	var buf bytes.Buffer
	buf.WriteString(magic)
	writeU16(&buf, version)
	writeString(&buf, d.Author)
	writeString(&buf, d.PageURL)
	writeU32(&buf, uint32(len(d.Primitives)))
	for _, p := range d.Primitives {
		buf.WriteByte(byte(p.Kind))
		writeU64(&buf, uint64(p.At))
		writeU32(&buf, p.Color)
		buf.WriteByte(p.Width)
		writeU32(&buf, uint32(len(p.Points)))
		for _, pt := range p.Points {
			writeU32(&buf, uint32(pt.X))
			writeU32(&buf, uint32(pt.Y))
		}
		writeString(&buf, p.Text)
	}
	return buf.Bytes()
}

// Decode parses a binary annotation file.
func Decode(data []byte) (*Document, error) {
	r := bytes.NewReader(data)
	head := make([]byte, 4)
	if _, err := io.ReadFull(r, head); err != nil || string(head) != magic {
		return nil, ErrBadMagic
	}
	v, err := readU16(r)
	if err != nil {
		return nil, ErrCorrupt
	}
	if v != version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	var d Document
	if d.Author, err = readString(r); err != nil {
		return nil, ErrCorrupt
	}
	if d.PageURL, err = readString(r); err != nil {
		return nil, ErrCorrupt
	}
	n, err := readU32(r)
	if err != nil || n > maxReasonable {
		return nil, ErrCorrupt
	}
	d.Primitives = make([]Primitive, 0, n)
	for i := uint32(0); i < n; i++ {
		var p Primitive
		kind, err := r.ReadByte()
		if err != nil {
			return nil, ErrCorrupt
		}
		p.Kind = PrimKind(kind)
		at, err := readU64(r)
		if err != nil {
			return nil, ErrCorrupt
		}
		p.At = time.Duration(at)
		if p.Color, err = readU32(r); err != nil {
			return nil, ErrCorrupt
		}
		if p.Width, err = r.ReadByte(); err != nil {
			return nil, ErrCorrupt
		}
		np, err := readU32(r)
		if err != nil || np > maxReasonable {
			return nil, ErrCorrupt
		}
		p.Points = make([]Point, 0, np)
		for j := uint32(0); j < np; j++ {
			x, err := readU32(r)
			if err != nil {
				return nil, ErrCorrupt
			}
			y, err := readU32(r)
			if err != nil {
				return nil, ErrCorrupt
			}
			p.Points = append(p.Points, Point{X: int32(x), Y: int32(y)})
		}
		if p.Text, err = readString(r); err != nil {
			return nil, ErrCorrupt
		}
		d.Primitives = append(d.Primitives, p)
	}
	return &d, nil
}

// Merge overlays several instructors' annotations of the same page into
// one time-ordered stream, preserving each primitive's author through
// the returned parallel slice.
func Merge(docs ...*Document) ([]Primitive, []string) {
	type tagged struct {
		p      Primitive
		author string
	}
	var all []tagged
	for _, d := range docs {
		for _, p := range d.Primitives {
			all = append(all, tagged{p: p, author: d.Author})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].p.At < all[j].p.At })
	prims := make([]Primitive, len(all))
	authors := make([]string, len(all))
	for i, t := range all {
		prims[i] = t.p
		authors[i] = t.author
	}
	return prims, authors
}

// Validate checks structural invariants: primitives in supported kinds,
// line/rect/ellipse carrying exactly two points, text carrying at least
// one.
func (d *Document) Validate() error {
	for i, p := range d.Primitives {
		switch p.Kind {
		case PrimLine, PrimRect, PrimEllipse:
			if len(p.Points) != 2 {
				return fmt.Errorf("annotate: primitive %d (%s) has %d points, want 2", i, p.Kind, len(p.Points))
			}
		case PrimText:
			if len(p.Points) < 1 {
				return fmt.Errorf("annotate: primitive %d (text) has no anchor point", i)
			}
		case PrimFreehand:
			if len(p.Points) < 2 {
				return fmt.Errorf("annotate: primitive %d (freehand) has %d points, want >= 2", i, len(p.Points))
			}
		default:
			return fmt.Errorf("annotate: primitive %d has unknown kind %d", i, p.Kind)
		}
		if p.At < 0 {
			return fmt.Errorf("annotate: primitive %d has negative offset", i)
		}
	}
	return nil
}

func writeU16(w *bytes.Buffer, v uint16) {
	var b [2]byte
	binary.BigEndian.PutUint16(b[:], v)
	w.Write(b[:])
}

func writeU32(w *bytes.Buffer, v uint32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	w.Write(b[:])
}

func writeU64(w *bytes.Buffer, v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	w.Write(b[:])
}

func writeString(w *bytes.Buffer, s string) {
	writeU32(w, uint32(len(s)))
	w.WriteString(s)
}

func readU16(r *bytes.Reader) (uint16, error) {
	var b [2]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint16(b[:]), nil
}

func readU32(r *bytes.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b[:]), nil
}

func readU64(r *bytes.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b[:]), nil
}

func readString(r *bytes.Reader) (string, error) {
	n, err := readU32(r)
	if err != nil {
		return "", err
	}
	if n > maxReasonable {
		return "", ErrCorrupt
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}
