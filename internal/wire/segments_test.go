package wire

import (
	"bytes"
	"testing"
)

// TestBuilderSplicesLongBytes: a Builder's joined segments are the
// bytes the flat Append functions write, a byte string of SpliceMin or
// more is a segment of its own — the caller's slice, not a copy — and
// a shorter one is copied. A segment cut from the running buffer keeps
// its bytes while later appends grow the buffer past its capacity.
func TestBuilderSplicesLongBytes(t *testing.T) {
	short := bytes.Repeat([]byte{1}, SpliceMin-1)
	long := bytes.Repeat([]byte{2}, SpliceMin)
	var b Builder
	var flat []byte
	for i, p := range [][]byte{short, long, nil, long, short} {
		b.Buf = AppendString(b.Buf, "field")
		flat = AppendString(flat, "field")
		b.AppendBytes(p)
		flat = AppendBytes(flat, p)
		if i == 1 {
			// Grow the running buffer well past its capacity: the
			// segment already cut from it must not move or change.
			for j := 0; j < 4096; j++ {
				b.Buf = AppendUvarint(b.Buf, uint64(j))
				flat = AppendUvarint(flat, uint64(j))
			}
		}
	}
	segs := b.Segments()
	if got := Join(nil, segs); !bytes.Equal(got, flat) {
		t.Fatal("the joined segments differ from the flat encoding")
	}
	var spliced int
	for _, seg := range segs {
		switch {
		case len(seg) > 0 && &seg[0] == &long[0]:
			spliced++
		case len(seg) > 0 && &seg[0] == &short[0]:
			t.Fatal("a byte string under SpliceMin was spliced, not copied")
		}
	}
	if spliced != 2 {
		t.Fatalf("%d segments are the long slice, want 2", spliced)
	}
	if got, err := AppendFlat([]byte("x"), func(w *Builder) error {
		w.Buf = AppendString(w.Buf, "field")
		w.AppendBytes(long)
		return nil
	}); err != nil || !bytes.Equal(got, AppendBytes(AppendString([]byte("x"), "field"), long)) {
		t.Fatalf("AppendFlat = %d bytes, %v", len(got), err)
	}
	b.Reset()
	if len(b.Segments()) != 0 || len(b.Buf) != 0 {
		t.Fatal("Reset left a body behind")
	}
	for _, seg := range b.segs[:cap(b.segs)] {
		if seg != nil {
			t.Fatal("Reset kept a reference to a segment")
		}
	}
}
