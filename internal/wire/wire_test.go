package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

// canonicalValues holds every kind AppendValue accepts, the relational
// engine's canonical set, with its edge values. A kind AppendValue
// gains goes here too, or no round-trip or tag test sees it.
var canonicalValues = []any{
	nil,
	int64(0), int64(1), int64(-1), int64(math.MaxInt64), int64(math.MinInt64),
	float64(0), 3.14159, math.Inf(1), math.Inf(-1), -0.0,
	"", "hello", "héllo wörld \x00 with bytes",
	[]byte(nil), []byte{0xDE, 0xAD, 0xBE, 0xEF}, bytes.Repeat([]byte{7}, 4096),
	true, false,
	time.Unix(0, 0).UTC(),
	time.Date(1999, 9, 21, 12, 30, 45, 123456789, time.UTC),
	time.Date(1600, 1, 1, 0, 0, 0, 999999999, time.UTC), // pre-Unix, beyond UnixNano range is fine too
	time.Date(2400, 6, 15, 8, 0, 0, 1, time.UTC),
}

func TestValueRoundTrip(t *testing.T) {
	var buf []byte
	for _, v := range canonicalValues {
		var err error
		buf, err = AppendValue(buf, v)
		if err != nil {
			t.Fatalf("AppendValue(%#v): %v", v, err)
		}
	}
	r := NewReader(buf)
	for _, want := range canonicalValues {
		got := r.Value()
		if r.Err() != nil {
			t.Fatalf("decoding %#v: %v", want, r.Err())
		}
		switch w := want.(type) {
		case []byte:
			if !bytes.Equal(got.([]byte), w) && !(len(w) == 0 && got == nil) {
				t.Fatalf("bytes round trip: got %v want %v", got, w)
			}
		case time.Time:
			if !got.(time.Time).Equal(w) {
				t.Fatalf("time round trip: got %v want %v", got, w)
			}
		default:
			if got != want {
				t.Fatalf("round trip: got %#v want %#v", got, want)
			}
		}
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes left over", r.Len())
	}
}

// TestValueTagsMatchTheDecoder keeps the codec's two tag tables in
// lockstep: the first bytes AppendValue writes for the canonical set
// are exactly the first bytes Value and ValueIn decode. A kind that is
// written but has no decode arm produces values a peer or a restart
// rejects as corrupt; a decode arm nothing writes is dead dispatch.
// Each tag is followed by eight zero bytes, a payload every kind's
// decoder accepts (a zero int, float, length or instant).
func TestValueTagsMatchTheDecoder(t *testing.T) {
	written := map[byte]bool{}
	for _, v := range canonicalValues {
		b, err := AppendValue(nil, v)
		if err != nil {
			t.Fatalf("AppendValue(%#v): %v", v, err)
		}
		written[b[0]] = true
	}
	for tag := 0; tag < 256; tag++ {
		in := append([]byte{byte(tag)}, make([]byte, 8)...)
		r, ri := NewReader(in), NewReader(in)
		r.Value()
		ri.ValueIn(new(Interner))
		for _, got := range []struct {
			decoder string
			err     error
		}{{"Value", r.Err()}, {"ValueIn", ri.Err()}} {
			switch {
			case written[byte(tag)] && got.err != nil:
				t.Errorf("%s rejects tag %d, which AppendValue writes: %v", got.decoder, tag, got.err)
			case !written[byte(tag)] && got.err == nil:
				t.Errorf("%s decodes tag %d, which AppendValue never writes", got.decoder, tag)
			case !written[byte(tag)] && (!errors.Is(got.err, ErrCorrupt) || !strings.Contains(got.err.Error(), "unknown value tag")):
				t.Errorf("%s on tag %d: err = %v, want ErrCorrupt for an unknown value tag", got.decoder, tag, got.err)
			}
		}
	}
}

// TestValueInSharesOnlyStrings: ValueIn decodes what Value decodes; a
// string it has met before comes back without an allocation, as the
// boxed value the interner holds, while []byte values are never
// shared. Two strings that share a slot, decoded alternately, each
// come back as themselves.
func TestValueInSharesOnlyStrings(t *testing.T) {
	values := []any{"lecture", []byte("media"), int64(700), "lecture", []byte("media"), nil, 2.5, true,
		time.Date(1999, 9, 21, 12, 30, 45, 0, time.UTC)}
	buf := appendValues(t, values...)
	var in Interner
	r := NewReader(buf)
	var got []any
	for range values {
		got = append(got, r.ValueIn(&in))
	}
	if r.Err() != nil || r.Len() != 0 {
		t.Fatalf("decode: err %v, %d bytes left", r.Err(), r.Len())
	}
	for i, want := range values {
		if fmt.Sprint(got[i]) != fmt.Sprint(want) {
			t.Errorf("value %d = %#v, want %#v", i, got[i], want)
		}
	}
	if held := in.slots[internSlot([]byte("lecture"))]; held != "lecture" {
		t.Errorf("the string's slot holds %#v, want the string", held)
	}
	got[1].([]byte)[0] = 'M'
	if string(got[4].([]byte)) != "media" {
		t.Errorf("a []byte decoded later shares the first one's bytes: %q", got[4])
	}
	again := buf[:len("lecture")+2]
	if n := testing.AllocsPerRun(100, func() {
		r := Reader{buf: again}
		if r.ValueIn(&in) != "lecture" {
			t.Fatal("repeated string decoded wrong")
		}
	}); n != 0 {
		t.Errorf("a repeated string allocates %.0f objects, want 0", n)
	}

	a, b := collidingStrings(t)
	alternate := appendValues(t, a, b, a, b)
	r = NewReader(alternate)
	for i, want := range []string{a, b, a, b} {
		if v := r.ValueIn(&in); v != want {
			t.Errorf("string %d of a colliding pair decoded as %#v, want %q", i, v, want)
		}
	}
	if r.Err() != nil || r.Len() != 0 {
		t.Fatalf("decoding a colliding pair: err %v, %d bytes left", r.Err(), r.Len())
	}
}

// TestStringInShares: StringIn reads what String reads, and a string
// it has met before comes back without an allocation.
func TestStringInShares(t *testing.T) {
	buf := AppendString(AppendString(nil, "scripts"), "scripts")
	var in Interner
	r := NewReader(buf)
	if a, b := r.StringIn(&in), r.StringIn(&in); a != "scripts" || b != "scripts" || r.Err() != nil || r.Len() != 0 {
		t.Fatalf("StringIn = %q, %q (err %v, %d bytes left)", a, b, r.Err(), r.Len())
	}
	if n := testing.AllocsPerRun(100, func() {
		r := Reader{buf: buf}
		if r.StringIn(&in) != "scripts" {
			t.Fatal("repeated string decoded wrong")
		}
	}); n != 0 {
		t.Errorf("a repeated string allocates %.0f objects, want 0", n)
	}
	r = NewReader(buf[:3])
	if s := r.StringIn(&in); s != "" || !errors.Is(r.Err(), ErrCorrupt) {
		t.Errorf("a truncated string = %q, %v; want \"\" and ErrCorrupt", s, r.Err())
	}
}

// appendValues encodes values one after another.
func appendValues(tb testing.TB, values ...any) []byte {
	tb.Helper()
	var buf []byte
	for _, v := range values {
		var err error
		if buf, err = AppendValue(buf, v); err != nil {
			tb.Fatal(err)
		}
	}
	return buf
}

// collidingStrings finds two distinct strings that hash to one
// interner slot.
func collidingStrings(tb testing.TB) (string, string) {
	tb.Helper()
	seen := make(map[int]string)
	for i := 0; i < 4*internSlots; i++ {
		s := fmt.Sprintf("course-%03d", i)
		slot := internSlot([]byte(s))
		if prev, ok := seen[slot]; ok {
			return prev, s
		}
		seen[slot] = s
	}
	tb.Fatal("no two strings share a slot")
	return "", ""
}

// FuzzValueIn: decoding any input value by value through ValueIn, with
// one Interner for the whole input, gives what Value gives at every
// step: the same type, the same value, the same error and the same
// offset.
func FuzzValueIn(f *testing.F) {
	a, b := collidingStrings(f)
	f.Add(appendValues(f, a, b, a, b, a))
	f.Add(appendValues(f, a, []byte(b), b, []byte(a), a))
	f.Add(appendValues(f, "lecture", []byte("media"), int64(700), "lecture", nil, 2.5, true, false,
		time.Date(1999, 9, 21, 12, 30, 45, 0, time.UTC), "", ""))
	f.Add(appendValues(f, a, b)[:len(a)+3])
	f.Add([]byte{tagStr})
	f.Add([]byte{0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		var in Interner
		plain, interned := NewReader(data), NewReader(data)
		for step := 0; plain.Err() == nil && plain.Len() > 0; step++ {
			want, got := plain.Value(), interned.ValueIn(&in)
			if !sameValue(got, want) {
				t.Fatalf("step %d: ValueIn = %#v, Value = %#v", step, got, want)
			}
			if fmt.Sprint(interned.Err()) != fmt.Sprint(plain.Err()) || interned.Len() != plain.Len() {
				t.Fatalf("step %d: ValueIn left (%v, %d bytes), Value (%v, %d bytes)", step, interned.Err(), interned.Len(), plain.Err(), plain.Len())
			}
		}
	})
}

// sameValue reports whether two decoded values have one type and one
// value; floats compare by their bits, so NaN equals itself.
func sameValue(a, b any) bool {
	if fmt.Sprintf("%T", a) != fmt.Sprintf("%T", b) {
		return false
	}
	switch x := a.(type) {
	case []byte:
		y := b.([]byte)
		return bytes.Equal(x, y) && (x == nil) == (y == nil)
	case float64:
		return math.Float64bits(x) == math.Float64bits(b.(float64))
	case time.Time:
		return x.Equal(b.(time.Time)) && x.Location() == b.(time.Time).Location()
	default:
		return a == b
	}
}

func TestValueRejectsUnknownType(t *testing.T) {
	if _, err := AppendValue(nil, struct{ X int }{1}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestReaderTruncation(t *testing.T) {
	full, err := AppendValue(nil, "a string long enough to truncate")
	if err != nil {
		t.Fatal(err)
	}
	// Every proper prefix must fail with ErrCorrupt, never panic.
	for i := 0; i < len(full); i++ {
		r := NewReader(full[:i])
		r.Value()
		if r.Err() == nil {
			t.Fatalf("prefix of %d bytes decoded without error", i)
		}
		if !errors.Is(r.Err(), ErrCorrupt) {
			t.Fatalf("prefix of %d bytes: err = %v, want ErrCorrupt", i, r.Err())
		}
	}
}

func TestReaderLyingLength(t *testing.T) {
	// A string claiming far more bytes than the buffer holds must not
	// allocate the claimed size or read out of bounds.
	buf := AppendUvarint([]byte{tagStr}[:1], 1<<40)
	r := NewReader(buf)
	r.Value()
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", r.Err())
	}
}

// TestTypedFieldHelpers covers the untagged field codecs the bundle
// body is built from: times, floats, element counts and aliasing views.
func TestTypedFieldHelpers(t *testing.T) {
	at := time.Date(1999, 4, 21, 8, 0, 0, 987654321, time.FixedZone("CST", 8*3600))
	buf := AppendTime(nil, at)
	buf = AppendTime(buf, time.Time{})
	buf = AppendFloat64(buf, 62.5)
	buf = AppendUvarint(buf, 2) // a count of two one-byte elements
	buf = append(buf, 7, 9)
	buf = AppendBytes(buf, []byte("media"))
	buf = AppendBytes(buf, nil)

	r := NewReader(buf)
	if got := r.Time(); !got.Equal(at) || got.Location() != time.UTC {
		t.Errorf("time = %v, want %v in UTC", got, at)
	}
	if got := r.Time(); !got.IsZero() {
		t.Errorf("zero time came back as %v", got)
	}
	if got := r.Float64(); got != 62.5 {
		t.Errorf("float = %v", got)
	}
	if n := r.Count(); n != 2 || r.Byte() != 7 || r.Byte() != 9 {
		t.Errorf("count = %d", n)
	}
	view := r.View()
	if string(view) != "media" || &view[0] != &buf[len(buf)-6] {
		t.Errorf("View = %q; it must alias the reader's buffer", view)
	}
	if cap(view) != len(view) {
		t.Error("an append to a View could overwrite the bytes after it")
	}
	if got := r.View(); got != nil || r.Err() != nil || r.Len() != 0 {
		t.Errorf("empty view = %v, err %v, %d bytes left", got, r.Err(), r.Len())
	}

	// A count can never exceed the bytes that would have to carry its
	// elements, and nanoseconds never reach a full second.
	for name, bad := range map[string][]byte{
		"count beyond input": AppendUvarint(nil, 3),
		"nanos >= 1e9":       AppendUvarint(AppendVarint(nil, 0), 1e9),
		"short float":        {1, 2, 3},
	} {
		r := NewReader(bad)
		switch name {
		case "count beyond input":
			r.Count()
		case "nanos >= 1e9":
			r.Time()
		default:
			r.Float64()
		}
		if !errors.Is(r.Err(), ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, r.Err())
		}
	}
}

func TestRecordRoundTrip(t *testing.T) {
	var log []byte
	payloads := [][]byte{
		[]byte("first"),
		{},
		bytes.Repeat([]byte{0xAB}, 1000),
		[]byte("{looks like JSON but is binary payload}"),
	}
	for _, p := range payloads {
		log = AppendRecord(log, p)
	}
	br := bufio.NewReader(bytes.NewReader(log))
	for i, want := range payloads {
		got, err := ReadRecord(br, 0)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d: got %d bytes, want %d", i, len(got), len(want))
		}
	}
	if _, err := ReadRecord(br, 0); err != io.EOF {
		t.Fatalf("after last record: err = %v, want io.EOF", err)
	}
}

// TestRecordTornTail pins the crash contract: a log truncated at any
// byte offset yields every record fully contained in the prefix, then
// exactly io.EOF (clean boundary) or io.ErrUnexpectedEOF (torn
// record) — never a hang, a panic, or a phantom record.
func TestRecordTornTail(t *testing.T) {
	var log []byte
	var boundaries []int
	for i := 0; i < 5; i++ {
		log = AppendRecord(log, bytes.Repeat([]byte{byte(i)}, 10+i*7))
		boundaries = append(boundaries, len(log))
	}
	complete := func(n int) int {
		c := 0
		for _, b := range boundaries {
			if b <= n {
				c++
			}
		}
		return c
	}
	for cut := 0; cut <= len(log); cut++ {
		br := bufio.NewReader(bytes.NewReader(log[:cut]))
		read := 0
		for {
			_, err := ReadRecord(br, 0)
			if err == io.EOF {
				break
			}
			if err == io.ErrUnexpectedEOF {
				break
			}
			if err != nil {
				t.Fatalf("cut %d: unexpected error %v", cut, err)
			}
			read++
		}
		if want := complete(cut); read != want {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, read, want)
		}
	}
}

func TestRecordChecksumMismatch(t *testing.T) {
	log := AppendRecord(nil, []byte("payload under protection"))
	// Flip one payload byte; the frame is fully present, so this must
	// surface as ErrChecksum, not as a torn tail.
	log[5] ^= 0x01
	_, err := ReadRecord(bufio.NewReader(bytes.NewReader(log)), 0)
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
}

func TestRecordRejectsForeignBytes(t *testing.T) {
	for _, junk := range [][]byte{
		[]byte(`{"seq":1,"commit":true}` + "\n"), // legacy JSON line
		{0x00, 0x01, 0x02},
		{0xFF, 0x82},
	} {
		_, err := ReadRecord(bufio.NewReader(bytes.NewReader(junk)), 0)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("junk %v: err = %v, want ErrCorrupt", junk, err)
		}
	}
}

// TestRecordReadErrorIsNotEndOfLog: only end of input reads as io.EOF
// or io.ErrUnexpectedEOF; a failing reader's error comes back as
// itself, at a record boundary or inside a record, so a caller can
// never mistake a bad disk for the end of the log.
func TestRecordReadErrorIsNotEndOfLog(t *testing.T) {
	boom := errors.New("disk on fire")
	log := AppendRecord(AppendRecord(nil, []byte("one")), []byte("two"))
	for cut := len(log) / 2; cut <= len(log); cut++ {
		br := bufio.NewReader(io.MultiReader(bytes.NewReader(log[:cut]), iotest.ErrReader(boom)))
		var err error
		for err == nil {
			_, err = ReadRecord(br, 0)
		}
		if !errors.Is(err, boom) {
			t.Fatalf("cut %d: err = %v, want the reader's error", cut, err)
		}
	}
}

// TestRecordGiantLengthRunsOutOfInput: a length prefix far beyond the
// input is a torn record (or corrupt), never an allocation of that
// size.
func TestRecordGiantLengthRunsOutOfInput(t *testing.T) {
	for _, n := range []uint64{1 << 40, math.MaxInt64, math.MaxUint64} {
		log := AppendUvarint([]byte{RecordMagic, Version}, n)
		log = append(log, "a few bytes"...)
		_, err := ReadRecord(bufio.NewReader(bytes.NewReader(log)), 0)
		if err != io.ErrUnexpectedEOF && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("length %d: err = %v", n, err)
		}
	}
}

func TestRecordSizeBound(t *testing.T) {
	log := AppendRecord(nil, bytes.Repeat([]byte{1}, 100))
	if _, err := ReadRecord(bufio.NewReader(bytes.NewReader(log)), 10); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt for an over-limit record", err)
	}
}

func TestImageRoundTrip(t *testing.T) {
	payload := []byte("the whole checkpoint image body")
	img := SealImage(SnapMagic, payload)
	if _, err := OpenImage(BlobMagic, img); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt for the wrong magic", err)
	}
	got, err := OpenImage(SnapMagic, img)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("image payload mismatch")
	}
	// Corruption anywhere in the payload must be caught by the CRC.
	img[4] ^= 0x40
	if _, err := OpenImage(SnapMagic, img); !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
	// A gob stream or a JSON document is never an image, and the error
	// says what it is; so does ReadRecord's for a JSON-line log.
	for _, old := range [][]byte{{0x1F, 0xFF, 0x81, 0x03, 0x01, 0x01, 0x08}, []byte(`{"seq":1,"commit":true}` + "\n")} {
		_, err := OpenImage(SnapMagic, old)
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "predates the binary format") {
			t.Fatalf("OpenImage(%q) err = %v", old, err)
		}
		_, err = ReadRecord(bufio.NewReader(bytes.NewReader(old)), 0)
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "predates the binary format") {
			t.Fatalf("ReadRecord(%q) err = %v", old, err)
		}
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks: the codec against the encodings it replaces. These
// ride in the CI benchtime=1x compile check with every other package's
// benchmarks.
// ---------------------------------------------------------------------------

func benchRow() map[string]any {
	return map[string]any{
		"script_name": "course-101/lecture-07",
		"author":      "prof",
		"position":    int64(7),
		"ratio":       0.625,
		"persistent":  true,
		"created":     time.Date(1999, 3, 1, 9, 0, 0, 0, time.UTC),
		"content":     bytes.Repeat([]byte{0x5A}, 1024),
	}
}

func BenchmarkAppendValueRow(b *testing.B) {
	row := benchRow()
	keys := make([]string, 0, len(row))
	for k := range row {
		keys = append(keys, k)
	}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		for _, k := range keys {
			buf = AppendString(buf, k)
			var err error
			buf, err = AppendValue(buf, row[k])
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.SetBytes(int64(len(buf)))
}

func BenchmarkReadValueRow(b *testing.B) {
	row := benchRow()
	var buf []byte
	for k, v := range row {
		buf = AppendString(buf, k)
		var err error
		buf, err = AppendValue(buf, v)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewReader(buf)
		for j := 0; j < len(row); j++ {
			_ = r.String() // vet reads a String() method as fmt.Stringer
			r.Value()
		}
		if r.Err() != nil || r.Len() != 0 {
			b.Fatalf("decode: %v (%d left)", r.Err(), r.Len())
		}
	}
}

func BenchmarkRecordRoundTrip(b *testing.B) {
	payload := bytes.Repeat([]byte{0xC3}, 4096)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	var buf []byte
	for i := 0; i < b.N; i++ {
		buf = AppendRecord(buf[:0], payload)
		got, err := ReadRecord(bufio.NewReader(bytes.NewReader(buf)), 0)
		if err != nil || len(got) != len(payload) {
			b.Fatalf("round trip: %v", err)
		}
	}
}

func ExampleAppendValue() {
	buf, _ := AppendValue(nil, int64(-42))
	buf, _ = AppendValue(buf, "doc")
	r := NewReader(buf)
	fmt.Println(r.Value(), r.Value(), r.Err())
	// Output: -42 doc <nil>
}
