package wire

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

type bodyLeaf struct {
	Name  string
	Score float64
	At    time.Time
	Took  time.Duration
}

// bodySelf encodes itself; inside a plan-encoded body it rides behind
// a length. Its decoder keeps a slice that aliases the body.
type bodySelf struct{ raw []byte }

func (s bodySelf) AppendWire(dst []byte) ([]byte, error) {
	if bytes.Equal(s.raw, []byte("refuse")) {
		return dst, errors.New("bodySelf: refused")
	}
	return append(append(dst, 0xEE), s.raw...), nil
}

func (s *bodySelf) DecodeWire(body []byte) error {
	if len(body) == 0 || body[0] != 0xEE {
		return errors.New("bodySelf: bad tag")
	}
	s.raw = body[1:]
	if len(s.raw) == 0 {
		s.raw = nil
	}
	return nil
}

type bodyTree struct {
	Label string
	Kids  []bodyTree
	Up    *bodyTree
}

type bodyAll struct {
	B     bool
	I     int
	I8    int8
	I64   int64
	U     uint
	U16   uint16
	F     float64
	S     string
	Raw   []byte
	T     time.Time
	D     time.Duration
	Strs  []string
	Leafs []bodyLeaf
	ByPos map[int]string
	ByKey map[string]bodyLeaf
	Flags map[uint8]bool
	Ptr   *bodyLeaf
	Nil   *bodyLeaf
	Leaf  bodyLeaf
	None  struct{}
	Self  bodySelf
	Tree  bodyTree
	Rows  [][]string
}

func fullBody() bodyAll {
	at := time.Date(1999, 4, 21, 9, 30, 0, 123456789, time.UTC)
	leaf := bodyLeaf{Name: "lecture", Score: 0.75, At: at, Took: 1500 * time.Millisecond}
	return bodyAll{
		B: true, I: -42, I8: -128, I64: 1 << 62, U: 7, U16: 65535, F: -3.25, S: "héllo",
		Raw: []byte{0, 1, 2}, T: at, D: -time.Second,
		Strs:  []string{"a", "", "c"},
		Leafs: []bodyLeaf{leaf, {}},
		ByPos: map[int]string{3: "c", -1: "z", 2: "b"},
		ByKey: map[string]bodyLeaf{"x": leaf, "": {}},
		Flags: map[uint8]bool{9: true, 1: false},
		Ptr:   &leaf,
		Leaf:  leaf,
		Self:  bodySelf{raw: []byte("media")},
		Tree:  bodyTree{Label: "root", Kids: []bodyTree{{Label: "kid", Up: &bodyTree{Label: "up"}}, {}}},
		Rows:  [][]string{{"a", "b"}, nil, {"c"}},
	}
}

func roundTrip(t *testing.T, in, out any) []byte {
	t.Helper()
	body, err := AppendBody(nil, in)
	if err != nil {
		t.Fatalf("AppendBody(%T): %v", in, err)
	}
	if err := DecodeBody(body, out); err != nil {
		t.Fatalf("DecodeBody(%T): %v", out, err)
	}
	return body
}

func TestBodyRoundTripEveryKind(t *testing.T) {
	in := fullBody()
	var out bodyAll
	body := roundTrip(t, in, &out)
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip changed the value:\n in: %+v\nout: %+v", in, out)
	}
	if body[0] != BodyMagic || body[1] != Version {
		t.Fatalf("body starts % x, want the body magic and version", body[:2])
	}
	// The nested self-encoder was handed a view of the body, not a copy.
	if !bytes.Contains(body, []byte("media")) || &out.Self.raw[0] != &body[bytes.Index(body, []byte("media"))] {
		t.Error("the nested DecodeWire did not receive a slice of the body itself")
	}
	// Plain byte slices and strings are owning copies.
	body[bytes.Index(body, []byte{0, 1, 2})+1] ^= 0xFF
	if !bytes.Equal(out.Raw, []byte{0, 1, 2}) {
		t.Error("a decoded []byte aliases the body")
	}

	var zero, zeroOut bodyAll
	zeroBody := roundTrip(t, zero, &zeroOut)
	if !reflect.DeepEqual(zero, zeroOut) {
		t.Fatalf("zero value round trip: %+v", zeroOut)
	}
	if len(zeroBody) > 80 {
		t.Errorf("a zero value encodes to %d bytes: something ships descriptors", len(zeroBody))
	}

	// Empty slices and maps decode as nil, as they did through gob.
	empty := bodyAll{Strs: []string{}, ByPos: map[int]string{}, Raw: []byte{}, Rows: [][]string{}}
	var emptyOut bodyAll
	roundTrip(t, empty, &emptyOut)
	if emptyOut.Strs != nil || emptyOut.ByPos != nil || emptyOut.Raw != nil || emptyOut.Rows != nil {
		t.Errorf("empty slices and maps decoded non-nil: %+v", emptyOut)
	}
}

func TestBodyTopLevelValuesAndPointers(t *testing.T) {
	var n int
	roundTrip(t, 12345, &n)
	var raw []byte
	roundTrip(t, []byte("payload"), &raw)
	var s string
	roundTrip(t, "text", &s)
	var m map[string]int64
	roundTrip(t, map[string]int64{"a": 1}, &m)
	var none struct{}
	if body := roundTrip(t, struct{}{}, &none); len(body) != 2 {
		t.Errorf("an empty struct encodes to %d bytes, want the 2-byte header", len(body))
	}
	if n != 12345 || string(raw) != "payload" || s != "text" || m["a"] != 1 {
		t.Fatalf("decoded %d %q %q %v", n, raw, s, m)
	}

	// Pointers at the top are transparent in both directions.
	leaf := bodyLeaf{Name: "p"}
	fromPtr, _ := AppendBody(nil, &leaf)
	fromVal, _ := AppendBody(nil, leaf)
	if !bytes.Equal(fromPtr, fromVal) {
		t.Fatalf("*T and T encode differently: % x vs % x", fromPtr, fromVal)
	}
	var into *bodyLeaf
	if err := DecodeBody(fromVal, &into); err != nil || into == nil || into.Name != "p" {
		t.Fatalf("decode into a nil *T: %+v, %v", into, err)
	}

	if _, err := AppendBody(nil, nil); err == nil {
		t.Error("nil encoded")
	}
	if _, err := AppendBody(nil, (*bodyLeaf)(nil)); err == nil {
		t.Error("a nil pointer encoded")
	}
	if err := DecodeBody(fromVal, leaf); err == nil {
		t.Error("decoded into a non-pointer")
	}
	if _, err := AppendBody(nil, bodyAll{Self: bodySelf{raw: []byte("refuse")}}); err == nil || !strings.Contains(err.Error(), "refused") {
		t.Errorf("a nested encoder's own error was swallowed: %v", err)
	}
}

func TestBodyMapsEncodeDeterministically(t *testing.T) {
	in := fullBody()
	for i := 0; i < 40; i++ {
		in.ByPos[100+i] = "x"
		in.ByKey[strings.Repeat("k", i+1)] = bodyLeaf{}
	}
	first, _ := AppendBody(nil, in)
	for i := 0; i < 10; i++ {
		again, _ := AppendBody(nil, in)
		if !bytes.Equal(first, again) {
			t.Fatal("two encodes of one map-bearing value differ")
		}
	}
	// Keys go out in ascending order, negative ints first.
	body, _ := AppendBody(nil, map[int]string{3: "c", -1: "z", 2: "b"})
	want := []byte{BodyMagic, Version, 3}
	for _, kv := range []struct {
		k int64
		v string
	}{{-1, "z"}, {2, "b"}, {3, "c"}} {
		want = AppendString(AppendVarint(want, kv.k), kv.v)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("map body = % x, want % x", body, want)
	}
}

func TestBodyUnsupportedTypesNameTheField(t *testing.T) {
	type inner struct{ Ch chan int }
	cases := []struct {
		v    any
		want []string
	}{
		{struct{ C chan int }{}, []string{"field C", "chan int"}},
		{struct{ V any }{}, []string{"field V", "interface"}},
		{struct{ F func() }{}, []string{"field F", "func"}},
		{struct{ A [4]byte }{}, []string{"field A", "array"}},
		{struct{ Deep []map[string]*inner }{}, []string{"field Deep", "field Ch", "chan int"}},
		{struct{ hidden int }{}, []string{"field hidden", "unexported"}},
		{struct{ M map[float64]int }{}, []string{"field M", "float64"}},
		{struct{ E []struct{} }{}, []string{"field E", "occupy no bytes"}},
		{struct{ H halfCoded }{}, []string{"field H", "half"}},
		{make(chan int), []string{"chan int"}},
	}
	for _, tc := range cases {
		_, err := AppendBody(nil, tc.v)
		if err == nil {
			t.Errorf("%T encoded", tc.v)
			continue
		}
		for _, want := range tc.want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%T: error %q does not mention %q", tc.v, err, want)
			}
		}
		// The decode side refuses the same types the same way.
		if derr := DecodeBody([]byte{BodyMagic, Version}, reflect.New(reflect.TypeOf(tc.v)).Interface()); derr == nil || derr.Error() != err.Error() {
			t.Errorf("%T: decode error %v, encode error %v", tc.v, derr, err)
		}
	}
}

type halfCoded struct{ N int }

func (h halfCoded) AppendWire(dst []byte) ([]byte, error) { return dst, nil }

func TestBodyDecodeRejectsMalformedInput(t *testing.T) {
	good, _ := AppendBody(nil, fullBody())
	var out bodyAll
	// Every strict prefix is truncated somewhere.
	for n := 0; n < len(good); n++ {
		if err := DecodeBody(good[:n], &out); err == nil {
			t.Fatalf("a %d-byte prefix of a %d-byte body decoded", n, len(good))
		}
	}
	if err := DecodeBody(append(bytes.Clone(good), 0), &out); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing byte: %v", err)
	}
	for _, head := range [][]byte{{FrameMagic, Version}, {BodyMagic, Version + 1}, {0x2a, 0xff}} {
		bad := append(bytes.Clone(head), good[2:]...)
		if err := DecodeBody(bad, &out); !errors.Is(err, ErrCorrupt) {
			t.Errorf("header % x: %v", head, err)
		}
	}

	body := func(payload ...byte) []byte { return append([]byte{BodyMagic, Version}, payload...) }
	var flag bool
	if err := DecodeBody(body(2), &flag); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bool byte 2: %v", err)
	}
	var small int8
	if err := DecodeBody(AppendVarint(body(), 300), &small); !errors.Is(err, ErrCorrupt) {
		t.Errorf("300 into an int8: %v", err)
	}
	var tiny uint8
	if err := DecodeBody(AppendUvarint(body(), 256), &tiny); !errors.Is(err, ErrCorrupt) {
		t.Errorf("256 into a uint8: %v", err)
	}
	var ptr *int
	if err := DecodeBody(body(7, 0), &struct{ P **int }{&ptr}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("pointer flag 7: %v", err)
	}
	var self struct{ S bodySelf }
	if err := DecodeBody(body(1, 0, 0, 0, 0x11), &self); err == nil || !strings.Contains(err.Error(), "bad tag") {
		t.Errorf("a nested decoder's own error was swallowed: %v", err)
	}
	if err := DecodeBody(body(9, 0, 0, 0, 0xEE), &self); !errors.Is(err, ErrCorrupt) {
		t.Errorf("nested length past the end: %v", err)
	}
}

// TestBodyCountsAreBoundedByTheInput: a count is believed only as far
// as the bytes behind it could hold that many elements, so a small
// hostile body cannot make the decoder allocate a large slice or map.
func TestBodyCountsAreBoundedByTheInput(t *testing.T) {
	hostile := AppendUvarint([]byte{BodyMagic, Version}, 1<<20)
	hostile = append(hostile, make([]byte, 1<<20)...) // enough bytes for 1<<20 one-byte elements, far too few for leaves
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var leafs []bodyLeaf
	err := DecodeBody(hostile, &leafs)
	var byKey map[string]bodyLeaf
	err2 := DecodeBody(hostile, &byKey)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) || !errors.Is(err2, ErrCorrupt) {
		t.Fatalf("hostile counts: %v, %v", err, err2)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("rejecting two hostile counts allocated %d bytes", grew)
	}
	if err := DecodeBody(AppendUvarint([]byte{BodyMagic, Version}, 1<<62), &leafs); !errors.Is(err, ErrCorrupt) {
		t.Errorf("count 1<<62: %v", err)
	}
}

// TestBodyPlansAreSharedAcrossGoroutines compiles the same fresh types
// from many goroutines at once; the race detector watches the cache.
func TestBodyPlansAreSharedAcrossGoroutines(t *testing.T) {
	type fresh struct {
		A []bodyTree
		B map[string][]bodyLeaf
	}
	in := fresh{A: []bodyTree{{Label: "x", Kids: []bodyTree{{}}}}, B: map[string][]bodyLeaf{"k": {{Name: "n"}}}}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				body, err := AppendBody(nil, in)
				var out fresh
				if err == nil {
					err = DecodeBody(body, &out)
				}
				if err != nil || !reflect.DeepEqual(in, out) {
					t.Errorf("concurrent round trip: %+v, %v", out, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzDecodeBody feeds the decoder arbitrary bytes for a type that has
// every shape the codec knows. Hostile counts, truncated fields and
// trailing bytes must come back as errors — never a panic, and (the
// fuzzer's memory limit is the judge) never an allocation out of
// proportion to the input. Whatever does decode must re-encode to a
// body that decodes and encodes to the same bytes again (bytes, not
// values: a decoded NaN is not equal to itself).
func FuzzDecodeBody(f *testing.F) {
	full, _ := AppendBody(nil, fullBody())
	zero, _ := AppendBody(nil, bodyAll{})
	f.Add(full)
	f.Add(zero)
	f.Add(full[:len(full)/2])
	f.Add(append(bytes.Clone(zero), 0))
	f.Add([]byte{})
	f.Add([]byte{BodyMagic})
	f.Add([]byte{BodyMagic, Version})
	f.Add(AppendUvarint([]byte{BodyMagic, Version, 1, 2, 3, 4, 5, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 1<<40))
	f.Add([]byte{0x1f, 0xff, 0x81, 0x03, 0x01, 0x01}) // how a gob stream starts
	f.Fuzz(func(t *testing.T, data []byte) {
		var v bodyAll
		if err := DecodeBody(data, &v); err != nil {
			return
		}
		again, err := AppendBody(nil, v)
		if err != nil {
			t.Fatalf("re-encoding a decoded value: %v", err)
		}
		var back bodyAll
		if err := DecodeBody(again, &back); err != nil {
			t.Fatalf("decoding a re-encoded value: %v", err)
		}
		if third, err := AppendBody(nil, back); err != nil || !bytes.Equal(again, third) {
			t.Fatalf("the encoding is not stable (err %v):\n% x\n% x", err, again, third)
		}
	})
}
