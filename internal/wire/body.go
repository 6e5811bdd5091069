package wire

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The body codec: a descriptor-free positional encoding of plain Go
// values, driven by a per-type plan that is compiled once and cached
// for the life of the process. It is what every RPC body that does not
// encode itself goes through.
//
//	body   := [BodyMagic][Version] value
//	value  := bool            one byte, 0 or 1
//	        | int*            zigzag varint
//	        | uint*           uvarint
//	        | float64         8 bytes little-endian
//	        | string, []byte  uvarint length, bytes
//	        | time.Time       AppendTime (decodes as UTC)
//	        | struct          its exported fields in declaration order
//	        | slice           uvarint count, elements
//	        | map             uvarint count, key/value pairs in ascending key order
//	        | pointer         one byte 0 (nil) or 1, then the value
//	        | self-encoding   4-byte little-endian length, the type's own AppendWire bytes
//
// Nothing names a field or a type, so both ends must agree on the Go
// type: adding, removing or reordering a field changes the format. A
// nil and an empty slice or map encode alike and decode as nil. Every
// count is checked against the bytes that remain before anything is
// allocated. Interfaces, channels, funcs, arrays and unexported struct
// fields have no encoding; a type that contains one is rejected, with
// the field named, when its plan is first built.

// Appender is a value that encodes itself with the wire primitives.
type Appender interface {
	AppendWire(dst []byte) ([]byte, error)
}

// Decoder is the decode half of Appender. body outlives the call, so an
// implementation may keep slices that alias it.
type Decoder interface {
	DecodeWire(body []byte) error
}

// plan encodes and decodes values of one Go type.
type plan struct {
	enc func(dst []byte, v reflect.Value) ([]byte, error)
	dec func(r *Reader, v reflect.Value) // v is settable; failures go to r
	// min is the fewest bytes one value occupies. A decoded count times
	// the element's min may not exceed the bytes left.
	min int
	// hint is the size of the last body encoded from this type, so the
	// next encode allocates its buffer once.
	hint atomic.Int64
}

var (
	plans sync.Map // reflect.Type -> *plan

	appenderType = reflect.TypeOf((*Appender)(nil)).Elem()
	decoderType  = reflect.TypeOf((*Decoder)(nil)).Elem()
	timeType     = reflect.TypeOf(time.Time{})
)

// planFor returns the cached plan of t, compiling it on first use.
func planFor(t reflect.Type) (*plan, error) {
	if p, ok := plans.Load(t); ok {
		return p.(*plan), nil
	}
	built := make(map[reflect.Type]*plan)
	p, err := compile(t, built)
	if err != nil {
		return nil, fmt.Errorf("wire: no body encoding for %v: %w", t, err)
	}
	// Publish only a fully compiled graph: a plan may point at the
	// plans of the types it contains, and none of them may be
	// half-built when another goroutine finds it.
	for bt, bp := range built {
		plans.LoadOrStore(bt, bp)
	}
	return p, nil
}

// compile builds the plan of t. built holds every plan of this
// compilation, finished or not: a recursive type finds its own
// unfinished plan there and calls through the pointer later.
func compile(t reflect.Type, built map[reflect.Type]*plan) (*plan, error) {
	if p, ok := plans.Load(t); ok {
		return p.(*plan), nil
	}
	if p, ok := built[t]; ok {
		return p, nil
	}
	p := &plan{min: 1} // what a recursive reference sees: it sits behind a count or a presence byte
	built[t] = p
	var err error
	// A pointer's method set includes its element's; the pair is
	// looked for on the element when the pointer plan gets there.
	appends := t.Kind() != reflect.Pointer && t.Implements(appenderType)
	decodes := t.Kind() != reflect.Pointer && reflect.PointerTo(t).Implements(decoderType)
	switch {
	case appends && decodes:
		compileSelf(p)
	case appends || decodes:
		err = fmt.Errorf("%v implements only half of AppendWire/DecodeWire", t)
	case t == timeType:
		p.min = 2
		p.enc = func(dst []byte, v reflect.Value) ([]byte, error) {
			// Neither branch copies the value to the heap: reflect
			// hands out a read-only value's stored pointer as it is.
			if v.CanAddr() {
				return AppendTime(dst, *v.Addr().Interface().(*time.Time)), nil
			}
			return AppendTime(dst, v.Interface().(time.Time)), nil
		}
		p.dec = func(r *Reader, v reflect.Value) { *v.Addr().Interface().(*time.Time) = r.Time() }
	default:
		err = compileKind(p, t, built)
	}
	if err != nil {
		return nil, err // planFor drops everything built so far
	}
	return p, nil
}

// compileSelf is the plan of a type with its own AppendWire/DecodeWire
// pair: its bytes ride behind a fixed-width length, patched in after
// the value has appended itself, so media is never copied twice.
func compileSelf(p *plan) {
	p.min = 4
	p.enc = func(dst []byte, v reflect.Value) ([]byte, error) {
		var a Appender
		if v.CanAddr() {
			a = v.Addr().Interface().(Appender) // no copy of the value
		} else {
			a = v.Interface().(Appender)
		}
		at := len(dst)
		dst, err := a.AppendWire(append(dst, 0, 0, 0, 0))
		if err != nil {
			return dst, err
		}
		n := len(dst) - at - 4
		if uint64(n) > 1<<32-1 {
			return dst, fmt.Errorf("wire: %v encodes to %d bytes, over the 4 GiB a nested body may span", v.Type(), n)
		}
		binary.LittleEndian.PutUint32(dst[at:], uint32(n))
		return dst, nil
	}
	p.dec = func(r *Reader, v reflect.Value) {
		sub := r.take(uint64(r.Uint32()))
		if r.err != nil {
			return
		}
		if err := v.Addr().Interface().(Decoder).DecodeWire(sub); err != nil {
			r.err = err
		}
	}
}

func compileKind(p *plan, t reflect.Type, built map[reflect.Type]*plan) error {
	switch t.Kind() {
	case reflect.Bool:
		p.enc = func(dst []byte, v reflect.Value) ([]byte, error) {
			if v.Bool() {
				return append(dst, 1), nil
			}
			return append(dst, 0), nil
		}
		p.dec = func(r *Reader, v reflect.Value) {
			b := r.Byte()
			if b > 1 {
				r.fail()
			}
			v.SetBool(b == 1)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		p.enc = func(dst []byte, v reflect.Value) ([]byte, error) { return AppendVarint(dst, v.Int()), nil }
		p.dec = func(r *Reader, v reflect.Value) {
			x := r.Varint()
			if v.OverflowInt(x) {
				r.fail()
			}
			v.SetInt(x)
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		p.enc = func(dst []byte, v reflect.Value) ([]byte, error) { return AppendUvarint(dst, v.Uint()), nil }
		p.dec = func(r *Reader, v reflect.Value) {
			x := r.Uvarint()
			if v.OverflowUint(x) {
				r.fail()
			}
			v.SetUint(x)
		}
	case reflect.Float64:
		p.min = 8
		p.enc = func(dst []byte, v reflect.Value) ([]byte, error) { return AppendFloat64(dst, v.Float()), nil }
		p.dec = func(r *Reader, v reflect.Value) { v.SetFloat(r.Float64()) }
	case reflect.String:
		p.enc = func(dst []byte, v reflect.Value) ([]byte, error) { return AppendString(dst, v.String()), nil }
		p.dec = func(r *Reader, v reflect.Value) { v.SetString(r.String()) }
	case reflect.Struct:
		return compileStruct(p, t, built)
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			p.enc = func(dst []byte, v reflect.Value) ([]byte, error) { return AppendBytes(dst, v.Bytes()), nil }
			p.dec = func(r *Reader, v reflect.Value) { v.SetBytes(r.Bytes()) }
			return nil
		}
		return compileSlice(p, t, built)
	case reflect.Map:
		return compileMap(p, t, built)
	case reflect.Pointer:
		return compilePointer(p, t, built)
	default:
		return fmt.Errorf("unsupported kind %v (%v)", t.Kind(), t)
	}
	return nil
}

func compileStruct(p *plan, t reflect.Type, built map[reflect.Type]*plan) error {
	fields := make([]*plan, t.NumField())
	min := 0
	for i := range fields {
		f := t.Field(i)
		if !f.IsExported() {
			return fmt.Errorf("field %s: unexported fields have no encoding", f.Name)
		}
		fp, err := compile(f.Type, built)
		if err != nil {
			return fmt.Errorf("field %s: %w", f.Name, err)
		}
		fields[i] = fp
		min += fp.min
	}
	p.min = min
	p.enc = func(dst []byte, v reflect.Value) ([]byte, error) {
		var err error
		for i, fp := range fields {
			if dst, err = fp.enc(dst, v.Field(i)); err != nil {
				return dst, err
			}
		}
		return dst, nil
	}
	p.dec = func(r *Reader, v reflect.Value) {
		for i, fp := range fields {
			fp.dec(r, v.Field(i))
		}
	}
	return nil
}

// count reads an element count whose elements occupy at least min
// bytes each, failing when they cannot fit in what is left.
func (r *Reader) count(min int) int {
	n := r.Count()
	if n > r.Len()/min {
		r.fail()
		return 0
	}
	return n
}

func compileSlice(p *plan, t reflect.Type, built map[reflect.Type]*plan) error {
	ep, err := compile(t.Elem(), built)
	if err != nil {
		return err
	}
	if ep.min == 0 {
		return fmt.Errorf("elements of %v occupy no bytes, so their count cannot be bounded", t)
	}
	p.enc = func(dst []byte, v reflect.Value) ([]byte, error) {
		n := v.Len()
		dst = AppendUvarint(dst, uint64(n))
		var err error
		for i := 0; i < n; i++ {
			if dst, err = ep.enc(dst, v.Index(i)); err != nil {
				return dst, err
			}
		}
		return dst, nil
	}
	p.dec = func(r *Reader, v reflect.Value) {
		n := r.count(ep.min)
		if n == 0 {
			v.SetZero()
			return
		}
		s := reflect.MakeSlice(t, n, n)
		for i := 0; i < n && r.err == nil; i++ {
			ep.dec(r, s.Index(i))
		}
		v.Set(s)
	}
	return nil
}

func compileMap(p *plan, t reflect.Type, built map[reflect.Type]*plan) error {
	var less func(a, b reflect.Value) bool
	switch t.Key().Kind() {
	case reflect.String:
		less = func(a, b reflect.Value) bool { return a.String() < b.String() }
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		less = func(a, b reflect.Value) bool { return a.Int() < b.Int() }
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		less = func(a, b reflect.Value) bool { return a.Uint() < b.Uint() }
	default:
		return fmt.Errorf("map key %v: only string and integer keys have an order to write them in", t.Key())
	}
	kp, err := compile(t.Key(), built)
	if err != nil {
		return err
	}
	vp, err := compile(t.Elem(), built)
	if err != nil {
		return err
	}
	p.enc = func(dst []byte, v reflect.Value) ([]byte, error) {
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return less(keys[i], keys[j]) })
		dst = AppendUvarint(dst, uint64(len(keys)))
		var err error
		for _, k := range keys {
			if dst, err = kp.enc(dst, k); err != nil {
				return dst, err
			}
			if dst, err = vp.enc(dst, v.MapIndex(k)); err != nil {
				return dst, err
			}
		}
		return dst, nil
	}
	p.dec = func(r *Reader, v reflect.Value) {
		n := r.count(kp.min + vp.min)
		if n == 0 {
			v.SetZero()
			return
		}
		m := reflect.MakeMapWithSize(t, n)
		// One scratch key and value serve every pair: each decoder
		// assigns the whole value, and SetMapIndex stores a copy.
		k, e := reflect.New(t.Key()).Elem(), reflect.New(t.Elem()).Elem()
		for i := 0; i < n && r.err == nil; i++ {
			kp.dec(r, k)
			vp.dec(r, e)
			m.SetMapIndex(k, e)
		}
		v.Set(m)
	}
	return nil
}

func compilePointer(p *plan, t reflect.Type, built map[reflect.Type]*plan) error {
	ep, err := compile(t.Elem(), built)
	if err != nil {
		return err
	}
	p.enc = func(dst []byte, v reflect.Value) ([]byte, error) {
		if v.IsNil() {
			return append(dst, 0), nil
		}
		return ep.enc(append(dst, 1), v.Elem())
	}
	p.dec = func(r *Reader, v reflect.Value) {
		switch r.Byte() {
		case 0:
			v.SetZero()
		case 1:
			e := reflect.New(t.Elem())
			ep.dec(r, e.Elem())
			v.Set(e)
		default:
			r.fail()
		}
	}
	return nil
}

// AppendBody appends the body encoding of v to dst. Pointers at the
// top are followed on both sides, so a body encoded from *T decodes
// into a T, and one decoded into a nil *T allocates it.
func AppendBody(dst []byte, v any) ([]byte, error) {
	rv := reflect.ValueOf(v)
	for rv.Kind() == reflect.Pointer && !rv.IsNil() {
		rv = rv.Elem()
	}
	if !rv.IsValid() || rv.Kind() == reflect.Pointer {
		return dst, fmt.Errorf("wire: cannot encode a nil %T as a body", v)
	}
	p, err := planFor(rv.Type())
	if err != nil {
		return dst, err
	}
	start := len(dst)
	dst = append(slices.Grow(dst, 2+int(p.hint.Load())), BodyMagic, Version)
	if dst, err = p.enc(dst, rv); err != nil {
		return dst, err
	}
	p.hint.Store(int64(len(dst) - start - 2))
	return dst, nil
}

// DecodeBody decodes a body written by AppendBody into the value v
// points at. Anything but a well-formed body of exactly that type —
// a foreign magic, a count the input cannot hold, a truncated field,
// bytes left over — is ErrCorrupt (or the error of a nested
// DecodeWire), and v is then left partly assigned. Strings and byte
// slices are owning copies; what a nested DecodeWire keeps is that
// type's business.
func DecodeBody(body []byte, v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("wire: decode target %T is not a non-nil pointer", v)
	}
	for rv = rv.Elem(); rv.Kind() == reflect.Pointer; rv = rv.Elem() {
		if rv.IsNil() {
			rv.Set(reflect.New(rv.Type().Elem()))
		}
	}
	p, err := planFor(rv.Type())
	if err != nil {
		return err
	}
	if len(body) < 2 || body[0] != BodyMagic || body[1] != Version {
		return fmt.Errorf("%w: not a version-%d message body", ErrCorrupt, Version)
	}
	r := Reader{buf: body, off: 2}
	p.dec(&r, rv)
	if r.err != nil {
		return fmt.Errorf("decoding %v: %w", rv.Type(), r.err)
	}
	if r.Len() != 0 {
		return fmt.Errorf("%w: %d bytes after a %v", ErrCorrupt, r.Len(), rv.Type())
	}
	return nil
}
