package relstore

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"slices"
	"strconv"
	"time"
)

// appendKey appends the canonical primary-key or index-key encoding of
// a coerced value. Keys are only compared for equality, so the encoding
// needs to be injective, not order-preserving. Rendered into a stack
// buffer and looked up as m[string(key)], a key costs no allocation.
func appendKey(dst []byte, v any) []byte {
	switch x := v.(type) {
	case nil:
		return append(dst, "n:"...)
	case int64:
		return strconv.AppendInt(append(dst, "i:"...), x, 10)
	case float64:
		return strconv.AppendFloat(append(dst, "f:"...), x, 'g', -1, 64)
	case string:
		return append(append(dst, "s:"...), x...)
	case []byte:
		n := base64.StdEncoding.EncodedLen(len(x))
		dst = slices.Grow(append(dst, "b:"...), n)
		base64.StdEncoding.Encode(dst[len(dst):len(dst)+n], x)
		return dst[:len(dst)+n]
	case bool:
		if x {
			return append(dst, "t:1"...)
		}
		return append(dst, "t:0"...)
	case time.Time:
		return strconv.AppendInt(append(dst, "d:"...), x.UnixNano(), 10)
	default:
		return fmt.Appendf(dst, "x:%v", x)
	}
}

// keyBuf is stack room for rendering the common key with appendKey.
type keyBuf [64]byte

// encodeKey renders a key as a string, in one allocation.
func encodeKey(v any) string {
	if s, ok := v.(string); ok {
		return "s:" + s
	}
	var buf keyBuf
	return string(appendKey(buf[:0], v))
}

// compareValues orders two coerced values of the same column type.
// NULL sorts before every non-NULL value. The result follows the usual
// -1/0/+1 convention.
func compareValues(a, b any) int {
	if a == nil && b == nil {
		return 0
	}
	if a == nil {
		return -1
	}
	if b == nil {
		return 1
	}
	switch x := a.(type) {
	case int64:
		y, ok := b.(int64)
		if !ok {
			return mixedTypeOrder(a, b)
		}
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	case float64:
		y, ok := b.(float64)
		if !ok {
			return mixedTypeOrder(a, b)
		}
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	case string:
		y, ok := b.(string)
		if !ok {
			return mixedTypeOrder(a, b)
		}
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	case []byte:
		y, ok := b.([]byte)
		if !ok {
			return mixedTypeOrder(a, b)
		}
		return bytes.Compare(x, y)
	case bool:
		y, ok := b.(bool)
		if !ok {
			return mixedTypeOrder(a, b)
		}
		switch {
		case !x && y:
			return -1
		case x && !y:
			return 1
		}
		return 0
	case time.Time:
		y, ok := b.(time.Time)
		if !ok {
			return mixedTypeOrder(a, b)
		}
		switch {
		case x.Before(y):
			return -1
		case x.After(y):
			return 1
		}
		return 0
	}
	return mixedTypeOrder(a, b)
}

// mixedTypeOrder gives a stable (if arbitrary) order across values of
// different dynamic types, so sorting never panics on corrupt input.
func mixedTypeOrder(a, b any) int {
	sa, sb := fmt.Sprintf("%T%v", a, a), fmt.Sprintf("%T%v", b, b)
	switch {
	case sa < sb:
		return -1
	case sa > sb:
		return 1
	}
	return 0
}
