package obs

// ring is the retention SpanRing and EventRing share: a fixed FIFO of
// the newest entries plus a small reservoir of notable ones that
// survives FIFO eviction. Pure FIFO eviction loses exactly the
// interesting evidence — one slow hop or one down-declaration drowned
// by thousands of routine records — so notable entries are pinned past
// it. The owner supplies the policy (which entries are notable, how
// they rank, what identifies them) and holds its own lock around every
// call.
type ring[T any] struct {
	buf      []T
	next     int
	full     bool
	notable  []T
	outranks func(a, b *T) bool // a deserves a reservoir slot over b
	key      func(*T) uint64    // identity, for deduping snapshots
}

func newRing[T any](capacity int, outranks func(a, b *T) bool, key func(*T) uint64) ring[T] {
	return ring[T]{
		buf:      make([]T, capacity),
		notable:  make([]T, 0, max(capacity/64, 16)),
		outranks: outranks,
		key:      key,
	}
}

// add records v, evicting the oldest entry when full. A notable v also
// competes for a reservoir slot, displacing the weakest holder it
// outranks.
func (r *ring[T]) add(v T, notable bool) {
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	if !notable {
		return
	}
	if len(r.notable) < cap(r.notable) {
		r.notable = append(r.notable, v)
		return
	}
	weakest := 0
	for i := range r.notable {
		if r.outranks(&r.notable[weakest], &r.notable[i]) {
			weakest = i
		}
	}
	if r.outranks(&v, &r.notable[weakest]) {
		r.notable[weakest] = v
	}
}

// snapshot returns the FIFO oldest first, then the reservoir entries
// the FIFO no longer holds; merged reports whether any were appended,
// in which case the owner re-sorts into its own order.
func (r *ring[T]) snapshot() (out []T, merged bool) {
	if r.full {
		out = append(out, r.buf[r.next:]...)
	}
	out = append(out, r.buf[:r.next]...)
	if len(r.notable) == 0 {
		return out, false
	}
	seen := make(map[uint64]bool, len(out))
	for i := range out {
		seen[r.key(&out[i])] = true
	}
	for i := range r.notable {
		if !seen[r.key(&r.notable[i])] {
			out = append(out, r.notable[i])
			merged = true
		}
	}
	return out, merged
}
