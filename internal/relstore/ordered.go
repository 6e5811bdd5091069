package relstore

import (
	"fmt"
	"sort"
)

// orderedEntry is one (value, pk) pair of an ordered index.
type orderedEntry struct {
	val any
	pk  string
}

// orderedIndex keeps a column's values in sorted order so range
// predicates (<, <=, >, >=) and ORDER BY on the column run off the
// index instead of a full scan. Inserts and deletes are O(n) memmoves,
// the classic trade of a sorted array against the table sizes this
// engine serves.
type orderedIndex struct {
	pos  int            // position of the indexed column
	keys []orderedEntry // sorted by compareValues(val), ties by pk
}

// search returns the first position whose entry is >= (val, pk).
func (ix *orderedIndex) search(val any, pk string) int {
	return sort.Search(len(ix.keys), func(i int) bool {
		c := compareValues(ix.keys[i].val, val)
		if c != 0 {
			return c > 0
		}
		return ix.keys[i].pk >= pk
	})
}

func (ix *orderedIndex) add(val any, pk string) {
	i := ix.search(val, pk)
	ix.keys = append(ix.keys, orderedEntry{})
	copy(ix.keys[i+1:], ix.keys[i:])
	ix.keys[i] = orderedEntry{val: val, pk: pk}
}

func (ix *orderedIndex) remove(val any, pk string) {
	i := ix.search(val, pk)
	if i < len(ix.keys) && compareValues(ix.keys[i].val, val) == 0 && ix.keys[i].pk == pk {
		ix.keys = append(ix.keys[:i], ix.keys[i+1:]...)
	}
}

// lowerBound returns the first position whose value is >= val (or > val
// when strict).
func (ix *orderedIndex) lowerBound(val any, strict bool) int {
	return sort.Search(len(ix.keys), func(i int) bool {
		c := compareValues(ix.keys[i].val, val)
		if strict {
			return c > 0
		}
		return c >= 0
	})
}

// rangePKs returns the primary keys satisfying one range operator, in
// value order. NULL values never satisfy a range predicate, matching
// Cond.matches.
func (ix *orderedIndex) rangePKs(op CmpOp, val any) []string {
	var lo, hi int
	switch op {
	case OpLt:
		lo, hi = 0, ix.lowerBound(val, false)
	case OpLe:
		lo, hi = 0, ix.lowerBound(val, true)
	case OpGt:
		lo, hi = ix.lowerBound(val, true), len(ix.keys)
	case OpGe:
		lo, hi = ix.lowerBound(val, false), len(ix.keys)
	case OpEq:
		lo, hi = ix.lowerBound(val, false), ix.lowerBound(val, true)
	default:
		return nil
	}
	out := make([]string, 0, hi-lo)
	for _, e := range ix.keys[lo:hi] {
		if e.val == nil {
			continue // NULLs sort first but never match ranges
		}
		out = append(out, e.pk)
	}
	return out
}

// CreateOrderedIndex adds an ordered index over one column, backfilling
// existing rows. Range conditions and equality conditions on the column
// are then served from the index.
func (db *DB) CreateOrderedIndex(tableName, column string) error {
	db.metaMu.Lock()
	defer db.metaMu.Unlock()
	t, ok := db.tables[tableName]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoTable, tableName)
	}
	p, err := t.column(column)
	if err != nil {
		return err
	}
	if t.ordered == nil {
		t.ordered = make(map[string]*orderedIndex)
	}
	if _, ok := t.ordered[column]; ok {
		return nil
	}
	// Backfill in one sort rather than n insertions.
	ix := &orderedIndex{pos: p, keys: make([]orderedEntry, 0, len(t.rows))}
	for pk, tp := range t.rows {
		ix.keys = append(ix.keys, orderedEntry{val: tp[p], pk: pk})
	}
	sort.Slice(ix.keys, func(i, j int) bool {
		c := compareValues(ix.keys[i].val, ix.keys[j].val)
		if c != 0 {
			return c < 0
		}
		return ix.keys[i].pk < ix.keys[j].pk
	})
	t.ordered[column] = ix
	return nil
}

// orderedAdd/orderedRemove update every ordered index of the table.
// Caller holds the table's write lock (or metaMu exclusively).
func (t *table) orderedAdd(tp tuple, pk string) {
	for _, ix := range t.ordered {
		ix.add(tp[ix.pos], pk)
	}
}

func (t *table) orderedRemove(tp tuple, pk string) {
	for _, ix := range t.ordered {
		ix.remove(tp[ix.pos], pk)
	}
}
