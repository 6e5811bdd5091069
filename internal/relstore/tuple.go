package relstore

import (
	"fmt"

	"repro/internal/wire"
)

// tuple is a row as the engine stores it: one value per column in
// Schema.Columns order, nil for NULL. Stored tuples are immutable —
// every mutation installs a fresh one — so indexes, the undo log and a
// captured snapshot may share them, and a snapshot can encode them
// after the table locks are dropped.
type tuple []any

// layout is a table's column catalog, computed once from its schema:
// the position of every column by name and the positions of the
// primary key and of each foreign-key column. On disk a row refers to
// its columns by position, so the positions mean what this catalog
// says they mean.
type layout struct {
	schema Schema
	pos    map[string]int
	key    int   // position of the primary key, -1 if it names no column
	fks    []int // fks[i] is the position of ForeignKeys[i].Column
}

func newLayout(s Schema) *layout {
	l := &layout{schema: s, pos: make(map[string]int, len(s.Columns)), key: -1}
	for i, c := range s.Columns {
		l.pos[c.Name] = i
	}
	if p, ok := l.pos[s.Key]; ok {
		l.key = p
	}
	for _, fk := range s.ForeignKeys {
		l.fks = append(l.fks, l.pos[fk.Column])
	}
	return l
}

// column returns the position of the named column, or ErrNoColumn.
func (l *layout) column(name string) (int, error) {
	if p, ok := l.pos[name]; ok {
		return p, nil
	}
	return 0, fmt.Errorf("%w: %s.%s", ErrNoColumn, l.schema.Name, name)
}

// row renders a stored tuple as the API's Row, a fresh map of the
// non-NULL columns.
func (l *layout) row(tp tuple) Row {
	n := 0
	for _, v := range tp {
		if v != nil {
			n++
		}
	}
	r := make(Row, n)
	for i, v := range tp {
		if v != nil {
			r[l.schema.Columns[i].Name] = v
		}
	}
	return r
}

// tuple coerces a caller's Row straight into a fresh tuple, rejecting
// unknown columns and values that do not fit their column's type.
func (l *layout) tuple(r Row) (tuple, error) {
	tp := make(tuple, len(l.schema.Columns))
	for name, v := range r {
		p, err := l.column(name)
		if err != nil {
			return nil, err
		}
		if tp[p], err = l.coerce(p, v); err != nil {
			return nil, err
		}
	}
	return tp, nil
}

// coerce normalizes a value for the column at position p.
func (l *layout) coerce(p int, v any) (any, error) {
	c := &l.schema.Columns[p]
	cv, err := coerce(c.Type, v)
	if err != nil {
		return nil, fmt.Errorf("%s.%s: %w", l.schema.Name, c.Name, err)
	}
	return cv, nil
}

// checkNotNull rejects a tuple leaving a NOT NULL column empty.
func (l *layout) checkNotNull(tp tuple) error {
	for i, c := range l.schema.Columns {
		if c.NotNull && tp[i] == nil {
			return fmt.Errorf("%w: %s.%s", ErrNull, l.schema.Name, c.Name)
		}
	}
	return nil
}

// The on-disk row grammar, shared by snapshots and WAL records, is a
// count followed by that many (uvarint column position, tagged value)
// pairs in ascending position order. A position indexes the schema the
// row is read against: in a snapshot, the schema written just before
// the table's rows; in the WAL, the table's layout at that point of
// the replay. A tuple omits its NULLs; an update's change set keeps
// them, since an explicit NULL clears a column.

// appendTuple encodes a tuple's non-NULL columns.
func (l *layout) appendTuple(dst []byte, tp tuple) ([]byte, error) {
	n := 0
	for _, v := range tp {
		if v != nil {
			n++
		}
	}
	dst = wire.AppendUvarint(dst, uint64(n))
	for p, v := range tp {
		if v != nil {
			var err error
			if dst, err = l.appendPair(dst, p, v); err != nil {
				return nil, err
			}
		}
	}
	return dst, nil
}

// appendChanges encodes an update's change set, whose names are all
// columns of the layout. Explicit NULLs are kept: they clear a column.
func (l *layout) appendChanges(dst []byte, changes Row) ([]byte, error) {
	dst = wire.AppendUvarint(dst, uint64(len(changes)))
	for p, c := range l.schema.Columns {
		if v, ok := changes[c.Name]; ok {
			var err error
			if dst, err = l.appendPair(dst, p, v); err != nil {
				return nil, err
			}
		}
	}
	return dst, nil
}

func (l *layout) appendPair(dst []byte, p int, v any) ([]byte, error) {
	dst = wire.AppendUvarint(dst, uint64(p))
	dst, err := wire.AppendValue(dst, v)
	if err != nil {
		return nil, fmt.Errorf("%s.%s: %w", l.schema.Name, l.schema.Columns[p].Name, err)
	}
	return dst, nil
}

// rowDecoder reads rows in the on-disk grammar for one recovery. It
// remembers, per column position, the last row that gave the position,
// so a position given twice is caught without clearing any state
// between rows, and it interns string values through a fixed-size
// wire.Interner: a string equal to the last one decoded into its slot
// comes back as the same boxed value, so a value repeated across
// thousands of rows (a script name, a scope) is allocated about once.
// The WAL decoder interns each record's table name and primary key
// through it too. []byte values are never shared, since callers may
// write into a Row's bytes.
type rowDecoder struct {
	marks []uint64
	row   uint64
	strs  wire.Interner
}

// pairs reads n (position, value) pairs against the layout and hands
// each value to set with its position. A position at or past the
// layout's columns and a position given twice are errors naming the
// table.
func (d *rowDecoder) pairs(r *wire.Reader, l *layout, n int, set func(p int, v any) error) error {
	ncol := len(l.schema.Columns)
	if len(d.marks) < ncol {
		d.marks = make([]uint64, ncol)
	}
	d.row++
	for i := 0; i < n && r.Err() == nil; i++ {
		pos := r.Uvarint()
		v := r.ValueIn(&d.strs)
		if r.Err() != nil {
			break
		}
		if pos >= uint64(ncol) {
			return fmt.Errorf("table %s: %w: position %d of %d columns", l.schema.Name, ErrNoColumn, pos, ncol)
		}
		p := int(pos)
		if d.marks[p] == d.row {
			return fmt.Errorf("table %s: a row names column %s twice", l.schema.Name, l.schema.Columns[p].Name)
		}
		d.marks[p] = d.row
		if err := set(p, v); err != nil {
			return err
		}
	}
	return nil
}

// tuple decodes one row into a fresh tuple.
func (d *rowDecoder) tuple(r *wire.Reader, l *layout) (tuple, error) {
	tp := make(tuple, len(l.schema.Columns))
	return tp, d.tupleInto(r, l, tp)
}

// tupleInto decodes one row into tp, which holds one nil per column of
// the layout, checking each value's type as coerce does.
func (d *rowDecoder) tupleInto(r *wire.Reader, l *layout, tp tuple) error {
	return d.pairs(r, l, r.Count(), func(p int, v any) (err error) {
		tp[p], err = l.coerce(p, v)
		return err
	})
}

// changes decodes one update change set. Its names are the layout's
// own strings, so decoding allocates none; values are coerced when the
// update applies.
func (d *rowDecoder) changes(r *wire.Reader, l *layout) (Row, error) {
	n := r.Count()
	row := make(Row, n)
	err := d.pairs(r, l, n, func(p int, v any) error {
		row[l.schema.Columns[p].Name] = v
		return nil
	})
	return row, err
}
