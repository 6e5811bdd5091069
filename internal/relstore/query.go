package relstore

import (
	"fmt"
	"sort"
	"strings"
)

// CmpOp is a comparison operator usable in a Cond.
type CmpOp int

// Comparison operators. OpContains and OpPrefix apply to TEXT columns
// only and support the virtual library's keyword matching.
const (
	OpEq CmpOp = iota + 1
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpContains
	OpPrefix
	OpIsNull
	OpNotNull
)

// String returns the SQL-ish spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpContains:
		return "CONTAINS"
	case OpPrefix:
		return "PREFIX"
	case OpIsNull:
		return "IS NULL"
	case OpNotNull:
		return "IS NOT NULL"
	default:
		return fmt.Sprintf("CmpOp(%d)", int(op))
	}
}

// Cond is one conjunct of a WHERE clause.
type Cond struct {
	Col string
	Op  CmpOp
	Val any
}

// Query describes a single-table selection. Conds are ANDed. A zero
// Limit means no limit.
type Query struct {
	Table   string
	Conds   []Cond
	OrderBy string
	Desc    bool
	Limit   int
}

// matches evaluates one condition against a coerced row value.
func (c *Cond) matches(rowVal, condVal any) bool {
	switch c.Op {
	case OpEq:
		return rowVal != nil && compareValues(rowVal, condVal) == 0
	case OpNe:
		return rowVal != nil && compareValues(rowVal, condVal) != 0
	case OpLt:
		return rowVal != nil && compareValues(rowVal, condVal) < 0
	case OpLe:
		return rowVal != nil && compareValues(rowVal, condVal) <= 0
	case OpGt:
		return rowVal != nil && compareValues(rowVal, condVal) > 0
	case OpGe:
		return rowVal != nil && compareValues(rowVal, condVal) >= 0
	case OpContains:
		s, ok1 := rowVal.(string)
		sub, ok2 := condVal.(string)
		return ok1 && ok2 && strings.Contains(s, sub)
	case OpPrefix:
		s, ok1 := rowVal.(string)
		pre, ok2 := condVal.(string)
		return ok1 && ok2 && strings.HasPrefix(s, pre)
	case OpIsNull:
		return rowVal == nil
	case OpNotNull:
		return rowVal != nil
	default:
		return false
	}
}

// Select runs a query and returns cloned result rows. Equality
// conditions on indexed columns are served from the hash index; other
// queries scan the table in deterministic primary-key order. Queries
// run concurrently with each other and with writes to other tables.
func (db *DB) Select(q Query) ([]Row, error) {
	db.metaMu.RLock()
	defer db.metaMu.RUnlock()
	t, ok := db.tables[q.Table]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, q.Table)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.selectLocked(q)
}

// accessPath is a planned query: its conditions and the candidate
// rows — a hash-index bucket when an index serves the query, a key
// list otherwise.
type accessPath struct {
	conds  []plannedCond
	order  int // position of the ORDER BY column, -1 for none
	bucket map[string]struct{}
	hashed bool // bucket (possibly empty) is the candidate set
	pks    []string
}

// plannedCond is a condition with its value coerced, its column's
// position, and whether the chosen access path already satisfies it.
type plannedCond struct {
	Cond
	pos     int
	covered bool
}

// planLocked validates the query and picks its access path. A
// primary-key equality names the row. Otherwise, among the hash
// indexes whose every column is pinned by an equality condition (a
// partial index also needs its IS NULL condition), the one with the
// fewest candidates serves; an ordered
// index on an equality or range condition comes next; failing all of
// those the table is scanned in primary-key order.
func (t *table) planLocked(q Query) (accessPath, error) {
	var p accessPath
	// Validate and coerce condition values against column types.
	p.conds = make([]plannedCond, len(q.Conds))
	for i, c := range q.Conds {
		pos, err := t.column(c.Col)
		if err != nil {
			return p, err
		}
		cv := c.Val
		if c.Op != OpContains && c.Op != OpPrefix && c.Op != OpIsNull && c.Op != OpNotNull {
			cv, err = coerce(t.schema.Columns[pos].Type, c.Val)
			if err != nil {
				return p, fmt.Errorf("condition on %s.%s: %w", q.Table, c.Col, err)
			}
		}
		p.conds[i] = plannedCond{Cond: Cond{Col: c.Col, Op: c.Op, Val: cv}, pos: pos}
	}
	p.order = -1
	if q.OrderBy != "" {
		var err error
		if p.order, err = t.column(q.OrderBy); err != nil {
			return p, fmt.Errorf("ORDER BY: %w", err)
		}
	}

	// find returns the first condition that applies op to col (an
	// equality with NULL matches no row and pins nothing), -1 when
	// there is none. A second such condition on the same column is
	// left to the per-row check.
	find := func(col string, op CmpOp) int {
		for i, c := range p.conds {
			if c.Col == col && c.Op == op && (op != OpEq || c.Val != nil) {
				return i
			}
		}
		return -1
	}
	if i := find(t.schema.Key, OpEq); i >= 0 {
		var buf keyBuf
		if pk := appendKey(buf[:0], p.conds[i].Val); t.rows[string(pk)] != nil {
			p.pks = []string{string(pk)}
		}
		p.conds[i].covered = true
		return p, nil
	}
	var best *index
	for _, ix := range t.indexes {
		usable := ix.nullOnly == "" || find(ix.nullOnly, OpIsNull) >= 0
		for _, col := range ix.columns {
			usable = usable && find(col, OpEq) >= 0
		}
		if !usable {
			continue
		}
		t.ensure(ix)
		var buf keyBuf
		b := ix.buckets[string(ix.appendKeyOf(buf[:0], func(i int) any { return p.conds[find(ix.columns[i], OpEq)].Val }))]
		// Ties go to the index that settles more conditions, then to
		// the smaller name, so the plan does not depend on map order.
		better := best == nil || len(b) < len(p.bucket)
		if !better && len(b) == len(p.bucket) {
			better = len(ix.columns) > len(best.columns) ||
				len(ix.columns) == len(best.columns) && ix.name() < best.name()
		}
		if better {
			best, p.bucket = ix, b
		}
	}
	if best != nil {
		p.hashed = true
		for _, col := range best.columns {
			p.conds[find(col, OpEq)].covered = true
		}
		if best.nullOnly != "" {
			p.conds[find(best.nullOnly, OpIsNull)].covered = true
		}
		return p, nil
	}
	for i, c := range p.conds {
		ix := t.ordered[c.Col]
		if ix == nil {
			continue
		}
		switch c.Op {
		case OpEq, OpLt, OpLe, OpGt, OpGe:
			p.pks = ix.rangePKs(c.Op, c.Val)
			p.conds[i].covered = true
			return p, nil
		}
	}
	p.pks = t.sortedKeysLocked()
	return p, nil
}

// settled reports whether the access path satisfies every condition.
func (p *accessPath) settled() bool {
	for i := range p.conds {
		if !p.conds[i].covered {
			return false
		}
	}
	return true
}

// matches reports whether a candidate row satisfies the conditions the
// access path did not.
func (p *accessPath) matches(tp tuple) bool {
	for i := range p.conds {
		c := &p.conds[i]
		if !c.covered && !c.matches(tp[c.pos], c.Val) {
			return false
		}
	}
	return true
}

// selectLocked evaluates the query. Caller holds the table lock in
// either mode.
func (t *table) selectLocked(q Query) ([]Row, error) {
	p, err := t.planLocked(q)
	if err != nil {
		return nil, err
	}
	candidates := p.pks
	if p.hashed {
		candidates = sortedPKs(p.bucket)
	}
	// Unordered, the first Limit matches in candidate order are the
	// answer. Ordered, the matching tuples are sorted first, and only
	// the rows the caller receives become Row maps.
	var out []Row
	var hits []tuple
	for _, pk := range candidates {
		tp, ok := t.rows[pk]
		if !ok || !p.matches(tp) {
			continue
		}
		if p.order >= 0 {
			hits = append(hits, tp)
			continue
		}
		if out = append(out, t.row(tp)); len(out) == q.Limit {
			break
		}
	}
	if p.order >= 0 {
		sort.SliceStable(hits, func(i, j int) bool {
			c := compareValues(hits[i][p.order], hits[j][p.order])
			if q.Desc {
				return c > 0
			}
			return c < 0
		})
		if q.Limit > 0 && len(hits) > q.Limit {
			hits = hits[:q.Limit]
		}
		for _, tp := range hits {
			out = append(out, t.row(tp))
		}
	}
	return out, nil
}

// countLocked counts the rows matching the query's conditions without
// materialising any; a hash index that covers every condition answers
// from its bucket size alone. Caller holds the table lock in either
// mode.
func (t *table) countLocked(q Query) (int, error) {
	p, err := t.planLocked(q)
	if err != nil {
		return 0, err
	}
	if p.hashed && p.settled() {
		return len(p.bucket), nil
	}
	n := 0
	for _, pk := range p.pks {
		if tp, ok := t.rows[pk]; ok && p.matches(tp) {
			n++
		}
	}
	for pk := range p.bucket {
		if p.matches(t.rows[pk]) {
			n++
		}
	}
	return n, nil
}

// Lookup is shorthand for an indexed equality select.
func (db *DB) Lookup(table, column string, val any) ([]Row, error) {
	return db.Select(Query{Table: table, Conds: []Cond{{Col: column, Op: OpEq, Val: val}}})
}

// Scan returns every row of the table in deterministic primary-key
// order, visiting each through fn until fn returns false. The table's
// read lock is held for the whole scan; fn must not call back into the
// database.
func (db *DB) Scan(table string, fn func(Row) bool) error {
	db.metaMu.RLock()
	defer db.metaMu.RUnlock()
	t, ok := db.tables[table]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoTable, table)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, pk := range t.sortedKeysLocked() {
		if !fn(t.row(t.rows[pk])) {
			return nil
		}
	}
	return nil
}

// ScanColumn visits the named column's value in every row of the
// table, nil for NULL, until fn returns false. Rows come in no
// particular order, and no Row or sorted key list is built, so a pass
// over one column of a large table allocates nothing per row. The
// table's read lock is held for the whole scan; fn must not call back
// into the database.
func (db *DB) ScanColumn(table, column string, fn func(v any) bool) error {
	db.metaMu.RLock()
	defer db.metaMu.RUnlock()
	t, ok := db.tables[table]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoTable, table)
	}
	p, err := t.column(column)
	if err != nil {
		return err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, tp := range t.rows {
		if !fn(tp[p]) {
			return nil
		}
	}
	return nil
}
