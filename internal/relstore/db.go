package relstore

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// table is the in-memory storage of one relation.
type table struct {
	// mu guards rows, indexes and ordered. Writers (transactions that
	// mutate the table) hold it exclusively; queries and foreign-key
	// checks from transactions on referencing tables hold it shared.
	// See lock.go for the acquisition order.
	mu sync.RWMutex

	*layout
	rows    map[string]tuple  // encoded pk -> stored tuple
	indexes map[string]*index // index name (its column list) -> hash index

	// built lists the hash indexes a lookup has built, in build order.
	// Writers maintain only these, so a write pays nothing for an
	// index no lookup has used. ensure appends under cacheMu (it may
	// run under the shared table lock); writers read it under the
	// exclusive one.
	built []*index

	// ordered holds the ordered (range) indexes, keyed by column; nil
	// until CreateOrderedIndex is used.
	ordered map[string]*orderedIndex

	// Sorted-key cache for deterministic scans, rebuilt lazily: writers
	// (who hold the table write lock) mark it dirty; readers rebuild
	// it on demand under cacheMu so concurrent scans stay safe.
	cacheMu   sync.Mutex
	sortedPKs []string
	dirty     bool
}

// index is a hash index mapping the encoded values of one or more
// columns to the set of encoded primary keys holding them. A partial
// index (nullOnly set) holds only the rows whose nullOnly column is
// NULL — the open rows of a ledger — so rows that have left that state
// cost it nothing.
//
// An index starts unbuilt: creating it, installing a snapshot and
// replaying a WAL tail fill no buckets. Its first lookup builds it from
// the table's rows (table.ensure), and from then on it sits in
// table.built and every writer maintains it. An unbuilt index is never
// read, and writers skip it.
type index struct {
	columns  []string
	nullOnly string
	cols     []int // positions of columns
	nullPos  int   // position of nullOnly, -1 for a full index
	once     sync.Once
	buckets  map[string]map[string]struct{} // nil until built
}

// newIndex builds an empty index over columns of the layout, checking
// that every named column exists.
func (l *layout) newIndex(nullOnly string, columns ...string) (*index, error) {
	if len(columns) == 0 {
		return nil, fmt.Errorf("relstore: index on %s names no column", l.schema.Name)
	}
	ix := &index{columns: columns, nullOnly: nullOnly, nullPos: -1}
	for _, col := range columns {
		p, err := l.column(col)
		if err != nil {
			return nil, err
		}
		ix.cols = append(ix.cols, p)
	}
	if nullOnly != "" {
		p, err := l.column(nullOnly)
		if err != nil {
			return nil, err
		}
		ix.nullPos = p
	}
	return ix, nil
}

// name is the key the index goes by in table.indexes and in
// snapshots: its column list, for one column the column's name, with
// "|<column>" appended for a partial index.
func (ix *index) name() string {
	name := strings.Join(ix.columns, ",")
	if ix.nullOnly != "" {
		name += "|" + ix.nullOnly
	}
	return name
}

// appendKeyOf appends the bucket key of the values val reports for the
// indexed columns (val(i) is the value of columns[i]). Parts are
// length-prefixed, so two different value lists never share a key.
func (ix *index) appendKeyOf(dst []byte, val func(i int) any) []byte {
	if len(ix.cols) == 1 {
		return appendKey(dst, val(0))
	}
	for i := range ix.cols {
		var buf keyBuf
		part := appendKey(buf[:0], val(i))
		dst = strconv.AppendInt(dst, int64(len(part)), 10)
		dst = append(dst, ':')
		dst = append(dst, part...)
	}
	return dst
}

// appendKey appends the bucket key of a tuple.
func (ix *index) appendKey(dst []byte, tp tuple) []byte {
	if len(ix.cols) == 1 {
		return appendKey(dst, tp[ix.cols[0]])
	}
	return ix.appendKeyOf(dst, func(i int) any { return tp[ix.cols[i]] })
}

// holds reports whether the index covers the tuple: every row for a
// full index, only rows whose nullOnly column is NULL for a partial one.
func (ix *index) holds(tp tuple) bool {
	return ix.nullPos < 0 || tp[ix.nullPos] == nil
}

func (ix *index) add(tp tuple, pk string) {
	if !ix.holds(tp) {
		return
	}
	var buf keyBuf
	k := ix.appendKey(buf[:0], tp)
	b := ix.buckets[string(k)]
	if b == nil {
		b = make(map[string]struct{})
		ix.buckets[string(k)] = b
	}
	b[pk] = struct{}{}
}

func (ix *index) remove(tp tuple, pk string) {
	if !ix.holds(tp) {
		return
	}
	var buf keyBuf
	k := ix.appendKey(buf[:0], tp)
	if b := ix.buckets[string(k)]; b != nil {
		delete(b, pk)
		if len(b) == 0 {
			delete(ix.buckets, string(k))
		}
	}
}

// ensure builds ix, one of t's indexes, from t's rows on its first
// call, and adds it to the indexes writers maintain. The caller holds
// t's lock in either mode, so the rows cannot change while it runs;
// concurrent readers of an unbuilt index wait for its one build.
func (t *table) ensure(ix *index) {
	ix.once.Do(func() {
		ix.buckets = make(map[string]map[string]struct{})
		for pk, tp := range t.rows {
			ix.add(tp, pk)
		}
		t.cacheMu.Lock()
		t.built = append(t.built, ix)
		t.cacheMu.Unlock()
	})
}

// BuiltIndexes names the hash indexes that lookups have built, as
// "table.index" in sorted order. Recovery builds none; each index is
// built on its first lookup and counted once.
func (db *DB) BuiltIndexes() []string {
	db.metaMu.RLock()
	defer db.metaMu.RUnlock()
	var names []string
	for name, t := range db.tables {
		t.cacheMu.Lock()
		for _, ix := range t.built {
			names = append(names, name+"."+ix.name())
		}
		t.cacheMu.Unlock()
	}
	sort.Strings(names)
	return names
}

// sortedPKs lists a bucket's primary keys in ascending order.
func sortedPKs(b map[string]struct{}) []string {
	if len(b) == 0 {
		return nil
	}
	pks := make([]string, 0, len(b))
	for pk := range b {
		pks = append(pks, pk)
	}
	sort.Strings(pks)
	return pks
}

// DB is an embedded relational database with per-table concurrency
// control: each table carries its own reader/writer lock, so queries
// and transactions proceed in parallel as long as they touch disjoint
// tables, and any number of readers share a table between writes. All
// methods are safe for concurrent use. Higher-level (document-object)
// concurrency control remains the job of the document-layer lock
// manager, as in the paper.
type DB struct {
	// metaMu freezes the table set, the schemas and the WAL attachment:
	// held shared by every query and transaction for its duration,
	// exclusively by DDL. See lock.go for the full locking story.
	metaMu sync.RWMutex
	tables map[string]*table
	wal    *walTail // attached by OpenDurable; nil without a log

	// seq is the WAL sequence high-water: the Seq of the last record
	// appended, or the one OpenDurable recovered. It outlives CloseWAL.
	seq atomic.Uint64

	// ckptMu serializes checkpoints and guards the durability state
	// below (see checkpoint.go).
	ckptMu sync.Mutex
	dir    string // durability directory attached by OpenDurable
	gen    uint64 // generation of the newest installed checkpoint
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{tables: make(map[string]*table)}
}

// CreateTable registers a new relation.
func (db *DB) CreateTable(s Schema) error {
	if err := s.validate(); err != nil {
		return err
	}
	return db.createTable(newLayout(s))
}

// createTable registers a relation over the layout of a validated
// schema.
func (db *DB) createTable(l *layout) error {
	s := l.schema
	db.metaMu.Lock()
	defer db.metaMu.Unlock()
	if _, ok := db.tables[s.Name]; ok {
		return fmt.Errorf("%w: %s", ErrTableExists, s.Name)
	}
	t := &table{
		layout:  l,
		rows:    make(map[string]tuple),
		indexes: make(map[string]*index),
	}
	// Foreign-key columns are always indexed so referential checks and
	// reverse lookups stay O(1), the way the SQL server would index them.
	for _, fk := range s.ForeignKeys {
		if _, ok := t.indexes[fk.Column]; !ok {
			t.indexes[fk.Column], _ = t.newIndex("", fk.Column) // validate checked the column
		}
	}
	db.tables[s.Name] = t
	if err := db.logDDL(s); err != nil {
		delete(db.tables, s.Name)
		return fmt.Errorf("relstore: logging CREATE TABLE %s: %w", s.Name, err)
	}
	return nil
}

// DropTable removes a relation and its rows. It fails if rows of other
// tables still reference it through a foreign key.
func (db *DB) DropTable(name string) error {
	db.metaMu.Lock()
	defer db.metaMu.Unlock()
	t, ok := db.tables[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	for _, other := range db.tables {
		if other == t {
			continue
		}
		for i, fk := range other.schema.ForeignKeys {
			if fk.RefTable != name {
				continue
			}
			for _, tp := range other.rows {
				if tp[other.fks[i]] != nil {
					return fmt.Errorf("%w: table %s still referenced by %s.%s",
						ErrFK, name, other.schema.Name, fk.Column)
				}
			}
		}
	}
	delete(db.tables, name)
	if err := db.logDrop(name); err != nil {
		db.tables[name] = t
		return fmt.Errorf("relstore: logging DROP TABLE %s: %w", name, err)
	}
	return nil
}

// CreateIndex adds a hash index over one or more columns of a table. A
// query is served from it when every one of its columns is pinned by
// an equality condition. Indexing an already-indexed column list is a
// no-op.
func (db *DB) CreateIndex(tableName string, columns ...string) error {
	return db.createIndex(tableName, "", columns)
}

// CreatePartialIndex adds a hash index over columns that holds only
// the rows whose nullOnly column is NULL, and serves the queries that
// ask for exactly those (nullOnly IS NULL, the columns pinned). The
// rows of a ledger that are still open are the intended use: however
// long the closed history grows, the index stays as small as the open
// set.
func (db *DB) CreatePartialIndex(tableName, nullOnly string, columns ...string) error {
	return db.createIndex(tableName, nullOnly, columns)
}

func (db *DB) createIndex(tableName, nullOnly string, columns []string) error {
	db.metaMu.Lock()
	defer db.metaMu.Unlock()
	t, ok := db.tables[tableName]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoTable, tableName)
	}
	ix, err := t.newIndex(nullOnly, columns...)
	if err != nil {
		return err
	}
	if _, ok := t.indexes[ix.name()]; !ok {
		t.indexes[ix.name()] = ix // built on its first lookup
	}
	return nil
}

// Tables returns the sorted names of all relations.
func (db *DB) Tables() []string {
	db.metaMu.RLock()
	defer db.metaMu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SchemaOf returns the schema of a table.
func (db *DB) SchemaOf(name string) (Schema, error) {
	db.metaMu.RLock()
	defer db.metaMu.RUnlock()
	t, ok := db.tables[name]
	if !ok {
		return Schema{}, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	return t.schema, nil
}

// Count returns the number of rows in a table.
func (db *DB) Count(name string) (int, error) {
	db.metaMu.RLock()
	defer db.metaMu.RUnlock()
	t, ok := db.tables[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows), nil
}

// checkFKs verifies every non-NULL foreign-key value in the tuple exists
// as a primary key of the referenced table. Caller holds (at least)
// read locks on every referenced table, or metaMu exclusively.
func (db *DB) checkFKs(t *table, tp tuple) error {
	for i, fk := range t.schema.ForeignKeys {
		v := tp[t.fks[i]]
		if v == nil {
			continue
		}
		ref, ok := db.tables[fk.RefTable]
		if !ok {
			return fmt.Errorf("%w: %s.%s references missing table %s",
				ErrFK, t.schema.Name, fk.Column, fk.RefTable)
		}
		var buf keyBuf
		if _, ok := ref.rows[string(appendKey(buf[:0], v))]; !ok {
			return fmt.Errorf("%w: %s.%s=%v has no match in %s",
				ErrFK, t.schema.Name, fk.Column, v, fk.RefTable)
		}
	}
	return nil
}

// referencers returns (table, column) pairs of rows referencing the
// given primary key of the given table. Caller holds (at least) read
// locks on every table referencing the named one, or metaMu
// exclusively.
func (db *DB) referencers(name string, pkVal any) []string {
	var buf keyBuf
	key := appendKey(buf[:0], pkVal)
	var hits []string
	for _, other := range db.tables {
		for _, fk := range other.schema.ForeignKeys {
			if fk.RefTable != name {
				continue
			}
			ix := other.indexes[fk.Column]
			if ix == nil {
				continue // FK columns are always indexed at CreateTable
			}
			other.ensure(ix)
			if n := len(ix.buckets[string(key)]); n > 0 {
				hits = append(hits, fmt.Sprintf("%s.%s(%d rows)", other.schema.Name, fk.Column, n))
			}
		}
	}
	sort.Strings(hits)
	return hits
}

// insertLocked adds a coerced tuple after checking its NOT NULL columns
// and foreign keys. Caller holds the table's write lock plus read locks
// on its referenced tables (or metaMu exclusively).
func (db *DB) insertLocked(t *table, tp tuple) (string, error) {
	if err := t.checkNotNull(tp); err != nil {
		return "", err
	}
	if err := db.checkFKs(t, tp); err != nil {
		return "", err
	}
	return db.insertRawLocked(t, tp)
}

// insertRawLocked adds a coerced tuple without NOT NULL or foreign-key
// checks. Only snapshot restore, which checks both itself and runs on a
// private database, may use it.
func (db *DB) insertRawLocked(t *table, tp tuple) (string, error) {
	pkVal := tp[t.key]
	if pkVal == nil {
		return "", fmt.Errorf("%w: %s.%s", ErrNull, t.schema.Name, t.schema.Key)
	}
	pk := encodeKey(pkVal)
	if _, exists := t.rows[pk]; exists {
		return "", fmt.Errorf("%w: %s[%v]", ErrDuplicate, t.schema.Name, pkVal)
	}
	t.rows[pk] = tp
	t.dirty = true
	for _, ix := range t.built {
		ix.add(tp, pk)
	}
	t.orderedAdd(tp, pk)
	return pk, nil
}

// verifyAllFKs checks every foreign key of every row, returning the
// first violation found.
func (db *DB) verifyAllFKs() error {
	db.metaMu.RLock()
	defer db.metaMu.RUnlock()
	names := db.tableNamesLocked()
	for _, n := range names {
		db.tables[n].mu.RLock()
	}
	defer func() {
		for i := len(names) - 1; i >= 0; i-- {
			db.tables[names[i]].mu.RUnlock()
		}
	}()
	for _, t := range db.tables {
		if len(t.schema.ForeignKeys) == 0 {
			continue
		}
		for _, tp := range t.rows {
			if err := db.checkFKs(t, tp); err != nil {
				return err
			}
		}
	}
	return nil
}

// deleteLocked removes the row with the encoded pk. Caller holds the
// table's write lock plus read locks on every table referencing it (or
// metaMu exclusively).
func (db *DB) deleteLocked(t *table, pk string) (tuple, error) {
	tp, ok := t.rows[pk]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, t.schema.Name)
	}
	if refs := db.referencers(t.schema.Name, tp[t.key]); len(refs) > 0 {
		return nil, fmt.Errorf("%w: %s[%v] still referenced by %v",
			ErrFK, t.schema.Name, tp[t.key], refs)
	}
	delete(t.rows, pk)
	t.dirty = true
	for _, ix := range t.built {
		ix.remove(tp, pk)
	}
	t.orderedRemove(tp, pk)
	return tp, nil
}

// Insert adds a row, auto-committing. Use Begin for multi-row atomicity
// or Apply for batched writes.
func (db *DB) Insert(tableName string, r Row) error {
	tx, err := db.Begin(tableName)
	if err != nil {
		return err
	}
	if err := tx.Insert(tableName, r); err != nil {
		tx.Rollback()
		return err
	}
	return tx.Commit()
}

// Get fetches the row with the given primary-key value.
func (db *DB) Get(tableName string, pkVal any) (Row, error) {
	db.metaMu.RLock()
	defer db.metaMu.RUnlock()
	t, ok := db.tables[tableName]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, tableName)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.getLocked(pkVal)
}

// getLocked fetches a row by primary key. Caller holds the table lock
// in either mode.
func (t *table) getLocked(pkVal any) (Row, error) {
	cv, err := coerce(t.schema.Columns[t.key].Type, pkVal)
	if err != nil {
		return nil, err
	}
	var buf keyBuf
	tp, ok := t.rows[string(appendKey(buf[:0], cv))]
	if !ok {
		return nil, fmt.Errorf("%w: %s[%v]", ErrNotFound, t.schema.Name, pkVal)
	}
	return t.row(tp), nil
}

// pkOf coerces a primary-key value and renders its encoded key.
func (t *table) pkOf(pkVal any) (any, string, error) {
	cv, err := coerce(t.schema.Columns[t.key].Type, pkVal)
	if err != nil {
		return nil, "", err
	}
	return cv, encodeKey(cv), nil
}

// Exists reports whether a row with the given primary key exists.
func (db *DB) Exists(tableName string, pkVal any) bool {
	_, err := db.Get(tableName, pkVal)
	return err == nil
}

// Update merges the supplied column changes into the row with the given
// primary key, auto-committing.
func (db *DB) Update(tableName string, pkVal any, changes Row) error {
	tx, err := db.Begin(tableName)
	if err != nil {
		return err
	}
	if err := tx.Update(tableName, pkVal, changes); err != nil {
		tx.Rollback()
		return err
	}
	return tx.Commit()
}

// Delete removes the row with the given primary key, auto-committing.
// Deleting a row still referenced through a foreign key fails with ErrFK.
func (db *DB) Delete(tableName string, pkVal any) error {
	tx, err := db.Begin(tableName)
	if err != nil {
		return err
	}
	if err := tx.Delete(tableName, pkVal); err != nil {
		tx.Rollback()
		return err
	}
	return tx.Commit()
}

// sortedKeysLocked returns the table's primary keys in sorted order,
// rebuilding the cache when the table changed. Caller holds at least
// the table's read lock (so no writer mutates rows concurrently);
// cacheMu serializes the rebuild among concurrent readers.
func (t *table) sortedKeysLocked() []string {
	t.cacheMu.Lock()
	defer t.cacheMu.Unlock()
	if !t.dirty && t.sortedPKs != nil {
		return t.sortedPKs
	}
	pks := make([]string, 0, len(t.rows))
	for pk := range t.rows {
		pks = append(pks, pk)
	}
	sort.Strings(pks)
	t.sortedPKs = pks
	t.dirty = false
	return pks
}
