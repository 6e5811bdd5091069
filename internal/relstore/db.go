package relstore

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// table is the in-memory storage of one relation.
type table struct {
	// mu guards rows, indexes and ordered. Writers (transactions that
	// mutate the table) hold it exclusively; queries and foreign-key
	// checks from transactions on referencing tables hold it shared.
	// See lock.go for the acquisition order.
	mu sync.RWMutex

	schema  Schema
	rows    map[string]Row    // encoded pk -> canonical row
	indexes map[string]*index // index name (its column list) -> hash index

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
type index struct {
	columns  []string
	nullOnly string
	buckets  map[string]map[string]struct{}
}

func newIndex(nullOnly string, columns ...string) *index {
	return &index{columns: columns, nullOnly: nullOnly, buckets: make(map[string]map[string]struct{})}
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

// keyOf renders the bucket key of the values val reports for the
// indexed columns. Parts are length-prefixed, so two different value
// tuples never share a key.
func (ix *index) keyOf(val func(col string) any) string {
	if len(ix.columns) == 1 {
		return encodeKey(val(ix.columns[0]))
	}
	key := make([]byte, 0, 96)
	for _, col := range ix.columns {
		part := encodeKey(val(col))
		key = strconv.AppendInt(key, int64(len(part)), 10)
		key = append(key, ':')
		key = append(key, part...)
	}
	return string(key)
}

// key renders the bucket key of a row.
func (ix *index) key(row Row) string {
	if len(ix.columns) == 1 {
		return encodeKey(row[ix.columns[0]])
	}
	return ix.keyOf(func(col string) any { return row[col] })
}

func (ix *index) add(row Row, pk string) {
	if ix.nullOnly != "" && row[ix.nullOnly] != nil {
		return
	}
	k := ix.key(row)
	b := ix.buckets[k]
	if b == nil {
		b = make(map[string]struct{})
		ix.buckets[k] = b
	}
	b[pk] = struct{}{}
}

func (ix *index) remove(row Row, pk string) {
	if ix.nullOnly != "" && row[ix.nullOnly] != nil {
		return
	}
	k := ix.key(row)
	if b := ix.buckets[k]; b != nil {
		delete(b, pk)
		if len(b) == 0 {
			delete(ix.buckets, k)
		}
	}
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
	wal    *WAL // nil when WAL logging is disabled

	// lastSeq is the WAL sequence high-water observed outside an
	// attached log (latest replay, last CloseWAL); guarded by metaMu.
	lastSeq uint64

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
	db.metaMu.Lock()
	defer db.metaMu.Unlock()
	if _, ok := db.tables[s.Name]; ok {
		return fmt.Errorf("%w: %s", ErrTableExists, s.Name)
	}
	t := &table{
		schema:  s,
		rows:    make(map[string]Row),
		indexes: make(map[string]*index),
	}
	// Foreign-key columns are always indexed so referential checks and
	// reverse lookups stay O(1), the way the SQL server would index them.
	for _, fk := range s.ForeignKeys {
		if _, ok := t.indexes[fk.Column]; !ok {
			t.indexes[fk.Column] = newIndex("", fk.Column)
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
		for _, fk := range other.schema.ForeignKeys {
			if fk.RefTable != name {
				continue
			}
			for _, row := range other.rows {
				if row[fk.Column] != nil {
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
	return db.createIndex(tableName, newIndex("", columns...))
}

// CreatePartialIndex adds a hash index over columns that holds only
// the rows whose nullOnly column is NULL, and serves the queries that
// ask for exactly those (nullOnly IS NULL, the columns pinned). The
// rows of a ledger that are still open are the intended use: however
// long the closed history grows, the index stays as small as the open
// set.
func (db *DB) CreatePartialIndex(tableName, nullOnly string, columns ...string) error {
	return db.createIndex(tableName, newIndex(nullOnly, columns...))
}

func (db *DB) createIndex(tableName string, ix *index) error {
	db.metaMu.Lock()
	defer db.metaMu.Unlock()
	t, ok := db.tables[tableName]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoTable, tableName)
	}
	if len(ix.columns) == 0 {
		return fmt.Errorf("relstore: index on %s names no column", tableName)
	}
	named := ix.columns
	if ix.nullOnly != "" {
		named = append(slices.Clone(named), ix.nullOnly)
	}
	for _, column := range named {
		if _, ok := t.schema.column(column); !ok {
			return fmt.Errorf("%w: %s.%s", ErrNoColumn, tableName, column)
		}
	}
	if _, ok := t.indexes[ix.name()]; ok {
		return nil
	}
	for pk, row := range t.rows {
		ix.add(row, pk)
	}
	t.indexes[ix.name()] = ix
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

// normalizeRow coerces every supplied value, checks NOT NULL columns and
// rejects unknown columns. The returned row contains only canonical
// representations.
func (t *table) normalizeRow(r Row, requireAll bool) (Row, error) {
	out := make(Row, len(r))
	for name, v := range r {
		col, ok := t.schema.column(name)
		if !ok {
			return nil, fmt.Errorf("%w: %s.%s", ErrNoColumn, t.schema.Name, name)
		}
		cv, err := coerce(col.Type, v)
		if err != nil {
			return nil, fmt.Errorf("%s.%s: %w", t.schema.Name, name, err)
		}
		out[name] = cv
	}
	if requireAll {
		for _, col := range t.schema.Columns {
			if col.NotNull && out[col.Name] == nil {
				return nil, fmt.Errorf("%w: %s.%s", ErrNull, t.schema.Name, col.Name)
			}
		}
	}
	return out, nil
}

// checkFKs verifies every non-NULL foreign-key value in the row exists
// as a primary key of the referenced table. Caller holds (at least)
// read locks on every referenced table, or metaMu exclusively.
func (db *DB) checkFKs(t *table, row Row) error {
	for _, fk := range t.schema.ForeignKeys {
		v := row[fk.Column]
		if v == nil {
			continue
		}
		ref, ok := db.tables[fk.RefTable]
		if !ok {
			return fmt.Errorf("%w: %s.%s references missing table %s",
				ErrFK, t.schema.Name, fk.Column, fk.RefTable)
		}
		if _, ok := ref.rows[encodeKey(v)]; !ok {
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
			if n := len(ix.buckets[encodeKey(pkVal)]); n > 0 {
				hits = append(hits, fmt.Sprintf("%s.%s(%d rows)", other.schema.Name, fk.Column, n))
			}
		}
	}
	sort.Strings(hits)
	return hits
}

// insertLocked adds the normalized row. Caller holds the table's write
// lock plus read locks on its referenced tables (or metaMu
// exclusively).
func (db *DB) insertLocked(t *table, row Row) (string, error) {
	if err := db.checkFKs(t, row); err != nil {
		return "", err
	}
	return db.insertRawLocked(t, row)
}

// insertRawLocked adds the normalized row without foreign-key checks.
// Only snapshot restore, which verifies integrity afterwards and runs
// on a private database, may use it.
func (db *DB) insertRawLocked(t *table, row Row) (string, error) {
	pkVal := row[t.schema.Key]
	if pkVal == nil {
		return "", fmt.Errorf("%w: %s.%s", ErrNull, t.schema.Name, t.schema.Key)
	}
	pk := encodeKey(pkVal)
	if _, exists := t.rows[pk]; exists {
		return "", fmt.Errorf("%w: %s[%v]", ErrDuplicate, t.schema.Name, pkVal)
	}
	t.rows[pk] = row
	t.dirty = true
	for _, ix := range t.indexes {
		ix.add(row, pk)
	}
	t.orderedAdd(row, pk)
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
		for _, row := range t.rows {
			if err := db.checkFKs(t, row); err != nil {
				return err
			}
		}
	}
	return nil
}

// deleteLocked removes the row with the encoded pk. Caller holds the
// table's write lock plus read locks on every table referencing it (or
// metaMu exclusively).
func (db *DB) deleteLocked(t *table, pk string) (Row, error) {
	row, ok := t.rows[pk]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, t.schema.Name)
	}
	if refs := db.referencers(t.schema.Name, row[t.schema.Key]); len(refs) > 0 {
		return nil, fmt.Errorf("%w: %s[%v] still referenced by %v",
			ErrFK, t.schema.Name, row[t.schema.Key], refs)
	}
	delete(t.rows, pk)
	t.dirty = true
	for _, ix := range t.indexes {
		ix.remove(row, pk)
	}
	t.orderedRemove(row, pk)
	return row, nil
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
	col, _ := t.schema.column(t.schema.Key)
	cv, err := coerce(col.Type, pkVal)
	if err != nil {
		return nil, err
	}
	row, ok := t.rows[encodeKey(cv)]
	if !ok {
		return nil, fmt.Errorf("%w: %s[%v]", ErrNotFound, t.schema.Name, pkVal)
	}
	return row.Clone(), nil
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
