package relstore

import "fmt"

// undoOp reverses one mutation when a transaction rolls back.
type undoOp struct {
	table string
	pk    string
	// before == nil means the op inserted a new row (undo = delete);
	// inserted == false && before != nil means update (undo = restore);
	// deleted rows carry before != nil with inserted == false as well,
	// distinguished by present == false.
	before  Row
	present bool // row existed before the mutation
}

// walRec is one redo record for the write-ahead log.
type walRec struct {
	Op    walOp
	Table string
	Row   Row
	PK    any
	DDL   *Schema
}

// Tx is a transaction over a set of tables. The engine uses per-table
// two-phase locking: the transaction holds exclusive locks on the
// tables it writes and shared locks on their foreign-key neighbours
// from first touch (or from Begin, when declared) until Commit or
// Rollback. Transactions over disjoint tables run in parallel, and
// queries of unrelated tables are never blocked. Rollback restores the
// exact pre-transaction state.
//
// A transaction belongs to one goroutine. While it is open that
// goroutine must read through the transaction's own Get/Select (which
// see its uncommitted writes) rather than the DB-level methods, which
// would wait for the transaction's locks.
type Tx struct {
	db    *DB
	modes map[string]lockMode // table name -> strongest held mode
	held  []heldLock          // acquisition order, for release
	top   string              // greatest table name locked so far
	undo  []undoOp
	redo  []walRec
	done  bool
}

// Begin opens a transaction. Declaring the tables the transaction will
// write acquires every lock up front in sorted order, which is required
// when the transaction writes tables in an order that is not itself
// ascending. With no declared tables, locks are acquired lazily at
// first touch; that succeeds whenever each newly touched table sorts
// after all tables already locked (single-table transactions always
// do), and fails with ErrLockOrder otherwise.
func (db *DB) Begin(tables ...string) (*Tx, error) {
	db.metaMu.RLock()
	tx := &Tx{db: db, modes: make(map[string]lockMode)}
	if len(tables) == 0 {
		return tx, nil
	}
	needs := make(map[string]lockMode)
	for _, name := range tables {
		if _, ok := db.tables[name]; !ok {
			db.metaMu.RUnlock()
			return nil, fmt.Errorf("%w: %s", ErrNoTable, name)
		}
		for n, m := range db.writeNeeds(name) {
			if m > needs[n] {
				needs[n] = m
			}
		}
	}
	if err := tx.acquire(needs); err != nil {
		tx.release()
		return nil, err
	}
	return tx, nil
}

// Commit makes the transaction's effects durable (appending them to the
// WAL in one record when a log is attached) and releases every lock.
func (tx *Tx) Commit() error {
	return tx.CommitThen(nil)
}

// CommitThen is Commit with a post-commit hook that runs BEFORE the
// transaction's locks release: fn observes the committed state while
// nothing — not another writer, not a checkpoint's write-quiescent
// window — can slip between the commit and the hook. This is the
// ordering derived caches (the document store's content index) need:
// a checkpoint that captures the cache inside its quiescent window can
// never observe a committed row whose hook has not run yet. fn must
// not touch the database through this or any other transaction.
func (tx *Tx) CommitThen(fn func()) error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	var err error
	if tx.db.wal != nil && len(tx.redo) > 0 {
		err = tx.db.wal.append(tx.redo)
	}
	// A failed WAL append keeps the in-memory mutations (the existing
	// Commit contract), so the hook still reflects the live state.
	if fn != nil {
		fn()
	}
	tx.release()
	return err
}

// Rollback undoes every mutation made through the transaction and
// releases every lock.
func (tx *Tx) Rollback() error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	// Undo in reverse order. Every table in the undo log is
	// write-locked by this transaction.
	for i := len(tx.undo) - 1; i >= 0; i-- {
		op := tx.undo[i]
		t := tx.db.tables[op.table]
		if t == nil {
			continue
		}
		cur, exists := t.rows[op.pk]
		if exists {
			delete(t.rows, op.pk)
			for _, ix := range t.indexes {
				ix.remove(cur, op.pk)
			}
			t.orderedRemove(cur, op.pk)
		}
		if op.present {
			t.rows[op.pk] = op.before
			for _, ix := range t.indexes {
				ix.add(op.before, op.pk)
			}
			t.orderedAdd(op.before, op.pk)
		}
		t.dirty = true
	}
	tx.release()
	return nil
}

// Insert adds a row inside the transaction.
func (tx *Tx) Insert(tableName string, r Row) error {
	if tx.done {
		return ErrTxDone
	}
	t, ok := tx.db.tables[tableName]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoTable, tableName)
	}
	if err := tx.acquireWrite(tableName); err != nil {
		return err
	}
	row, err := t.normalizeRow(r, true)
	if err != nil {
		return err
	}
	pk, err := tx.db.insertLocked(t, row)
	if err != nil {
		return err
	}
	tx.undo = append(tx.undo, undoOp{table: tableName, pk: pk})
	tx.redo = append(tx.redo, walRec{Op: walOpInsert, Table: tableName, Row: row})
	return nil
}

// Update merges column changes into an existing row inside the
// transaction. Changing the primary-key column is rejected.
func (tx *Tx) Update(tableName string, pkVal any, changes Row) error {
	if tx.done {
		return ErrTxDone
	}
	t, ok := tx.db.tables[tableName]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoTable, tableName)
	}
	if err := tx.acquireWrite(tableName); err != nil {
		return err
	}
	keyCol, _ := t.schema.column(t.schema.Key)
	cv, err := coerce(keyCol.Type, pkVal)
	if err != nil {
		return err
	}
	pk := encodeKey(cv)
	old, ok := t.rows[pk]
	if !ok {
		return fmt.Errorf("%w: %s[%v]", ErrNotFound, tableName, pkVal)
	}
	norm, err := t.normalizeRow(changes, false)
	if err != nil {
		return err
	}
	if nv, touched := norm[t.schema.Key]; touched && compareValues(nv, old[t.schema.Key]) != 0 {
		return fmt.Errorf("%w: %s[%v]", ErrKeyChange, tableName, pkVal)
	}
	merged := old.Clone()
	for k, v := range norm {
		merged[k] = v
	}
	// Re-validate NOT NULL on the merged row and re-check foreign keys.
	for _, col := range t.schema.Columns {
		if col.NotNull && merged[col.Name] == nil {
			return fmt.Errorf("%w: %s.%s", ErrNull, tableName, col.Name)
		}
	}
	if err := tx.db.checkFKs(t, merged); err != nil {
		return err
	}
	for _, ix := range t.indexes {
		ix.remove(old, pk)
		ix.add(merged, pk)
	}
	t.orderedRemove(old, pk)
	t.orderedAdd(merged, pk)
	t.rows[pk] = merged
	t.dirty = true
	tx.undo = append(tx.undo, undoOp{table: tableName, pk: pk, before: old, present: true})
	tx.redo = append(tx.redo, walRec{Op: walOpUpdate, Table: tableName, PK: cv, Row: norm})
	return nil
}

// Delete removes a row inside the transaction, enforcing referential
// integrity (restrict semantics).
func (tx *Tx) Delete(tableName string, pkVal any) error {
	if tx.done {
		return ErrTxDone
	}
	t, ok := tx.db.tables[tableName]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoTable, tableName)
	}
	if err := tx.acquireWrite(tableName); err != nil {
		return err
	}
	keyCol, _ := t.schema.column(t.schema.Key)
	cv, err := coerce(keyCol.Type, pkVal)
	if err != nil {
		return err
	}
	pk := encodeKey(cv)
	old, err := tx.db.deleteLocked(t, pk)
	if err != nil {
		return err
	}
	tx.undo = append(tx.undo, undoOp{table: tableName, pk: pk, before: old, present: true})
	tx.redo = append(tx.redo, walRec{Op: walOpDelete, Table: tableName, PK: cv})
	return nil
}

// Get fetches a row by primary key from inside the transaction, seeing
// the transaction's own uncommitted writes. The table is read-locked
// lazily if the transaction does not already hold it.
func (tx *Tx) Get(tableName string, pkVal any) (Row, error) {
	if tx.done {
		return nil, ErrTxDone
	}
	t, ok := tx.db.tables[tableName]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, tableName)
	}
	if err := tx.acquire(map[string]lockMode{tableName: lockRead}); err != nil {
		return nil, err
	}
	return t.getLocked(pkVal)
}

// Select runs a query inside the transaction, seeing the transaction's
// own uncommitted writes. The table is read-locked lazily if the
// transaction does not already hold it.
func (tx *Tx) Select(q Query) ([]Row, error) {
	if tx.done {
		return nil, ErrTxDone
	}
	t, ok := tx.db.tables[q.Table]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, q.Table)
	}
	if err := tx.acquire(map[string]lockMode{q.Table: lockRead}); err != nil {
		return nil, err
	}
	return t.selectLocked(q)
}

// Count reports how many rows match the query's conditions (OrderBy
// and Limit play no part) as seen inside the transaction, without
// cloning them. The table is read-locked lazily like Select.
func (tx *Tx) Count(q Query) (int, error) {
	if tx.done {
		return 0, ErrTxDone
	}
	t, ok := tx.db.tables[q.Table]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoTable, q.Table)
	}
	if err := tx.acquire(map[string]lockMode{q.Table: lockRead}); err != nil {
		return 0, err
	}
	return t.countLocked(q)
}
