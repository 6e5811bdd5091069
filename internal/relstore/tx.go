package relstore

import (
	"fmt"
	"slices"
)

// undoOp reverses one mutation when a transaction rolls back: the
// row under pk is put back to before, or removed when the mutation
// inserted it (present false).
type undoOp struct {
	t       *table
	pk      string
	before  tuple
	present bool // row existed before the mutation
}

// walRec is one redo record for the write-ahead log, and one queued
// operation of a Batch.
type walRec struct {
	Op    walOp
	Table string
	PK    any
	// Tup is an insert's stored (or replayed) tuple. Row is an update's
	// change set, explicit NULLs included; a Batch also queues an
	// insert's caller-supplied Row here, coerced when it applies.
	Tup tuple
	Row Row
	DDL *Schema
	lay *layout // encodes Tup and Row; set on every record a Tx logs
}

// Tx is a transaction over a set of tables. The engine uses per-table
// two-phase locking: Begin takes exclusive locks on the tables the
// transaction declares and shared locks on their foreign-key
// neighbours, and the transaction holds exactly those until Commit or
// Rollback. It writes only declared tables and reads only tables it
// holds; any other table fails with ErrUndeclared. Transactions over
// disjoint tables run in parallel, and queries of unrelated tables are
// never blocked. Rollback restores the exact pre-transaction state.
//
// A transaction belongs to one goroutine. While it is open that
// goroutine must read through the transaction's own Get/Select (which
// see its uncommitted writes) rather than the DB-level methods, which
// would wait for the transaction's locks.
type Tx struct {
	db   *DB
	held []heldLock // sorted by table name
	undo []undoOp
	redo []walRec
	done bool
}

// Begin opens a transaction over the tables it declares, in any order:
// it takes every lock the transaction will hold before it returns, in
// ascending name order, so it never deadlocks with another
// transaction.
func (db *DB) Begin(tables ...string) (*Tx, error) {
	db.metaMu.RLock()
	tx := &Tx{db: db}
	for _, name := range tables {
		t, ok := db.tables[name]
		if !ok {
			db.metaMu.RUnlock()
			return nil, fmt.Errorf("%w: %s", ErrNoTable, name)
		}
		tx.held = db.writeNeeds(tx.held, t)
	}
	tx.lock()
	return tx, nil
}

// Commit makes the transaction's effects durable (appending them to the
// WAL in one record when a log is attached) and releases every lock.
func (tx *Tx) Commit() error {
	return tx.CommitThen(nil)
}

// CommitThen is Commit with a post-commit hook that runs BEFORE the
// transaction's locks release: fn observes the committed state while
// no other writer of the same tables can slip between the commit and
// the hook, so hooks run in commit order. This is the ordering derived
// caches (the document store's content index) need: two writers of one
// document update the cache in the order their rows committed. fn must
// not touch the database through this or any other transaction.
func (tx *Tx) CommitThen(fn func()) error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	var err error
	if tx.db.wal != nil && len(tx.redo) > 0 {
		err = tx.db.appendWAL(tx.redo)
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
	tx.undoLocked()
	tx.release()
	return nil
}

// undoLocked reverses every mutation in the undo log, newest first, and
// empties it. Every table in the log is write-locked by this
// transaction.
func (tx *Tx) undoLocked() {
	for i := len(tx.undo) - 1; i >= 0; i-- {
		op := tx.undo[i]
		t := op.t
		cur, exists := t.rows[op.pk]
		if exists {
			delete(t.rows, op.pk)
			for _, ix := range t.built {
				ix.remove(cur, op.pk)
			}
			t.orderedRemove(cur, op.pk)
		}
		if op.present {
			t.rows[op.pk] = op.before
			for _, ix := range t.built {
				ix.add(op.before, op.pk)
			}
			t.orderedAdd(op.before, op.pk)
		}
		t.dirty = true
	}
	tx.undo = tx.undo[:0]
}

// log queues a redo record for the commit's WAL append; without an
// attached log there is nothing to queue.
func (tx *Tx) log(rec walRec) {
	if tx.db.wal != nil {
		tx.redo = append(tx.redo, rec)
	}
}

// table resolves a table the transaction holds with at least mode.
func (tx *Tx) table(name string, mode lockMode) (*table, error) {
	if tx.done {
		return nil, ErrTxDone
	}
	if i, ok := heldIndex(tx.held, name); ok && tx.held[i].mode >= mode {
		return tx.held[i].t, nil
	}
	if _, ok := tx.db.tables[name]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	return nil, fmt.Errorf("%w: %s", ErrUndeclared, name)
}

// Insert adds a row inside the transaction.
func (tx *Tx) Insert(tableName string, r Row) error {
	t, err := tx.table(tableName, lockWrite)
	if err != nil {
		return err
	}
	tp, err := t.tuple(r)
	if err != nil {
		return err
	}
	return tx.insert(t, tp)
}

// insertTuple adds an already coerced tuple, as WAL replay decodes it.
func (tx *Tx) insertTuple(tableName string, tp tuple) error {
	t, err := tx.table(tableName, lockWrite)
	if err != nil {
		return err
	}
	return tx.insert(t, tp)
}

func (tx *Tx) insert(t *table, tp tuple) error {
	pk, err := tx.db.insertLocked(t, tp)
	if err != nil {
		return err
	}
	tx.undo = append(tx.undo, undoOp{t: t, pk: pk})
	tx.log(walRec{Op: walOpInsert, Table: t.schema.Name, Tup: tp, lay: t.layout})
	return nil
}

// Update merges column changes into an existing row inside the
// transaction. Changing the primary-key column is rejected.
func (tx *Tx) Update(tableName string, pkVal any, changes Row) error {
	t, err := tx.table(tableName, lockWrite)
	if err != nil {
		return err
	}
	cv, pk, err := t.pkOf(pkVal)
	if err != nil {
		return err
	}
	old, ok := t.rows[pk]
	if !ok {
		return fmt.Errorf("%w: %s[%v]", ErrNotFound, tableName, pkVal)
	}
	merged := slices.Clone(old)
	var logged Row // the coerced change set, when a WAL will need it
	if tx.db.wal != nil {
		logged = make(Row, len(changes))
	}
	for name, v := range changes {
		p, err := t.column(name)
		if err != nil {
			return err
		}
		nv, err := t.coerce(p, v)
		if err != nil {
			return err
		}
		if p == t.key && compareValues(nv, old[p]) != 0 {
			return fmt.Errorf("%w: %s[%v]", ErrKeyChange, tableName, pkVal)
		}
		merged[p] = nv
		if logged != nil {
			logged[name] = nv
		}
	}
	// Re-validate NOT NULL on the merged row and re-check foreign keys.
	if err := t.checkNotNull(merged); err != nil {
		return err
	}
	if err := tx.db.checkFKs(t, merged); err != nil {
		return err
	}
	for _, ix := range t.built {
		ix.remove(old, pk)
		ix.add(merged, pk)
	}
	t.orderedRemove(old, pk)
	t.orderedAdd(merged, pk)
	t.rows[pk] = merged
	t.dirty = true
	tx.undo = append(tx.undo, undoOp{t: t, pk: pk, before: old, present: true})
	tx.log(walRec{Op: walOpUpdate, Table: tableName, PK: cv, Row: logged, lay: t.layout})
	return nil
}

// Delete removes a row inside the transaction, enforcing referential
// integrity (restrict semantics).
func (tx *Tx) Delete(tableName string, pkVal any) error {
	t, err := tx.table(tableName, lockWrite)
	if err != nil {
		return err
	}
	cv, pk, err := t.pkOf(pkVal)
	if err != nil {
		return err
	}
	old, err := tx.db.deleteLocked(t, pk)
	if err != nil {
		return err
	}
	tx.undo = append(tx.undo, undoOp{t: t, pk: pk, before: old, present: true})
	tx.log(walRec{Op: walOpDelete, Table: tableName, PK: cv})
	return nil
}

// Get fetches a row by primary key from inside the transaction, seeing
// the transaction's own uncommitted writes. The table must be one the
// transaction holds, declared or a declared table's foreign-key
// neighbour; any other fails with ErrUndeclared.
func (tx *Tx) Get(tableName string, pkVal any) (Row, error) {
	t, err := tx.table(tableName, lockRead)
	if err != nil {
		return nil, err
	}
	return t.getLocked(pkVal)
}

// Select runs a query inside the transaction, seeing the transaction's
// own uncommitted writes. The table must be one the transaction holds,
// as for Get.
func (tx *Tx) Select(q Query) ([]Row, error) {
	t, err := tx.table(q.Table, lockRead)
	if err != nil {
		return nil, err
	}
	return t.selectLocked(q)
}

// Count reports how many rows match the query's conditions (OrderBy
// and Limit play no part) as seen inside the transaction, without
// cloning them. The table must be one the transaction holds, as for
// Get.
func (tx *Tx) Count(q Query) (int, error) {
	t, err := tx.table(q.Table, lockRead)
	if err != nil {
		return 0, err
	}
	return t.countLocked(q)
}
