package relstore

import "fmt"

// Batch collects writes to apply as one transaction: one lock
// acquisition over the touched tables and one WAL append at commit,
// amortizing both costs over all operations. A Batch is built without
// holding any lock, so producers can assemble large batches while the
// engine serves other traffic, then pay for locking once in Apply.
// Its queued operations are redo records, the same ones WAL replay
// applies.
//
// The zero Batch is ready to use. A Batch is not safe for concurrent
// mutation; build it in one goroutine, then Apply it.
type Batch struct {
	recs []walRec
}

// Insert queues a row insertion.
func (b *Batch) Insert(table string, r Row) {
	b.recs = append(b.recs, walRec{Op: walOpInsert, Table: table, Row: r})
}

// Update queues a merge of column changes into the row with the given
// primary key.
func (b *Batch) Update(table string, pkVal any, changes Row) {
	b.recs = append(b.recs, walRec{Op: walOpUpdate, Table: table, PK: pkVal, Row: changes})
}

// Delete queues a row deletion.
func (b *Batch) Delete(table string, pkVal any) {
	b.recs = append(b.recs, walRec{Op: walOpDelete, Table: table, PK: pkVal})
}

// Len reports the number of queued operations.
func (b *Batch) Len() int { return len(b.recs) }

// Reset empties the batch for reuse, keeping its capacity.
func (b *Batch) Reset() { b.recs = b.recs[:0] }

// Apply runs the batch as one transaction declared over every touched
// table: all locks are taken up front in sorted order, the operations
// run in queue order, and the commit appends a single WAL record. On
// the first failing operation the whole batch rolls back and nothing is
// applied. An empty batch is a no-op.
func (db *DB) Apply(b *Batch) error {
	return db.ApplyThen(b, nil)
}

// ApplyThen is Apply with a post-commit hook running before the
// transaction's locks release (see Tx.CommitThen): fn runs exactly
// when the batch committed, before any other writer of the touched
// tables commits. An empty batch runs fn directly.
func (db *DB) ApplyThen(b *Batch, fn func()) error {
	if b == nil || len(b.recs) == 0 {
		if fn != nil {
			fn()
		}
		return nil
	}
	tx, err := db.Begin(recTables(b.recs)...)
	if err != nil {
		return err
	}
	if err := applyRecs(tx, b.recs); err != nil {
		tx.Rollback()
		return err
	}
	return tx.CommitThen(fn)
}

// recTables returns the distinct tables a run of redo records touches.
func recTables(recs []walRec) []string {
	seen := make(map[string]bool, 2)
	var names []string
	for _, rec := range recs {
		if !seen[rec.Table] {
			seen[rec.Table] = true
			names = append(names, rec.Table)
		}
	}
	return names
}

// applyRecs executes redo records inside a transaction. A replayed
// insert carries its decoded tuple, a queued one the caller's Row.
func applyRecs(tx *Tx, recs []walRec) error {
	for _, rec := range recs {
		var err error
		switch {
		case rec.Op == walOpInsert && rec.Tup != nil:
			err = tx.insertTuple(rec.Table, rec.Tup)
		case rec.Op == walOpInsert:
			err = tx.Insert(rec.Table, rec.Row)
		case rec.Op == walOpUpdate:
			err = tx.Update(rec.Table, rec.PK, rec.Row)
		case rec.Op == walOpDelete:
			err = tx.Delete(rec.Table, rec.PK)
		default:
			err = fmt.Errorf("relstore: unknown WAL op %v", rec.Op)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
