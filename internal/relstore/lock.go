package relstore

import (
	"slices"
	"strings"
)

// The engine's locks form a strict hierarchy, always acquired downward:
//
//  1. DB.metaMu — the schema lock. Every reader and every transaction
//     holds it shared for its whole duration; DDL (CreateTable,
//     DropTable, index creation, Restore, WAL attach/detach) holds it
//     exclusively. While any operation runs, the table set and every
//     schema are frozen, so DDL needs no per-table locks at all.
//  2. table.mu — one reader/writer lock per table, acquired in
//     ascending table-name order. A transaction takes exclusive locks
//     on the tables it declares at Begin and shared locks on their
//     foreign-key neighbours, all of them before Begin returns, and no
//     lock after; plain queries take a single shared lock.
//  3. Leaf mutexes (table.cacheMu, WAL.mu), never held while acquiring
//     anything above them.
//
// Every blocking wait on a table lock is for a name greater than every
// name the waiter already holds, so a wait-for cycle would need
// strictly increasing names all the way around — impossible. Begin
// sorts what it is given, so the order tables are declared in does not
// matter.

// lockMode is the strength of a per-table lock held by a transaction.
type lockMode int

const (
	lockRead lockMode = iota + 1
	lockWrite
)

// heldLock records one per-table lock a transaction holds.
type heldLock struct {
	t    *table
	mode lockMode
}

// heldIndex finds a table in a lock set sorted by name.
func heldIndex(held []heldLock, name string) (int, bool) {
	return slices.BinarySearchFunc(held, name, func(h heldLock, target string) int {
		return strings.Compare(h.t.schema.Name, target)
	})
}

// need merges one lock into a sorted lock set, keeping the stronger
// mode when the table is already in it.
func need(held []heldLock, t *table, mode lockMode) []heldLock {
	i, ok := heldIndex(held, t.schema.Name)
	if !ok {
		return slices.Insert(held, i, heldLock{t: t, mode: mode})
	}
	held[i].mode = max(held[i].mode, mode)
	return held
}

// writeNeeds merges into held the lock set one write to t requires: t
// itself exclusively, plus shared locks on its foreign-key neighbours —
// tables it references (read during FK checks) and tables referencing
// it (read during delete restrict checks). Caller holds metaMu.
func (db *DB) writeNeeds(held []heldLock, t *table) []heldLock {
	held = need(held, t, lockWrite)
	for _, fk := range t.schema.ForeignKeys {
		if ref, ok := db.tables[fk.RefTable]; ok {
			held = need(held, ref, lockRead)
		}
	}
	for _, ot := range db.tables {
		if ot == t {
			continue
		}
		for _, fk := range ot.schema.ForeignKeys {
			if fk.RefTable == t.schema.Name {
				held = need(held, ot, lockRead)
			}
		}
	}
	return held
}

// lock takes every lock in the sorted set, in order.
func (tx *Tx) lock() {
	for _, h := range tx.held {
		if h.mode == lockWrite {
			h.t.mu.Lock()
		} else {
			h.t.mu.RLock()
		}
	}
}

// release drops every held table lock in reverse order and then the
// shared schema lock, ending the transaction's footprint.
func (tx *Tx) release() {
	for i := len(tx.held) - 1; i >= 0; i-- {
		h := tx.held[i]
		if h.mode == lockWrite {
			h.t.mu.Unlock()
		} else {
			h.t.mu.RUnlock()
		}
	}
	tx.held = nil
	tx.db.metaMu.RUnlock()
}
