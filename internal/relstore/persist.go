package relstore

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"

	"repro/internal/wire"
)

// snapshot is the captured image of the whole database.
type snapshot struct {
	Schemas []Schema
	Rows    map[string][]Row // table name -> rows
	Indexed map[string][]string
	Ordered map[string][]string
}

// Snapshot writes a point-in-time image of the database as a
// CRC-sealed binary image. The capture holds every table's read lock,
// so it is consistent across tables; the encode itself runs after the
// locks are released, which is safe because stored rows are immutable
// — every mutation installs a fresh Row map (see Tx.Update) rather
// than editing one in place.
func (db *DB) Snapshot(w io.Writer) error {
	db.metaMu.RLock()
	names := db.lockAllTablesShared()
	snap := db.captureLocked()
	db.unlockAllTablesShared(names)
	db.metaMu.RUnlock()
	img := ckptImage{Snap: snap}
	payload, err := appendCkptImage(wire.GetBuf(), &img)
	if err != nil {
		return err
	}
	sealed := wire.SealImage(wire.SnapMagic, payload)
	wire.PutBuf(payload)
	_, err = w.Write(sealed)
	return err
}

// lockAllTablesShared read-locks every table in sorted order and
// returns the locked names. Caller holds metaMu in either mode.
func (db *DB) lockAllTablesShared() []string {
	names := db.tableNamesLocked()
	for _, n := range names {
		db.tables[n].mu.RLock()
	}
	return names
}

// unlockAllTablesShared releases the locks lockAllTablesShared took.
func (db *DB) unlockAllTablesShared(names []string) {
	for i := len(names) - 1; i >= 0; i-- {
		db.tables[names[i]].mu.RUnlock()
	}
}

// captureLocked builds the snapshot value. Caller holds metaMu (in
// either mode) and at least a read lock on every table. The returned
// snapshot references the live Row maps, which are never mutated in
// place, so it stays valid after the locks are dropped.
func (db *DB) captureLocked() snapshot {
	snap := snapshot{
		Rows:    make(map[string][]Row, len(db.tables)),
		Indexed: make(map[string][]string, len(db.tables)),
		Ordered: make(map[string][]string, len(db.tables)),
	}
	for _, name := range db.tableNamesLocked() {
		t := db.tables[name]
		snap.Schemas = append(snap.Schemas, t.schema)
		rows := make([]Row, 0, len(t.rows))
		for _, pk := range t.sortedKeysLocked() {
			rows = append(rows, t.rows[pk])
		}
		snap.Rows[name] = rows
		for ix := range t.indexes {
			snap.Indexed[name] = append(snap.Indexed[name], ix)
		}
		for col := range t.ordered {
			snap.Ordered[name] = append(snap.Ordered[name], col)
		}
	}
	return snap
}

// Restore replaces the database contents with a snapshot previously
// written by Snapshot.
func (db *DB) Restore(r io.Reader) error {
	data, err := wire.ReadImage(r)
	if err != nil {
		return fmt.Errorf("relstore: reading snapshot: %w", err)
	}
	img, err := decodeSnapshotImage(data)
	if err != nil {
		return fmt.Errorf("relstore: decoding snapshot: %w", err)
	}
	return db.installSnapshot(&img.Snap)
}

// installSnapshot rebuilds the table set from a decoded snapshot and
// swaps it in.
func (db *DB) installSnapshot(snap *snapshot) error {
	fresh := NewDB()
	for _, s := range snap.Schemas {
		if err := fresh.CreateTable(s); err != nil {
			return err
		}
	}
	// Rows are loaded with foreign-key checks deferred: tables restore in
	// name order, which need not be dependency order. The sorted-key
	// caches rebuild lazily on first scan.
	for _, s := range snap.Schemas {
		t := fresh.tables[s.Name]
		for _, row := range snap.Rows[s.Name] {
			norm, err := t.normalizeRow(row, true)
			if err != nil {
				return fmt.Errorf("relstore: snapshot row in %s: %w", s.Name, err)
			}
			if _, err := fresh.insertRawLocked(t, norm); err != nil {
				return fmt.Errorf("relstore: snapshot row in %s: %w", s.Name, err)
			}
		}
		for _, name := range snap.Indexed[s.Name] {
			columns, nullOnly, _ := strings.Cut(name, "|") // see index.name
			if err := fresh.createIndex(s.Name, newIndex(nullOnly, strings.Split(columns, ",")...)); err != nil {
				return err
			}
		}
		for _, col := range snap.Ordered[s.Name] {
			if err := fresh.CreateOrderedIndex(s.Name, col); err != nil {
				return err
			}
		}
	}
	if err := fresh.verifyAllFKs(); err != nil {
		return fmt.Errorf("relstore: snapshot violates referential integrity: %w", err)
	}
	db.metaMu.Lock()
	db.tables = fresh.tables
	db.metaMu.Unlock()
	return nil
}

func (db *DB) tableNamesLocked() []string {
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WAL is a write-ahead log of committed transactions. Each committed
// transaction appends one CRC-framed binary record (see walbin.go)
// carrying its redo entries and a commit marker; Replay applies only
// fully committed transactions, so a crash mid-append never replays a
// torn one.
type WAL struct {
	mu    sync.Mutex
	w     *bufio.Writer
	f     *os.File
	seq   uint64
	bytes int64 // bytes appended to the current tail file
}

type walLine struct {
	Seq    uint64
	Commit bool
	Recs   []walRec
}

// OpenWAL attaches a write-ahead log file to the database. Subsequent
// committed transactions append to it. Attaching over an
// already-attached log fails with ErrWALOpen — silently replacing it
// would leak the old handle with its unflushed buffer and split the
// committed history across two files. The sequence counter resumes
// from the high-water mark of the latest replay, so a restarted
// station appends strictly increasing Seq values instead of starting
// over at 1.
func (db *DB) OpenWAL(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("relstore: opening WAL: %w", err)
	}
	db.metaMu.Lock()
	defer db.metaMu.Unlock()
	if db.wal != nil {
		f.Close()
		return fmt.Errorf("%w: %s", ErrWALOpen, path)
	}
	wal := &WAL{f: f, w: bufio.NewWriter(f), seq: db.lastSeq}
	if fi, err := f.Stat(); err == nil {
		wal.bytes = fi.Size()
	}
	db.wal = wal
	return nil
}

// CloseWAL flushes and detaches the log, recording the sequence
// high-water so a later OpenWAL continues the numbering.
func (db *DB) CloseWAL() error {
	db.metaMu.Lock()
	defer db.metaMu.Unlock()
	wal := db.wal
	if wal == nil {
		return nil
	}
	db.wal = nil
	wal.mu.Lock()
	defer wal.mu.Unlock()
	if wal.seq > db.lastSeq {
		db.lastSeq = wal.seq
	}
	if err := wal.w.Flush(); err != nil {
		wal.f.Close()
		return err
	}
	return wal.f.Close()
}

// WALTailBytes reports how many bytes the attached log's current tail
// file holds — the size a background checkpointer watches to bound
// restart cost.
func (db *DB) WALTailBytes() int64 {
	db.metaMu.RLock()
	defer db.metaMu.RUnlock()
	if db.wal == nil {
		return 0
	}
	db.wal.mu.Lock()
	defer db.wal.mu.Unlock()
	return db.wal.bytes
}

// LastSeq returns the highest WAL sequence number the database has
// seen, whether appended through the attached log or observed during
// replay.
func (db *DB) LastSeq() uint64 {
	db.metaMu.RLock()
	defer db.metaMu.RUnlock()
	if db.wal != nil {
		db.wal.mu.Lock()
		defer db.wal.mu.Unlock()
		if db.wal.seq > db.lastSeq {
			return db.wal.seq
		}
	}
	return db.lastSeq
}

// noteReplaySeq folds a replay's high-water sequence into the counter
// the next OpenWAL resumes from.
func (db *DB) noteReplaySeq(seq uint64) {
	db.metaMu.Lock()
	if seq > db.lastSeq {
		db.lastSeq = seq
	}
	db.metaMu.Unlock()
}

// append writes one committed transaction to the log as a CRC-framed
// binary record. Row values are encoded natively by the wire codec —
// a document body goes to disk as its raw bytes. Both scratch buffers
// are pooled, so steady-state appends allocate only what the bufio
// writer flushes.
func (w *WAL) append(recs []walRec) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.seq++
	line := walLine{Seq: w.seq, Commit: true, Recs: recs}
	payload := wire.GetBuf()
	payload, err := appendWalLine(payload, &line)
	if err != nil {
		wire.PutBuf(payload)
		return err
	}
	framed := wire.GetBuf()
	framed = wire.AppendRecord(framed, payload)
	wire.PutBuf(payload)
	n, err := w.w.Write(framed)
	w.bytes += int64(n)
	wire.PutBuf(framed)
	if err != nil {
		return err
	}
	return w.w.Flush()
}

// ReplayWAL applies a write-ahead log produced by a previous process
// to the database and reports the committed transactions applied plus
// the high-water sequence number observed (which OpenWAL resumes
// from). Unknown tables fail the replay.
//
// A truncated final record is tolerated as the torn tail a crash
// mid-append leaves behind; a complete record that fails its CRC or
// parse, a first byte that is not wire.RecordMagic (a JSON line from
// before the binary format) and a read error other than end of input
// all fail the replay.
func (db *DB) ReplayWAL(r io.Reader) (applied int, maxSeq uint64, err error) {
	defer func() { db.noteReplaySeq(maxSeq) }()
	br := bufio.NewReaderSize(r, 1<<20)
	for {
		line, done, err := readWalLine(br)
		if done || err != nil {
			return applied, maxSeq, err
		}
		if line.Seq > maxSeq {
			maxSeq = line.Seq
		}
		if !line.Commit {
			continue
		}
		if isDDL(line.Recs) {
			if err := db.applyDDL(line.Recs[0]); err != nil {
				return applied, maxSeq, err
			}
			applied++
			continue
		}
		// Declare every table the committed transaction touches so the
		// replay transaction locks them in sorted order regardless of
		// the order the original wrote them in.
		tx, err := db.Begin(recTables(line.Recs)...)
		if err != nil {
			return applied, maxSeq, err
		}
		if err := applyRecs(tx, line.Recs); err != nil {
			tx.Rollback()
			return applied, maxSeq, err
		}
		if err := tx.Commit(); err != nil {
			return applied, maxSeq, err
		}
		applied++
	}
}

// readWalLine reads the next committed-transaction record. done reports
// a clean or torn end of log — end of input and nothing else.
func readWalLine(br *bufio.Reader) (line walLine, done bool, err error) {
	payload, err := wire.ReadRecord(br, 0)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return line, true, nil
	}
	if err != nil {
		return line, false, fmt.Errorf("relstore: reading WAL record: %w", err)
	}
	line, err = decodeWalLine(payload)
	return line, false, err
}

func isDDL(recs []walRec) bool {
	return len(recs) == 1 && (recs[0].Op == walOpCreate || recs[0].Op == walOpDrop)
}

// recTables returns the distinct tables a committed transaction's redo
// records touch.
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

func (db *DB) applyDDL(rec walRec) error {
	switch rec.Op {
	case walOpCreate:
		if rec.DDL == nil {
			return fmt.Errorf("relstore: WAL create record for %s without schema", rec.Table)
		}
		return db.CreateTable(*rec.DDL)
	case walOpDrop:
		return db.DropTable(rec.Table)
	default:
		return fmt.Errorf("relstore: unknown WAL DDL op %v", rec.Op)
	}
}

// applyRecs re-executes a committed transaction's redo records.
func applyRecs(tx *Tx, recs []walRec) error {
	for _, rec := range recs {
		switch rec.Op {
		case walOpInsert:
			if err := tx.Insert(rec.Table, rec.Row); err != nil {
				return err
			}
		case walOpUpdate:
			if err := tx.Update(rec.Table, rec.PK, rec.Row); err != nil {
				return err
			}
		case walOpDelete:
			if err := tx.Delete(rec.Table, rec.PK); err != nil {
				return err
			}
		default:
			return fmt.Errorf("relstore: unknown WAL op %v", rec.Op)
		}
	}
	return nil
}

// logDDL and logDrop record schema changes. DDL statements are logged as
// standalone committed transactions. Caller holds metaMu exclusively
// and undoes the schema change when the append fails: a table the log
// never heard of would fail the next replay at its first row.
func (db *DB) logDDL(s Schema) error {
	if db.wal == nil {
		return nil
	}
	return db.wal.append([]walRec{{Op: walOpCreate, Table: s.Name, DDL: &s}})
}

func (db *DB) logDrop(name string) error {
	if db.wal == nil {
		return nil
	}
	return db.wal.append([]walRec{{Op: walOpDrop, Table: name}})
}
