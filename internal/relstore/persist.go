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

// snapshot is the captured image of the whole database: per table, in
// name order, its layout, its tuples in primary-key order and the names
// of its indexes.
type snapshot struct {
	Tables []snapTable
}

type snapTable struct {
	*layout
	rows             []tuple
	indexed, ordered []string
}

// Snapshot writes a point-in-time image of the database as a
// CRC-sealed binary image. The capture holds every table's read lock,
// so it is consistent across tables; the encode itself runs after the
// locks are released, which is safe because stored tuples are
// immutable — every mutation installs a fresh tuple (see Tx.Update)
// rather than editing one in place.
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
// snapshot references the live tuples and layouts, which are never
// mutated in place, so it stays valid after the locks are dropped.
func (db *DB) captureLocked() snapshot {
	var snap snapshot
	for _, name := range db.tableNamesLocked() {
		t := db.tables[name]
		st := snapTable{layout: t.layout, rows: make([]tuple, 0, len(t.rows))}
		for _, pk := range t.sortedKeysLocked() {
			st.rows = append(st.rows, t.rows[pk])
		}
		for ix := range t.indexes {
			st.indexed = append(st.indexed, ix)
		}
		for _, ix := range t.ordered {
			st.ordered = append(st.ordered, t.schema.Columns[ix.pos].Name)
		}
		snap.Tables = append(snap.Tables, st)
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
// swaps it in. The decoded tuples are installed as they are: the
// decoder already placed and type-checked every value.
func (db *DB) installSnapshot(snap *snapshot) error {
	fresh := NewDB()
	for _, st := range snap.Tables {
		err := st.schema.validate()
		if err == nil {
			err = fresh.createTable(st.layout) // the layout the rows decoded against
		}
		if err != nil {
			return err
		}
	}
	// Rows are loaded with foreign-key checks deferred: tables restore in
	// name order, which need not be dependency order. The sorted-key
	// caches rebuild lazily on first scan.
	for _, st := range snap.Tables {
		t := fresh.tables[st.schema.Name]
		for _, tp := range st.rows {
			err := t.checkNotNull(tp)
			if err == nil {
				_, err = fresh.insertRawLocked(t, tp)
			}
			if err != nil {
				return fmt.Errorf("relstore: snapshot row in %s: %w", st.schema.Name, err)
			}
		}
		for _, name := range st.indexed {
			columns, nullOnly, _ := strings.Cut(name, "|") // see index.name
			if err := fresh.createIndex(st.schema.Name, nullOnly, strings.Split(columns, ",")); err != nil {
				return err
			}
		}
		for _, col := range st.ordered {
			if err := fresh.CreateOrderedIndex(st.schema.Name, col); err != nil {
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
// Each run of non-DDL records replays under one exclusive hold of the
// schema lock, which shuts out every query and transaction, so no
// record pays for a Begin and its table locks; the lock is dropped
// around each DDL record. Every committed record still applies
// atomically: a failing one is undone before the replay reports it.
//
// A truncated final record is tolerated as the torn tail a crash
// mid-append leaves behind; a complete record that fails its CRC or
// parse, a first byte that is not wire.RecordMagic (a JSON line from
// before the binary format) and a read error other than end of input
// all fail the replay.
func (db *DB) ReplayWAL(r io.Reader) (applied int, maxSeq uint64, err error) {
	applied, maxSeq, _, err = db.replayWAL(r)
	return applied, maxSeq, err
}

// replayWAL is ReplayWAL that also reports end, the offset where the
// last complete record ends: the length of the log without its torn
// tail, which OpenDurable cuts before it appends after it.
func (db *DB) replayWAL(r io.Reader) (applied int, maxSeq uint64, end int64, err error) {
	defer func() { db.noteReplaySeq(maxSeq) }()
	rp := &replayer{db: db}
	defer rp.unlock()
	br := bufio.NewReaderSize(r, 1<<20)
	for {
		payload, err := wire.ReadRecord(br, 0)
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return applied, maxSeq, end, nil // a clean or torn end of log
		}
		if err != nil {
			return applied, maxSeq, end, fmt.Errorf("relstore: reading WAL record: %w", err)
		}
		end += int64(wire.RecordSize(len(payload)))
		line, err := decodeWalLine(payload, &rp.rows, rp.layout)
		if err != nil {
			return applied, maxSeq, end, err
		}
		if line.Seq > maxSeq {
			maxSeq = line.Seq
		}
		if !line.Commit {
			continue
		}
		if isDDL(line.Recs) {
			rp.unlock()
			err = db.applyDDL(line.Recs[0])
		} else {
			err = rp.apply(line.Recs)
		}
		if err != nil {
			return applied, maxSeq, end, err
		}
		applied++
	}
}

// replayer is ReplayWAL's state: the row decoder it reuses across
// records and, while it holds the schema lock, the transaction its
// records apply through.
type replayer struct {
	db   *DB
	rows rowDecoder
	tx   *Tx // non-nil while the schema lock is held exclusively
}

// lock takes the schema lock exclusively and opens a transaction that
// counts every table as write-locked, so its operations take no table
// lock of their own. Holding the schema lock is what makes that true.
func (rp *replayer) lock() {
	if rp.tx != nil {
		return
	}
	rp.db.metaMu.Lock()
	rp.tx = &Tx{db: rp.db, modes: make(map[string]lockMode, len(rp.db.tables))}
	for name := range rp.db.tables {
		rp.tx.modes[name] = lockWrite
	}
}

func (rp *replayer) unlock() {
	if rp.tx != nil {
		rp.tx = nil
		rp.db.metaMu.Unlock()
	}
}

// layout resolves a record's table for the decoder.
func (rp *replayer) layout(name string) (*layout, error) {
	rp.lock()
	t, ok := rp.db.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	return t.layout, nil
}

// apply runs one committed record's operations, undoing them all when
// one fails. With a log attached the record is appended to it, as a
// commit would.
func (rp *replayer) apply(recs []walRec) error {
	rp.lock()
	tx := rp.tx
	tx.redo = tx.redo[:0]
	if err := applyRecs(tx, recs); err != nil {
		tx.undoLocked()
		return err
	}
	tx.undo = tx.undo[:0]
	if rp.db.wal != nil && len(tx.redo) > 0 {
		return rp.db.wal.append(tx.redo)
	}
	return nil
}

func isDDL(recs []walRec) bool {
	return len(recs) == 1 && (recs[0].Op == walOpCreate || recs[0].Op == walOpDrop)
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
