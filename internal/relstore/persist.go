package relstore

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
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
		t.rows = make(map[string]tuple, len(st.rows))
		keys, ends, err := keyArena(t, st.rows)
		for i := 0; err == nil && i < len(st.rows); i++ {
			err = fresh.insertKeyedLocked(t, st.rows[i], keys[ends[i]:ends[i+1]])
		}
		if err != nil {
			return fmt.Errorf("relstore: snapshot row in %s: %w", st.schema.Name, err)
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

// keyArena checks each of a table's restored rows for NULLs where its
// schema allows none and encodes their primary keys into one string:
// row i's key is keys[ends[i]:ends[i+1]]. A restore thus allocates its
// keys at once instead of once per row.
func keyArena(t *table, rows []tuple) (keys string, ends []int, err error) {
	buf := wire.GetBuf()
	defer func() { wire.PutBuf(buf) }()
	ends = make([]int, 1, len(rows)+1)
	for _, tp := range rows {
		if err := t.checkNotNull(tp); err != nil {
			return "", nil, err
		}
		if tp[t.key] == nil {
			return "", nil, t.nullKey()
		}
		buf = appendKey(buf, tp[t.key])
		ends = append(ends, len(buf))
	}
	return string(buf), ends, nil
}

func (db *DB) tableNamesLocked() []string {
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// walTail is the attached write-ahead log tail. Each committed
// transaction appends one CRC-framed binary record (see walbin.go)
// carrying its redo entries and a commit marker; replay applies only
// fully committed transactions, so a crash mid-append never replays a
// torn one.
type walTail struct {
	mu    sync.Mutex
	w     *bufio.Writer
	f     *os.File
	bytes int64 // bytes appended to the current tail file
}

type walLine struct {
	Seq    uint64
	Commit bool
	Recs   []walRec
}

// openTail opens the tail file at path for appends. end is where its
// last complete record ends, negative when it was not replayed. Bytes
// past end are a torn record, and they are cut before anything is
// appended: a commit written after them would turn them into a
// complete record that fails its CRC, and the next recovery would
// refuse the log.
func openTail(path string, end int64) (*walTail, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("relstore: opening WAL tail: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := fi.Size()
	if end >= 0 && size > end {
		if err := f.Truncate(end); err != nil {
			f.Close()
			return nil, fmt.Errorf("relstore: cutting the torn tail of %s: %w", filepath.Base(path), err)
		}
		size = end
	}
	return &walTail{f: f, w: bufio.NewWriter(f), bytes: size}, nil
}

// CloseWAL flushes and detaches the log. The sequence counter keeps
// its value.
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
	if err := wal.w.Flush(); err != nil {
		wal.f.Close()
		return err
	}
	return wal.f.Close()
}

// Discard undoes a recovery its caller could not finish: it detaches
// the WAL tail and the durability directory, resets the sequence
// counter and empties every table, keeping the schemas and index
// definitions, so that the next OpenDurable starts from an empty
// database. The tables are emptied even when flushing the tail fails.
func (db *DB) Discard() error {
	err := db.CloseWAL()
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	db.metaMu.RLock()
	names := db.lockAllTablesShared()
	snap := db.captureLocked()
	db.unlockAllTablesShared(names)
	db.metaMu.RUnlock()
	for i := range snap.Tables {
		snap.Tables[i].rows = nil
	}
	if ierr := db.installSnapshot(&snap); err == nil {
		err = ierr
	}
	db.dir, db.gen = "", 0
	db.seq.Store(0)
	return err
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

// LastSeq returns the WAL sequence high-water: the Seq of the last
// record appended, or the one OpenDurable recovered, whether or not a
// tail is attached.
func (db *DB) LastSeq() uint64 { return db.seq.Load() }

// appendWAL writes one committed transaction to the attached log as a
// CRC-framed binary record. Row values are encoded natively by the
// wire codec — a document body goes to disk as its raw bytes. Both
// scratch buffers are pooled, so steady-state appends allocate only
// what the bufio writer flushes. Caller holds metaMu and has checked
// that a log is attached; the sequence advances under the tail's lock,
// so the file order is the Seq order.
func (db *DB) appendWAL(recs []walRec) error {
	w := db.wal
	w.mu.Lock()
	defer w.mu.Unlock()
	line := walLine{Seq: db.seq.Add(1), Commit: true, Recs: recs}
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

// maxReplayBuf caps the buffer a WAL replay reads its log through.
const maxReplayBuf = 1 << 20

// replayBufSize sizes the replay buffer to the log r holds, when r can
// say (a file's size, an in-memory reader's length), up to
// maxReplayBuf: a short tail, or the empty one a fresh generation
// starts with, gets a buffer of its own size.
func replayBufSize(r io.Reader) int {
	n := int64(maxReplayBuf)
	switch x := r.(type) {
	case *os.File:
		if fi, err := x.Stat(); err == nil {
			n = min(n, fi.Size())
		}
	case interface{ Len() int }:
		n = min(n, int64(x.Len()))
	}
	return int(n)
}

// replayWAL applies a write-ahead log produced by a previous process
// to the database and reports the committed transactions applied, the
// high-water sequence number observed, and end, the offset where the
// last complete record ends: the length of the log without its torn
// tail, which OpenDurable cuts before it appends after it. Unknown
// tables fail the replay.
//
// Each run of non-DDL records replays under one exclusive hold of the
// schema lock, which shuts out every query and transaction, so no
// record pays for a Begin and its table locks; the lock is dropped
// around each DDL record. Every committed record still applies
// atomically: a failing one is undone before the replay reports it.
//
// Rows decode through dec. A truncated final record is tolerated as
// the torn tail a crash mid-append leaves behind; a complete record
// that fails its CRC or parse, a record in the pre-positional row
// format, a first byte that is not wire.RecordMagic (a JSON line from
// before the binary format) and a read error other than end of input
// all fail the replay.
func (db *DB) replayWAL(r io.Reader, dec *rowDecoder) (applied int, maxSeq uint64, end int64, err error) {
	rp := &replayer{db: db, rows: dec}
	defer rp.unlock()
	br := bufio.NewReaderSize(r, replayBufSize(r))
	for {
		payload, err := wire.ReadRecord(br, 0)
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return applied, maxSeq, end, nil // a clean or torn end of log
		}
		if err != nil {
			return applied, maxSeq, end, fmt.Errorf("relstore: reading WAL record: %w", err)
		}
		end += int64(wire.RecordSize(len(payload)))
		line, err := decodeWalLine(payload, rp.rows, rp.layout)
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

// replayer is replayWAL's state: the row decoder its records share
// and, while it holds the schema lock, the transaction its records
// apply through.
type replayer struct {
	db   *DB
	rows *rowDecoder
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
// one fails. Replay runs only inside OpenDurable, before the tail is
// attached, so the operations log nothing.
func (rp *replayer) apply(recs []walRec) error {
	rp.lock()
	if err := applyRecs(rp.tx, recs); err != nil {
		rp.tx.undoLocked()
		return err
	}
	rp.tx.undo = rp.tx.undo[:0]
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
	return db.appendWAL([]walRec{{Op: walOpCreate, Table: s.Name, DDL: &s}})
}

func (db *DB) logDrop(name string) error {
	if db.wal == nil {
		return nil
	}
	return db.appendWAL([]walRec{{Op: walOpDrop, Table: name}})
}
