package relstore

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/wire"
)

// Every durable file has one format and one reader. What the
// pre-binary writers produced — gob snapshots, JSON-line WALs — is
// hostile input like any other: a clean error that says what the file
// is, nothing mutated, nothing deleted. (Tests may still import
// encoding/gob to craft these inputs; `make lint` keeps it out of
// everything else.)

const preBinary = "predates the binary format"

// gobSnapshot is a snap-<gen> file as the gob writer produced it.
func gobSnapshot(t testing.TB) []byte {
	t.Helper()
	s, _ := courseSchemas()
	var buf bytes.Buffer
	type gobImage struct { // the shape the gob writer encoded
		Gen, Seq uint64
		Snap     struct {
			Schemas []Schema
			Rows    map[string][]Row
		}
	}
	img := gobImage{Gen: 3, Seq: 41}
	img.Snap.Schemas = []Schema{s}
	img.Snap.Rows = map[string][]Row{"scripts": {{"script_name": "legacy"}}}
	if err := gob.NewEncoder(&buf).Encode(img); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// jsonWAL is a WAL as the JSON-line writer produced it.
const jsonWAL = `{"seq":1,"commit":true,"recs":[{"op":"insert","table":"scripts","row":{"script_name":"legacy","created":{"$t":"1998-11-03T14:00:00Z"}}}]}
{"seq":2,"commit":true,"recs":[{"op":"delete","table":"scripts","pk":"keep"}]}
`

// binaryWAL is n committed inserts in the one format there is.
func binaryWAL(t testing.TB, n int) []byte {
	t.Helper()
	var raw []byte
	for i := 0; i < n; i++ {
		raw = appendWALRecord(t, raw, uint64(i+1), insertRec(t, Row{"script_name": string(rune('a' + i))}))
	}
	return raw
}

// insertRec is the redo record of inserting row into scripts.
func insertRec(t testing.TB, row Row) walRec {
	t.Helper()
	s, _ := courseSchemas()
	lay := newLayout(s)
	tp, err := lay.tuple(row)
	if err != nil {
		t.Fatal(err)
	}
	return walRec{Op: walOpInsert, Table: s.Name, Tup: tp, lay: lay}
}

// appendWALRecord frames one committed transaction of recs after raw.
func appendWALRecord(t testing.TB, raw []byte, seq uint64, recs ...walRec) []byte {
	t.Helper()
	payload, err := appendWalLine(nil, &walLine{Seq: seq, Commit: true, Recs: recs})
	if err != nil {
		t.Fatal(err)
	}
	return wire.AppendRecord(raw, payload)
}

func TestReadersRejectForeignInput(t *testing.T) {
	inputs := []struct {
		name      string
		data      []byte
		preBinary bool
	}{
		{"gob snapshot", gobSnapshot(t), true},
		{"JSON WAL", []byte(jsonWAL), true},
		{"text", []byte("not a snapshot"), true},
		{"torn JSON line", []byte("{bad json"), true},
		{"other magic", wire.SealImage(wire.BlobMagic, []byte("x")), false},
	}
	// recoverFrom writes data as the named file of a fresh durability
	// directory and recovers it into db.
	recoverFrom := func(name string) func(db *DB, data []byte) error {
		return func(db *DB, data []byte) error {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := db.OpenDurable(dir)
			if db.wal != nil {
				t.Errorf("a WAL tail is attached after recovering a foreign %s", name)
			}
			return err
		}
	}
	readers := []struct {
		name string
		read func(db *DB, data []byte) error
	}{
		{"OpenDurable over a snapshot", recoverFrom(snapFileName(3))},
		{"readSnapshotFile", func(db *DB, data []byte) error {
			path := filepath.Join(t.TempDir(), snapFileName(3))
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := readSnapshotFile(path, new(rowDecoder))
			if err != nil && !strings.Contains(err.Error(), snapFileName(3)) {
				t.Errorf("error does not name the file: %v", err)
			}
			return err
		}},
		{"OpenDurable over a tail", recoverFrom(walFileName(0))},
	}
	for _, in := range inputs {
		for _, rd := range readers {
			db := newCourseDB(t)
			if err := db.Insert("scripts", Row{"script_name": "keep"}); err != nil {
				t.Fatal(err)
			}
			err := rd.read(db, in.data)
			if err == nil {
				t.Errorf("%s accepted %s", rd.name, in.name)
				continue
			}
			if in.preBinary && !strings.Contains(err.Error(), preBinary) {
				t.Errorf("%s on %s: error does not say the input %s: %v", rd.name, in.name, preBinary, err)
			}
			if n, _ := db.Count("scripts"); n != 1 || !db.Exists("scripts", "keep") || db.Exists("scripts", "legacy") {
				t.Errorf("%s on %s mutated the database", rd.name, in.name)
			}
		}
	}
}

// TestOpenDurableRefusesPreBinaryDirectory: recovery over a directory
// from before the binary formats fails before it attaches, prunes or
// deletes anything, and the error names the file.
func TestOpenDurableRefusesPreBinaryDirectory(t *testing.T) {
	for _, tc := range []struct {
		name, wantFile string
		files          map[string][]byte
	}{
		{"gob checkpoint with JSON tails", "snap-", map[string][]byte{
			snapFileName(2): gobSnapshot(t),
			walFileName(2):  []byte(jsonWAL),
			snapFileName(3): gobSnapshot(t),
			walFileName(3):  []byte(jsonWAL),
		}},
		{"JSON tail only", walFileName(0), map[string][]byte{
			walFileName(0): []byte(jsonWAL),
		}},
		{"JSON tail after a binary checkpoint", walFileName(1), func() map[string][]byte {
			src := newDurableCourseDB(t, t.TempDir())
			insertScripts(t, src, 0, 2)
			info, err := src.Checkpoint("")
			if err != nil {
				t.Fatal(err)
			}
			snap, err := os.ReadFile(info.Snapshot)
			if err != nil {
				t.Fatal(err)
			}
			src.CloseWAL()
			return map[string][]byte{
				walFileName(0):  binaryWAL(t, 2), // prunable once snap-1 loads
				snapFileName(1): snap,
				walFileName(1):  []byte(jsonWAL),
			}
		}()},
	} {
		err := refusedRecovery(t, tc.name, tc.files, tc.wantFile)
		if !strings.Contains(err.Error(), preBinary) {
			t.Errorf("%s: error = %v, want one that says it %s", tc.name, err, preBinary)
		}
	}
}

// refusedRecovery recovers a directory holding files, which must fail
// with an error naming wantFile before it attaches, prunes, cuts or
// rewrites anything. It returns the error.
func refusedRecovery(t *testing.T, name string, files map[string][]byte, wantFile string) error {
	t.Helper()
	dir := t.TempDir()
	for file, data := range files {
		if err := os.WriteFile(filepath.Join(dir, file), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db := NewDB()
	_, err := db.OpenDurable(dir)
	if err == nil {
		t.Fatalf("%s: OpenDurable accepted the directory", name)
	}
	if !strings.Contains(err.Error(), wantFile) {
		t.Errorf("%s: error = %v, want one naming %s", name, err, wantFile)
	}
	if db.wal != nil {
		t.Errorf("%s: a WAL tail is attached after a failed recovery", name)
	}
	entries, rerr := os.ReadDir(dir)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(entries) != len(files) {
		t.Errorf("%s: directory holds %d files after the failed recovery, want %d", name, len(entries), len(files))
	}
	for file, want := range files {
		if got, rerr := os.ReadFile(filepath.Join(dir, file)); rerr != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: %s changed or vanished (err=%v)", name, file, rerr)
		}
	}
	return err
}

// nameKeyedSnapshot is a snap-<gen> file as sealed while rows named
// their columns: the retired magic, and one scripts row whose pair
// spells its column's name.
func nameKeyedSnapshot(t testing.TB, gen uint64) []byte {
	t.Helper()
	s, _ := courseSchemas()
	p := wire.AppendUvarint(nil, gen)
	p = wire.AppendUvarint(p, 0) // Seq
	p = wire.AppendUvarint(p, 1) // one table
	p = appendSchema(p, &s)
	p = wire.AppendUvarint(p, 1) // one row
	p = appendNamedPair(t, wire.AppendUvarint(p, 1), "script_name", "legacy")
	p = appendStrings(p, nil) // no hash indexes
	p = appendStrings(p, nil) // no ordered indexes
	return wire.SealImage(nameKeyedSnapMagic, p)
}

// nameKeyedWAL is a WAL tail as written while rows named their
// columns: one committed insert into scripts whose flags lack
// walFlagPositional and whose pair spells its column's name.
func nameKeyedWAL(t testing.TB) []byte {
	t.Helper()
	p := wire.AppendUvarint(nil, 1) // Seq
	p = append(p, walFlagCommit)
	p = wire.AppendUvarint(p, 1) // one operation
	p = append(p, byte(walOpInsert))
	p = wire.AppendString(p, "scripts")
	p, err := wire.AppendValue(p, "legacy")
	if err != nil {
		t.Fatal(err)
	}
	p = appendNamedPair(t, wire.AppendUvarint(append(p, 1), 1), "script_name", "legacy")
	p = append(p, 0) // no DDL
	return wire.AppendRecord(nil, p)
}

func appendNamedPair(t testing.TB, dst []byte, name string, v any) []byte {
	t.Helper()
	dst, err := wire.AppendValue(wire.AppendString(dst, name), v)
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestOpenDurableRefusesNameKeyedDirectory: a snapshot or WAL tail
// written while rows named their columns fails recovery with
// ErrPrePositional and an error naming the file, and leaves every file
// as it was. A name-keyed snapshot ends the recovery even when an
// older positional one could load: nothing falls back past it.
func TestOpenDurableRefusesNameKeyedDirectory(t *testing.T) {
	src := newDurableCourseDB(t, t.TempDir())
	insertScripts(t, src, 0, 2)
	info, err := src.Checkpoint("")
	if err != nil {
		t.Fatal(err)
	}
	positional, err := os.ReadFile(info.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	src.CloseWAL()
	for _, tc := range []struct {
		name, wantFile string
		files          map[string][]byte
	}{
		{"name-keyed checkpoint and tail", snapFileName(1), map[string][]byte{
			snapFileName(1): nameKeyedSnapshot(t, 1),
			walFileName(1):  nameKeyedWAL(t),
		}},
		{"name-keyed checkpoint over a positional one", snapFileName(2), map[string][]byte{
			snapFileName(1): positional,
			walFileName(1):  nil,
			snapFileName(2): nameKeyedSnapshot(t, 2),
			walFileName(2):  nil,
		}},
		{"name-keyed tail only", walFileName(0), map[string][]byte{
			walFileName(0): nameKeyedWAL(t),
		}},
		{"name-keyed tail after a positional checkpoint", walFileName(1), map[string][]byte{
			snapFileName(1): positional,
			walFileName(1):  nameKeyedWAL(t),
		}},
	} {
		err := refusedRecovery(t, tc.name, tc.files, tc.wantFile)
		if !errors.Is(err, ErrPrePositional) {
			t.Errorf("%s: error = %v, want ErrPrePositional", tc.name, err)
		}
	}
}

// TestDDLFailsWhenLogWriteFails: a CREATE or DROP whose log record
// cannot be written must fail and leave the table set as it was — a
// table the log never heard of fails the next replay at its first row.
func TestDDLFailsWhenLogWriteFails(t *testing.T) {
	db := openDurable(t, t.TempDir())
	scripts, impls := courseSchemas()
	if err := db.CreateTable(scripts); err != nil {
		t.Fatal(err)
	}
	db.wal.f.Close() // the file goes away underneath the log

	if err := db.CreateTable(impls); err == nil {
		t.Error("CreateTable reported success though its log record was not written")
	}
	if _, err := db.SchemaOf("impls"); !errors.Is(err, ErrNoTable) {
		t.Errorf("table impls exists after the failed CreateTable (err=%v)", err)
	}
	if err := db.DropTable("scripts"); err == nil {
		t.Error("DropTable reported success though its log record was not written")
	}
	if _, err := db.SchemaOf("scripts"); err != nil {
		t.Errorf("table scripts is gone after the failed DropTable: %v", err)
	}
}

// TestReplayFailsOnReadError: only end of input ends a log. A read
// error after N good records — at a record boundary or inside one —
// fails the replay instead of silently truncating history.
func TestReplayFailsOnReadError(t *testing.T) {
	boom := errors.New("disk on fire")
	raw := binaryWAL(t, 4)
	for _, cut := range []int{len(raw) / 4 * 3, len(raw)/4*3 + 5} { // after record 3; inside record 4
		db := newCourseDB(t)
		applied, _, _, err := db.replayWAL(io.MultiReader(bytes.NewReader(raw[:cut]), iotest.ErrReader(boom)), new(rowDecoder))
		if !errors.Is(err, boom) {
			t.Errorf("cut %d: err = %v after %d records, want the read error", cut, err, applied)
		}
		if applied != 3 {
			t.Errorf("cut %d: applied = %d, want the 3 records before the error", cut, applied)
		}
	}
}

// appendPairs encodes a row in the on-disk grammar exactly as given:
// the count is the number of pairs, positions in the order listed.
func appendPairs(t testing.TB, dst []byte, pairs []any) []byte {
	t.Helper()
	dst = wire.AppendUvarint(dst, uint64(len(pairs)/2))
	for i := 0; i < len(pairs); i += 2 {
		dst = wire.AppendUvarint(dst, uint64(pairs[i].(int)))
		var err error
		if dst, err = wire.AppendValue(dst, pairs[i+1]); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// snapshotWithRow is a sealed generation-gen snapshot of the scripts
// table holding one row, written pair by pair.
func snapshotWithRow(t testing.TB, gen uint64, pairs ...any) []byte {
	t.Helper()
	s, _ := courseSchemas()
	p := wire.AppendUvarint(nil, gen)
	p = wire.AppendUvarint(p, 0) // Seq
	p = wire.AppendUvarint(p, 1) // one table
	p = appendSchema(p, &s)
	p = wire.AppendUvarint(p, 1) // one row
	p = appendPairs(t, p, pairs)
	p = appendStrings(p, nil) // no hash indexes
	p = appendStrings(p, nil) // no ordered indexes
	return wire.SealImage(wire.SnapMagic, p)
}

// walWithRow is one committed WAL record of a single insert or update
// of scripts whose row is written pair by pair.
func walWithRow(t testing.TB, op walOp, pk any, pairs ...any) []byte {
	t.Helper()
	p := wire.AppendUvarint(nil, 1) // Seq
	p = append(p, walFlagCommit|walFlagPositional)
	p = wire.AppendUvarint(p, 1) // one operation
	p = append(p, byte(op))
	p = wire.AppendString(p, "scripts")
	p, err := wire.AppendValue(p, pk)
	if err != nil {
		t.Fatal(err)
	}
	p = appendPairs(t, append(p, 1), pairs)
	p = append(p, 0) // no DDL
	return wire.AppendRecord(nil, p)
}

// badPositionRows are scripts rows (six columns: script_name,
// author, version, created, pct_complete, archived) whose positions
// are corrupt: a position given twice with two different values (the
// second would silently win), a count of three pairs over two distinct
// positions, and a position one past the last column.
var badPositionRows = []struct {
	name  string
	pairs []any
}{
	{"a position given twice", []any{0, "dup", 2, int64(1), 2, int64(2)}},
	{"a count above the columns kept", []any{0, "dup", 1, "x", 0, "dup"}},
	{"a position past the columns", []any{0, "dup", 6, "x"}},
}

// TestDecodersRejectRepeatedColumn: a row giving a position twice or
// a position past its table's columns is corrupt. A snapshot holding
// one fails with an error naming the table, and recovery falls back to
// the previous generation as it does for any corrupt snapshot; a WAL
// record holding one fails the replay and applies nothing.
func TestDecodersRejectRepeatedColumn(t *testing.T) {
	for _, row := range badPositionRows {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, snapFileName(1)), snapshotWithRow(t, 1, row.pairs...), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := NewDB().OpenDurable(dir); err == nil || !strings.Contains(err.Error(), "scripts") {
			t.Errorf("OpenDurable over only a snapshot with %s: err = %v, want a corrupt-snapshot error naming scripts", row.name, err)
		}

		dir = t.TempDir()
		src := newDurableCourseDB(t, dir)
		insertScripts(t, src, 0, 3)
		if _, err := src.Checkpoint(""); err != nil {
			t.Fatal(err)
		}
		src.CloseWAL()
		if err := os.WriteFile(filepath.Join(dir, snapFileName(2)), snapshotWithRow(t, 2, row.pairs...), 0o644); err != nil {
			t.Fatal(err)
		}
		db := NewDB()
		info, err := db.OpenDurable(dir)
		if err != nil {
			t.Fatalf("OpenDurable past a snapshot with %s: %v", row.name, err)
		}
		if info.Gen != 1 || countScripts(t, db) != 3 || db.Exists("scripts", "dup") {
			t.Errorf("snapshot with %s: recovered generation %d with %d scripts, want generation 1 with 3", row.name, info.Gen, countScripts(t, db))
		}
		db.CloseWAL()

		for _, op := range []walOp{walOpInsert, walOpUpdate} {
			db := newCourseDB(t)
			var want Row // what replay must leave under "dup": nothing for an insert
			if op == walOpUpdate {
				want = Row{"script_name": "dup", "author": "keep"}
				if err := db.Insert("scripts", want); err != nil {
					t.Fatal(err)
				}
			}
			applied, _, _, err := db.replayWAL(bytes.NewReader(walWithRow(t, op, "dup", row.pairs...)), new(rowDecoder))
			if err == nil || !strings.Contains(err.Error(), "scripts") {
				t.Errorf("replay of an %v with %s: err = %v, want an error naming scripts", op, row.name, err)
			}
			got, _ := db.Get("scripts", "dup")
			if applied != 0 || !reflect.DeepEqual(got, want) {
				t.Errorf("replay of an %v with %s applied %d records, row = %v, want %v", op, row.name, applied, got, want)
			}
		}
	}
}

// fuzzSeeds are the inputs both fuzz targets start from: the valid
// encoding, what the pre-binary writers produced, torn and flipped
// copies of the valid one, counts far beyond the input, and what the
// writers produced while rows named their columns.
func fuzzSeeds(f *testing.F, valid []byte) {
	f.Add(valid)
	f.Add(gobSnapshot(f))
	f.Add([]byte(jsonWAL))
	f.Add(valid[:len(valid)*2/3])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	giant := wire.AppendUvarint(nil, 1<<62)
	f.Add(wire.AppendRecord(nil, append([]byte{1, walFlagCommit | walFlagPositional}, giant...)))
	f.Add(wire.AppendUvarint([]byte{wire.RecordMagic, wire.Version}, 1<<62))
	f.Add(wire.SealImage(wire.SnapMagic, append([]byte{1, 1}, giant...)))
	f.Add([]byte{})
	f.Add(nameKeyedWAL(f))
	f.Add(nameKeyedSnapshot(f, 1))
}

// FuzzReplayWAL: no input makes a replay panic, hang or allocate beyond
// its input, and the end offset it reports is a record boundary that
// keeps the whole history: replaying the input cut there, as
// OpenDurable cuts a torn tail, applies the same records.
func FuzzReplayWAL(f *testing.F) {
	fuzzSeeds(f, binaryWAL(f, 3))
	for _, row := range badPositionRows {
		f.Add(walWithRow(f, walOpInsert, "dup", row.pairs...))
		f.Add(walWithRow(f, walOpUpdate, "dup", row.pairs...))
	}
	replay := func(t *testing.T, data []byte) (int, uint64, int64, error) {
		db := NewDB()
		s, impls := courseSchemas()
		for _, schema := range []Schema{s, impls} {
			if err := db.CreateTable(schema); err != nil {
				t.Fatal(err)
			}
		}
		return db.replayWAL(bytes.NewReader(data), new(rowDecoder))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		applied, maxSeq, end, err := replay(t, data)
		if end < 0 || end > int64(len(data)) {
			t.Fatalf("end offset %d outside the %d-byte input", end, len(data))
		}
		if err != nil {
			return
		}
		applied2, maxSeq2, end2, err := replay(t, data[:end])
		if err != nil || applied2 != applied || maxSeq2 != maxSeq || end2 != end {
			t.Fatalf("replay of the input cut at %d = (%d, %d, %d, %v), want (%d, %d, %d, nil)",
				end, applied2, maxSeq2, end2, err, applied, maxSeq, end)
		}
	})
}

// FuzzRestoreSnapshot: no input makes the snapshot decode and install
// OpenDurable runs panic; an input they accept checkpoints to an image
// that recovers to the same tables.
func FuzzRestoreSnapshot(f *testing.F) {
	src := NewDB()
	s, impls := courseSchemas()
	for _, schema := range []Schema{s, impls} {
		if err := src.CreateTable(schema); err != nil {
			f.Fatal(err)
		}
	}
	if err := src.Insert("scripts", Row{"script_name": "s", "version": int64(7)}); err != nil {
		f.Fatal(err)
	}
	if err := src.Insert("impls", Row{"starting_url": "u", "script_name": "s", "payload": []byte{4, 5, 6}}); err != nil {
		f.Fatal(err)
	}
	info, err := src.Checkpoint(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(info.Snapshot)
	if err != nil {
		f.Fatal(err)
	}
	fuzzSeeds(f, valid)
	for _, row := range badPositionRows {
		f.Add(snapshotWithRow(f, 0, row.pairs...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		db := NewDB()
		img, err := decodeSnapshotImage(data, new(rowDecoder))
		if err == nil {
			err = db.installSnapshot(&img.Snap)
		}
		if err != nil {
			if len(db.Tables()) != 0 {
				t.Fatalf("failed install left tables behind: %v", db.Tables())
			}
			return
		}
		db2 := roundTrip(t, db)
		if got, want := strings.Join(db2.Tables(), ","), strings.Join(db.Tables(), ","); got != want {
			t.Fatalf("tables after round trip = %s, want %s", got, want)
		}
	})
}
