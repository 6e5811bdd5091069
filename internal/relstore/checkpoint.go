package relstore

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/atomicio"
	"repro/internal/wire"
)

// Generation-numbered checkpoints and log compaction.
//
// A durability directory holds, per generation g:
//
//	snap-<g>   a consistent image of the whole database (a CRC-sealed
//	           binary image, see snapbin.go), written temp-then-rename
//	           so it is either absent or complete
//	wal-<g>    the write-ahead log tail: every transaction committed
//	           after checkpoint g and before g+1, as CRC-framed binary
//	           records (see walbin.go)
//
// Checkpoint(dir) captures the image and atomically rotates the
// attached WAL inside one write-quiescent window, so the snapshot and
// the fresh tail describe exactly the same point in history. Recovery
// (OpenDurable) loads the newest decodable snapshot and then
// chain-replays every tail at or above its generation in order —
// which makes every crash point safe:
//
//	crash before the new tail exists      -> old snap + old tail
//	crash after the tail, before the snap -> old snap + old tail + new
//	                                         (empty) tail
//	crash after the snap rename           -> new snap + new tail
//
// Restart cost is therefore bounded by the writes since the last
// checkpoint, not by the station's lifetime. Sidecar state (the BLOB
// store, see docdb) is written inside the same window and renamed
// before the snapshot, so a visible snap-<g> implies its sidecar
// landed too.

// CheckpointInfo describes one installed checkpoint generation.
type CheckpointInfo struct {
	Gen      uint64 // generation number
	Seq      uint64 // WAL sequence high-water the snapshot covers
	Snapshot string // path of the installed snapshot file
	WALTail  string // path of the fresh tail ("" without an attached WAL)
	Bytes    int64  // size of the snapshot file
}

// RecoverInfo describes a completed recovery.
type RecoverInfo struct {
	Gen     uint64 // generation of the snapshot loaded (0 when none)
	Applied int    // committed transactions replayed from WAL tails
	Seq     uint64 // WAL sequence high-water after recovery
	WALTail string // live tail attached for appends
}

// ckptImage is what a snapshot file holds: the generation header and
// the database image (snapbin.go is the encoding).
type ckptImage struct {
	Gen  uint64
	Seq  uint64
	Snap snapshot
}

func snapFileName(gen uint64) string { return fmt.Sprintf("snap-%010d", gen) }
func walFileName(gen uint64) string  { return fmt.Sprintf("wal-%010d", gen) }

// parseGenFile extracts the generation from a "<prefix><10 digits>"
// file name.
func parseGenFile(name, prefix string) (uint64, bool) {
	if len(name) != len(prefix)+10 || name[:len(prefix)] != prefix {
		return 0, false
	}
	var gen uint64
	for _, c := range name[len(prefix):] {
		if c < '0' || c > '9' {
			return 0, false
		}
		gen = gen*10 + uint64(c-'0')
	}
	return gen, true
}

// scanGenerations lists the snapshot and tail generations present in
// dir, each sorted ascending.
func scanGenerations(dir string) (snaps, tails []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("relstore: scanning durability dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if gen, ok := parseGenFile(e.Name(), "snap-"); ok {
			snaps = append(snaps, gen)
		} else if gen, ok := parseGenFile(e.Name(), "wal-"); ok {
			tails = append(tails, gen)
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	sort.Slice(tails, func(i, j int) bool { return tails[i] < tails[j] })
	return snaps, tails, nil
}

// highestGeneration returns the largest generation any snapshot or
// tail in dir carries, zero on an empty or unreadable directory.
func highestGeneration(dir string) uint64 {
	snaps, tails, err := scanGenerations(dir)
	if err != nil {
		return 0
	}
	var hi uint64
	if n := len(snaps); n > 0 {
		hi = snaps[n-1]
	}
	if n := len(tails); n > 0 && tails[n-1] > hi {
		hi = tails[n-1]
	}
	return hi
}

// pruneGenerations removes snapshots and tails older than the kept
// generation. Best effort: a leftover file is re-pruned next time.
func pruneGenerations(dir string, keep uint64) {
	PruneGenerationFiles(dir, "snap-", keep)
	PruneGenerationFiles(dir, "wal-", keep)
}

// PruneGenerationFiles removes every "<prefix><10-digit gen>" file in
// dir older than the kept generation — the shared pruning rule for
// checkpoint files and for sidecars other layers (the BLOB store)
// write beside them. Best effort: removal errors are ignored.
func PruneGenerationFiles(dir, prefix string, keep uint64) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if gen, ok := parseGenFile(e.Name(), prefix); ok && gen < keep {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// nameKeyedSnapMagic is the magic snapshots were sealed under while
// rows named their columns. wire.SnapMagic replaced it when rows went
// positional; a file that still carries it is refused with
// ErrPrePositional rather than misread.
const nameKeyedSnapMagic = 0xBA

// decodeSnapshotImage opens a sealed snapshot image and decodes its
// rows through dec.
func decodeSnapshotImage(data []byte, dec *rowDecoder) (*ckptImage, error) {
	if len(data) > 0 && data[0] == nameKeyedSnapMagic {
		return nil, ErrPrePositional
	}
	payload, err := wire.OpenImage(wire.SnapMagic, data)
	if err != nil {
		return nil, err
	}
	return decodeCkptImage(payload, dec)
}

// readSnapshotFile decodes one snap-<gen> file.
func readSnapshotFile(path string, dec *rowDecoder) (*ckptImage, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	img, err := decodeSnapshotImage(data, dec)
	if err != nil {
		return nil, fmt.Errorf("relstore: decoding %s: %w", filepath.Base(path), err)
	}
	return img, nil
}

// OpenDurable attaches generation-numbered durability to the database:
// it loads the newest decodable checkpoint snapshot in dir, replays
// every WAL tail at or above that generation in ascending order, and
// attaches the newest tail for subsequent appends (creating the
// generation-0 tail on a fresh directory). The WAL sequence counter
// resumes from the recovered high-water mark. It is the only way to
// load an image or attach a log: call it once, before the database
// serves traffic; on a database with a tail attached it fails with
// ErrWALOpen.
func (db *DB) OpenDurable(dir string) (*RecoverInfo, error) {
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	db.metaMu.RLock()
	attached := db.wal != nil
	db.metaMu.RUnlock()
	if attached {
		return nil, fmt.Errorf("%w: detach it before OpenDurable", ErrWALOpen)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("relstore: creating durability dir: %w", err)
	}
	atomicio.RemoveTemps(dir)
	snaps, tails, err := scanGenerations(dir)
	if err != nil {
		return nil, err
	}
	info := &RecoverInfo{}
	// One row decoder serves the whole recovery, so a string the
	// snapshot decoded is shared by the tail rows that repeat it.
	dec := new(rowDecoder)
	// Newest decodable snapshot wins; a corrupt newer file falls back
	// to the previous generation, whose tail chain still reaches the
	// same history. A snapshot in the pre-positional format ends the
	// recovery instead: every older one is older still, and nothing in
	// the directory may change before the operator decides.
	var snapErr error
	for i := len(snaps) - 1; i >= 0; i-- {
		img, err := readSnapshotFile(filepath.Join(dir, snapFileName(snaps[i])), dec)
		if errors.Is(err, ErrPrePositional) {
			return nil, err
		}
		if err == nil {
			err = db.installSnapshot(&img.Snap)
		}
		if err != nil {
			snapErr = err
			continue
		}
		info.Gen = img.Gen
		info.Seq = img.Seq
		break
	}
	if len(snaps) > 0 && info.Gen == 0 {
		return nil, fmt.Errorf("relstore: no loadable checkpoint in %s: %w", dir, snapErr)
	}
	// Chain-replay the tails the snapshot does not cover, noting where
	// the newest one's last complete record ends.
	tornEnd := int64(-1)
	for _, gen := range tails {
		if gen < info.Gen {
			continue
		}
		path := filepath.Join(dir, walFileName(gen))
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		applied, seq, end, rerr := db.replayWAL(f, dec)
		f.Close()
		info.Applied += applied
		if seq > info.Seq {
			info.Seq = seq
		}
		if rerr != nil {
			return nil, fmt.Errorf("relstore: replaying %s: %w", walFileName(gen), rerr)
		}
		if gen == tails[len(tails)-1] {
			tornEnd = end
		}
	}
	tailGen := info.Gen
	if n := len(tails); n > 0 && tails[n-1] > tailGen {
		tailGen = tails[n-1]
	}
	tail := filepath.Join(dir, walFileName(tailGen))
	wal, err := openTail(tail, tornEnd)
	if err != nil {
		return nil, err
	}
	db.seq.Store(info.Seq)
	db.metaMu.Lock()
	db.wal = wal
	db.metaMu.Unlock()
	db.dir = dir
	db.gen = info.Gen
	info.WALTail = tail
	pruneGenerations(dir, info.Gen)
	return info, nil
}

// Checkpoint writes a new checkpoint generation into dir (the
// directory OpenDurable attached when dir is empty) and atomically
// rotates the attached WAL, so the next restart loads the snapshot and
// replays only the tail written afterwards.
func (db *DB) Checkpoint(dir string) (*CheckpointInfo, error) {
	return db.CheckpointWith(dir, nil)
}

// CheckpointWith is Checkpoint with a sidecar hook: fn runs inside the
// write-quiescent window, before the snapshot is installed, so sidecar
// state (the document store's BLOB bytes) lands under the same
// generation — a visible snap-<gen> implies the sidecar's rename
// happened first. A sidecar failure aborts the checkpoint; the rotated
// tail remains part of the recovery chain, so nothing is lost.
func (db *DB) CheckpointWith(dir string, sidecar func(gen uint64) error) (*CheckpointInfo, error) {
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	if dir == "" {
		dir = db.dir
	}
	if dir == "" {
		return nil, errors.New("relstore: no durability directory attached; pass one to Checkpoint")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("relstore: creating durability dir: %w", err)
	}
	gen := db.gen
	if hi := highestGeneration(dir); hi > gen {
		gen = hi
	}
	gen++

	// Write-quiescent window: the shared schema lock plus every
	// table's read lock. Commits append to the WAL while holding their
	// tables' write locks, so inside the window no transaction sits
	// between mutating a table and logging the mutation — the captured
	// image and the rotated tail cut history at exactly the same
	// point. Reads proceed throughout; writers block only for the
	// capture, the tail swap and the sidecar, not for the encode.
	db.metaMu.RLock()
	names := db.lockAllTablesShared()
	snap := db.captureLocked()
	seq := db.seq.Load()
	var rotateErr, sideErr error
	tailPath := ""
	if wal := db.wal; wal != nil {
		wal.mu.Lock()
		tailPath, rotateErr = rotateTailLocked(wal, dir, gen)
		wal.mu.Unlock()
	}
	if rotateErr == nil && sidecar != nil {
		sideErr = sidecar(gen)
	}
	db.unlockAllTablesShared(names)
	db.metaMu.RUnlock()
	if rotateErr != nil {
		return nil, fmt.Errorf("relstore: rotating WAL: %w", rotateErr)
	}
	if sideErr != nil {
		return nil, fmt.Errorf("relstore: checkpoint sidecar: %w", sideErr)
	}

	// Encode and install outside the window: stored tuples are immutable
	// (mutations install fresh tuples), so the captured image stays
	// valid while writers fill the new tail. The rename is the commit
	// point of the whole checkpoint.
	img := ckptImage{Gen: gen, Seq: seq, Snap: snap}
	payload, err := appendCkptImage(nil, &img)
	if err != nil {
		return nil, err
	}
	sealed := wire.SealImage(wire.SnapMagic, payload)
	path := filepath.Join(dir, snapFileName(gen))
	if err := atomicio.WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(sealed)
		return err
	}); err != nil {
		return nil, err
	}
	db.gen = gen
	if db.dir == "" {
		db.dir = dir
	}
	pruneGenerations(dir, gen)
	info := &CheckpointInfo{Gen: gen, Seq: seq, Snapshot: path, WALTail: tailPath}
	if fi, err := os.Stat(path); err == nil {
		info.Bytes = fi.Size()
	}
	return info, nil
}

// rotateTailLocked flushes and syncs the current tail, then swaps the
// attached log onto a fresh wal-<gen> file. Caller holds wal.mu inside
// the write-quiescent window, so no append can slip between the two
// files.
func rotateTailLocked(wal *walTail, dir string, gen uint64) (string, error) {
	path := filepath.Join(dir, walFileName(gen))
	fresh, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return "", err
	}
	if err := wal.w.Flush(); err != nil {
		fresh.Close()
		os.Remove(path)
		return "", err
	}
	if err := wal.f.Sync(); err != nil {
		fresh.Close()
		os.Remove(path)
		return "", err
	}
	old := wal.f
	wal.f = fresh
	wal.w = bufio.NewWriter(fresh)
	wal.bytes = 0
	old.Close()
	return path, nil
}

// Generation reports the newest installed checkpoint generation (zero
// before the first checkpoint).
func (db *DB) Generation() uint64 {
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	return db.gen
}
