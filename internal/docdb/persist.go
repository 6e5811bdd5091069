package docdb

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/atomicio"
	"repro/internal/relstore"
	"repro/internal/schema"
)

// Generation-coordinated durability for the whole station store. The
// relational engine checkpoints itself (relstore's snap-<gen> /
// wal-<gen> layout); the BLOB layer's bytes are not in the WAL, so the
// document store writes them as a blobs-<gen> sidecar inside the same
// write-quiescent window, renamed before the relational snapshot. A
// visible snap-<gen> therefore always has its matching BLOB sidecar —
// a SIGKILL at any instant loses nothing that was checkpointed.

func blobFileName(gen uint64) string { return fmt.Sprintf("blobs-%010d", gen) }

// CheckpointNow writes one coordinated checkpoint generation — BLOB
// sidecar plus relational snapshot plus rotated WAL tail — into the
// directory Recover attached. The station RPC and the daemon's
// background checkpointer call it.
func (s *Store) CheckpointNow() (*relstore.CheckpointInfo, error) {
	dir := s.durDir
	if dir == "" {
		return nil, fmt.Errorf("docdb: no durability directory attached; Recover attaches one")
	}
	info, err := s.rel.CheckpointWith(dir, func(gen uint64) error {
		return atomicio.WriteFile(filepath.Join(dir, blobFileName(gen)), func(w io.Writer) error {
			return s.blobs.Snapshot(w)
		})
	})
	if err != nil {
		return nil, err
	}
	relstore.PruneGenerationFiles(dir, "blobs-", info.Gen)
	return info, nil
}

// Recover restores the store from a durability directory: the
// relational snapshot plus its WAL tail chain, the ID counter resynced
// past every restored row, the attached content index rebuilt from
// the recovered rows, the BLOB sidecar of the generation the
// relational recovery selected, and each BLOB's reference count
// re-derived from the media rows that name it. It attaches the
// directory for subsequent WAL appends and checkpoints. Call it once,
// before the store serves traffic.
//
// A recovery that fails leaves the store empty with no tail attached,
// so Recover may be called again, on another directory. The one
// exception is relstore.ErrWALOpen: the store is already recovered,
// and is left as it is.
//
// The sidecar is restored last, on the calling goroutine: only the
// chosen generation's blobs-<g> is opened, and only its index is read
// and checked before the BLOB store changes, so a refused sidecar
// leaves the BLOB store as it was. Recovery reads and hashes no media:
// each restored object is read from the sidecar and hashed on its
// first read (blob.Store.View), so an export of a medium whose bytes
// fail their hash fails, while the recovery and every other medium do
// not. The sidecar therefore stays open, owned by the BLOB store,
// after the next checkpoint has superseded and pruned it: that
// checkpoint copies the media nobody has read from it into its own
// sidecar, so a station holds at most this one superseded file open.
// A missing sidecar fails the recovery: rows without their BLOBs
// would point at nothing. The checkpoint renames the sidecar before
// the snapshot, so only a relstore-only checkpoint or a hand-pruned
// directory lacks it.
func (s *Store) Recover(dir string) (*relstore.RecoverInfo, error) {
	info, err := s.rel.OpenDurable(dir)
	if err == nil {
		err = s.recoverAfterRel(dir, info.Gen)
	} else if errors.Is(err, relstore.ErrWALOpen) {
		return nil, err
	}
	if err != nil {
		// Drop what OpenDurable loaded: the rows a later step failed
		// on, or a snapshot whose tail would not replay.
		if derr := s.rel.Discard(); derr != nil {
			err = fmt.Errorf("%w (and detaching the WAL tail: %v)", err, derr)
		}
		if ix := s.ContentIndex(); ix != nil {
			_ = ix.Rebuild(s.rel) // over the emptied tables; its error adds nothing to err
		}
		return nil, err
	}
	s.durDir = dir
	return info, nil
}

// recoverAfterRel finishes a recovery whose relational half has
// loaded generation gen. Every step that can fail runs before the BLOB
// store changes.
func (s *Store) recoverAfterRel(dir string, gen uint64) error {
	// The sidecar holds its checkpoint's reference counts, and the tail
	// replayed since may have added or dropped media rows: each object's
	// count is re-derived from the rows that name it.
	counts := make(map[string]int)
	for _, table := range []string{schema.TableImplMedia, schema.TableScriptMedia} {
		err := s.rel.ScanColumn(table, "blob_hash", func(v any) bool {
			h, _ := v.(string)
			counts[h]++
			return true
		})
		if err != nil {
			return err
		}
	}
	// A checkpoint restores the indexes its writer knew; a newer
	// build's are added here (a no-op when nothing is missing).
	if err := schema.CreateIndexes(s.rel); err != nil {
		return err
	}
	if err := s.SyncIDs(); err != nil {
		return err
	}
	if ix := s.ContentIndex(); ix != nil {
		if err := ix.Rebuild(s.rel); err != nil {
			return fmt.Errorf("docdb: rebuilding content index: %w", err)
		}
	}
	if gen > 0 {
		if err := s.restoreBlobs(dir, blobFileName(gen)); err != nil {
			return err
		}
	}
	s.blobs.Recount(counts)
	return nil
}

// restoreBlobs restores the BLOB store from the sidecar name in dir,
// which it leaves open for the store to read media from.
func (s *Store) restoreBlobs(dir, name string) error {
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		return fmt.Errorf("docdb: opening BLOB sidecar %s: %w", name, err)
	}
	fi, err := f.Stat()
	if err == nil {
		err = s.blobs.Restore(io.NewSectionReader(f, 0, fi.Size()))
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("docdb: restoring BLOB sidecar %s: %w", name, err)
	}
	return nil
}

// DurableDir reports the durability directory Recover attached ("" for
// an in-memory store).
func (s *Store) DurableDir() string { return s.durDir }
