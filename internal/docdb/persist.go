package docdb

import (
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

// Checkpoint writes one coordinated checkpoint generation — BLOB
// sidecar plus relational snapshot plus rotated WAL tail — into dir
// (the attached durability directory when dir is empty).
func (s *Store) Checkpoint(dir string) (*relstore.CheckpointInfo, error) {
	target := dir
	if target == "" {
		target = s.durDir
	}
	if target == "" {
		return nil, fmt.Errorf("docdb: no durability directory attached; pass one to Checkpoint")
	}
	info, err := s.rel.CheckpointWith(target, func(gen uint64) error {
		return atomicio.WriteFile(filepath.Join(target, blobFileName(gen)), func(w io.Writer) error {
			return s.blobs.Snapshot(w)
		})
	})
	if err != nil {
		return nil, err
	}
	relstore.PruneGenerationFiles(target, "blobs-", info.Gen)
	return info, nil
}

// CheckpointNow checkpoints into the directory Recover attached — the
// form the station RPC and the daemon's background checkpointer use.
func (s *Store) CheckpointNow() (*relstore.CheckpointInfo, error) {
	return s.Checkpoint("")
}

// Recover restores the store from a durability directory: the BLOB
// sidecar of the generation the relational recovery selects, the
// relational snapshot plus its WAL tail chain, the ID counter resynced
// past every restored row, and the attached content index rebuilt from
// the recovered rows. It attaches the directory for subsequent WAL
// appends and checkpoints. Call it once, before the store serves
// traffic.
//
// The sidecar is restored after relstore has chosen its generation, on
// the calling goroutine: only that generation's blobs-<g> is read, and
// every content hash in it is checked before the BLOB store changes.
func (s *Store) Recover(dir string) (*relstore.RecoverInfo, error) {
	info, err := s.rel.OpenDurable(dir)
	if err != nil {
		return nil, err
	}
	if info.Gen > 0 {
		f, err := os.Open(filepath.Join(dir, blobFileName(info.Gen)))
		if err != nil {
			// The checkpoint protocol renames the sidecar before the
			// snapshot, so this only happens for a relstore-only
			// checkpoint or a hand-pruned directory: recover the rows
			// and carry on with an empty BLOB store rather than refuse
			// to start.
			if !os.IsNotExist(err) {
				return nil, fmt.Errorf("docdb: opening BLOB sidecar: %w", err)
			}
		} else {
			rerr := s.blobs.Restore(f)
			f.Close()
			if rerr != nil {
				return nil, fmt.Errorf("docdb: restoring BLOB sidecar %s: %w", blobFileName(info.Gen), rerr)
			}
		}
	}
	// A checkpoint restores the indexes its writer knew; a newer
	// build's are added here (a no-op when nothing is missing).
	if err := schema.CreateIndexes(s.rel); err != nil {
		return nil, err
	}
	if err := s.SyncIDs(); err != nil {
		return nil, err
	}
	if ix := s.ContentIndex(); ix != nil {
		if err := ix.Rebuild(s.rel); err != nil {
			return nil, fmt.Errorf("docdb: rebuilding content index: %w", err)
		}
	}
	s.durDir = dir
	return info, nil
}

// DurableDir reports the durability directory Recover attached ("" for
// an in-memory store).
func (s *Store) DurableDir() string { return s.durDir }
