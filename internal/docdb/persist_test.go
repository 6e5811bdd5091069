package docdb

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/atomicio"
	"repro/internal/blob"
	"repro/internal/minisql"
	"repro/internal/relstore"
	"repro/internal/schema"
	"repro/internal/wire"
)

// newDurableStore opens a station store over a durability directory,
// the way webdocd does: schema installed by Open, state recovered from
// the newest checkpoint generation plus the WAL tail chain.
func newDurableStore(t testing.TB, dir string) (*Store, *relstore.RecoverInfo) {
	t.Helper()
	s, err := Open(relstore.NewDB(), blob.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	s.Now = func() time.Time { return time.Date(1999, 4, 21, 9, 0, 0, 0, time.UTC) }
	info, err := s.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s, info
}

// TestCheckpointCoversBlobsAcrossSIGKILL is the station-level crash
// matrix: a checkpoint lands, more writes follow (their WAL records
// reach disk, their BLOB bytes only reach memory), and the process
// dies without any shutdown. The restart must restore every
// checkpointed row AND every checkpointed BLOB byte, replay the
// post-checkpoint relational tail, and resync the ID counter so fresh
// IDs cannot collide with restored ones.
func TestCheckpointCoversBlobsAcrossSIGKILL(t *testing.T) {
	dir := t.TempDir()
	s, _ := newDurableStore(t, dir)
	_, url := seedCourse(t, s)
	mediaBefore, err := s.ImplMedia(url)
	if err != nil {
		t.Fatal(err)
	}
	if len(mediaBefore) == 0 {
		t.Fatal("seeded course has no media")
	}
	htmlBefore, err := s.HTML(url, "index.html")
	if err != nil {
		t.Fatal(err)
	}
	info, err := s.CheckpointNow()
	if err != nil {
		t.Fatal(err)
	}
	if info.Gen != 1 {
		t.Fatalf("checkpoint generation = %d", info.Gen)
	}

	// Post-checkpoint writes: the rows hit the WAL tail; the new BLOB
	// bytes exist only in memory, exactly the window a SIGKILL between
	// a WAL append and any sidecar write exposes.
	if err := s.PutHTML(url, "late.html", []byte("<html>late</html>")); err != nil {
		t.Fatal(err)
	}
	lateMedia, err := s.AttachImplMedia(url, "late.wav", blob.KindAudio, bytes.Repeat([]byte("zz"), 400))
	if err != nil {
		t.Fatal(err)
	}
	// SIGKILL: the store is abandoned with no CloseWAL and no sidecar
	// write. (Appends flush per commit, so the tail is on disk.)

	s2, rec := newDurableStore(t, dir)
	if rec.Gen != 1 {
		t.Errorf("recovered generation = %d, want 1", rec.Gen)
	}
	if rec.Applied == 0 {
		t.Error("restart replayed no tail transactions")
	}
	// Checkpointed state is complete: every pre-checkpoint media ref
	// still resolves to physical BLOB bytes, and the pages match.
	for _, m := range mediaBefore {
		if !s2.Blobs().Has(m.Ref) {
			t.Errorf("checkpointed BLOB %s lost across SIGKILL", m.Name)
		}
	}
	htmlAfter, err := s2.HTML(url, "index.html")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(htmlAfter, htmlBefore) {
		t.Error("checkpointed page content changed across SIGKILL")
	}
	// The post-checkpoint relational writes survived via the tail...
	if _, err := s2.HTML(url, "late.html"); err != nil {
		t.Errorf("post-checkpoint page lost: %v", err)
	}
	media, err := s2.ImplMedia(url)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range media {
		if m.ResID == lateMedia.ResID {
			found = true
		}
	}
	if !found {
		t.Error("post-checkpoint media row lost")
	}
	// ...while the un-checkpointed BLOB bytes are the documented loss.
	if s2.Blobs().Has(lateMedia.Ref) {
		t.Error("un-checkpointed BLOB bytes survived a SIGKILL — test premise broken")
	}
	// ID counter resync: a fresh media row must not collide with the
	// restored ones.
	if _, err := s2.AttachImplMedia(url, "fresh.gif", blob.KindImage, []byte("fresh")); err != nil {
		t.Errorf("ID counter collided after recovery: %v", err)
	}
}

// walCuts runs op, which commits to the durable store over dir
// without checkpointing, and returns the WAL tail op appended to and
// every record boundary op left in it: the tail's length before op,
// then the end of each record op wrote. Each is an instant a SIGKILL
// could leave behind.
func walCuts(t *testing.T, dir string, op func()) (tail string, cuts []int) {
	t.Helper()
	tails, err := filepath.Glob(filepath.Join(dir, "wal-*"))
	if err != nil || len(tails) == 0 {
		t.Fatalf("no WAL tail in %s: %v", dir, err)
	}
	tail = tails[len(tails)-1]
	before, err := os.ReadFile(tail)
	if err != nil {
		t.Fatal(err)
	}
	op()
	raw, err := os.ReadFile(tail) // SIGKILL: no CloseWAL
	if err != nil {
		t.Fatal(err)
	}
	cuts = []int{len(before)}
	br := bufio.NewReader(bytes.NewReader(raw[len(before):]))
	for {
		payload, err := wire.ReadRecord(br, 0)
		if err == io.EOF {
			return tail, cuts
		}
		if err != nil {
			t.Fatal(err)
		}
		cuts = append(cuts, cuts[len(cuts)-1]+wire.RecordSize(len(payload)))
	}
}

// recoverCut copies dir with its WAL tail cut to the first cut bytes,
// as a SIGKILL at that record boundary leaves it, and recovers a store
// from the copy. The caller detaches the recovered store's WAL.
func recoverCut(t *testing.T, dir, tail string, cut int) *Store {
	t.Helper()
	crash := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Join(dir, e.Name()) == tail {
			data = data[:cut]
		}
		if err := os.WriteFile(filepath.Join(crash, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r, _ := newDurableStore(t, crash)
	return r
}

// TestMigrationCommitsAsOne cuts the WAL at every record boundary a
// migration wrote — the instants a SIGKILL could leave behind — and
// recovers each prefix. The document must come back as an instance
// with all of its pages, programs and resident media, or as a
// reference with none of them: never an instance stripped of its
// content, which every resolve below the station would be served.
func TestMigrationCommitsAsOne(t *testing.T) {
	dir := t.TempDir()
	s, _ := newDurableStore(t, dir)
	b := lectureBundle()
	url := b.Impl.StartingURL
	obj, err := s.ImportBundle(&b, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	// The checkpoint puts the media in the BLOB sidecar, so only the
	// migration's own records decide what a restart finds.
	if _, err := s.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	tail, cuts := walCuts(t, dir, func() {
		if err := s.MigrateToReference(obj.ID, 1); err != nil {
			t.Fatal(err)
		}
	})
	if len(cuts) == 1 {
		t.Fatal("the migration wrote no WAL record")
	}

	for i, cut := range cuts {
		r := recoverCut(t, dir, tail, cut)
		got, err := r.Object(obj.ID)
		if err != nil {
			t.Fatalf("cut %d of %d: %v", i, len(cuts)-1, err)
		}
		html, err := r.HTMLFiles(url)
		if err != nil {
			t.Fatal(err)
		}
		progs, err := r.ProgramFiles(url)
		if err != nil {
			t.Fatal(err)
		}
		media, err := r.ImplMedia(url)
		if err != nil {
			t.Fatal(err)
		}
		resident := 0
		for _, m := range media {
			if r.Blobs().Has(m.Ref) {
				resident++
			}
		}
		switch {
		case got.Form == schema.FormInstance && len(html) == len(b.HTML) && len(progs) == len(b.Programs) &&
			len(media) == len(b.Media) && resident == len(b.Media):
			if i == len(cuts)-1 {
				t.Fatal("the whole WAL recovered the migrated document as an instance")
			}
		case got.Form == schema.FormReference && len(html)+len(progs)+len(media) == 0:
			if i == 0 {
				t.Fatal("the WAL without the migration recovered a reference")
			}
		default:
			t.Fatalf("cut %d of %d: a %s with %d pages, %d programs, %d media rows (%d resident)",
				i, len(cuts)-1, got.Form, len(html), len(progs), len(media), resident)
		}
		if err := r.Rel().CloseWAL(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoveredRefcountDropsReleasedReference: a migration after the
// checkpoint releases the instance's references, and only its WAL
// record survives the SIGKILL. The restored sidecar still counts them;
// recovery must count the rows instead, so deleting the last row
// naming each medium frees its bytes rather than pinning them forever.
func TestRecoveredRefcountDropsReleasedReference(t *testing.T) {
	dir := t.TempDir()
	s, _ := newDurableStore(t, dir)
	b := lectureBundle()
	obj, err := s.ImportBundle(&b, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	const copyURL = "http://mmu/cs101/copy"
	if err := s.DuplicateComponent(b.Impl.StartingURL, copyURL, "ta"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if err := s.MigrateToReference(obj.ID, 1); err != nil {
		t.Fatal(err)
	}

	r, _ := newDurableStore(t, dir) // SIGKILL: no CloseWAL
	defer r.Rel().CloseWAL()
	for _, m := range b.Media {
		if got := r.Blobs().RefCount(blob.Ref{Hash: m.Hash}); got != 1 {
			t.Errorf("medium %s: recovered refcount %d, but one row names it", m.Name, got)
		}
	}
	if err := r.DeleteImplementation(copyURL); err != nil {
		t.Fatal(err)
	}
	if st := r.Blobs().Stats(); st.Objects != 0 || st.PhysicalBytes != 0 || st.LogicalBytes != 0 {
		t.Errorf("no row names a BLOB, yet the store holds %+v", st)
	}
}

// TestRecoveredRefcountKeepsSharedReference: a copy made after the
// checkpoint shares the original's media, and only its WAL record
// survives the SIGKILL. The restored sidecar counts one reference
// where two rows name each medium; recovery must count the rows, so
// deleting the original leaves the copy's bytes resident.
func TestRecoveredRefcountKeepsSharedReference(t *testing.T) {
	dir := t.TempDir()
	s, _ := newDurableStore(t, dir)
	b := lectureBundle()
	if _, err := s.ImportBundle(&b, 1, true); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	const copyURL = "http://mmu/cs101/copy"
	if err := s.DuplicateComponent(b.Impl.StartingURL, copyURL, "ta"); err != nil {
		t.Fatal(err)
	}

	r, _ := newDurableStore(t, dir) // SIGKILL: no CloseWAL
	defer r.Rel().CloseWAL()
	for _, m := range b.Media {
		if got := r.Blobs().RefCount(blob.Ref{Hash: m.Hash}); got != 2 {
			t.Errorf("medium %s: recovered refcount %d, but two rows name it", m.Name, got)
		}
	}
	if err := r.DeleteImplementation(b.Impl.StartingURL); err != nil {
		t.Fatal(err)
	}
	got, err := r.ExportBundle(copyURL)
	if err != nil {
		t.Fatalf("the copy after its original was deleted: %v", err)
	}
	if len(got.Media) != len(b.Media) {
		t.Errorf("the copy exports %d media, want %d", len(got.Media), len(b.Media))
	}
}

// TestRecoverUsesSidecarOfChosenGeneration: a crash mid-checkpoint can
// strand a newer BLOB sidecar whose relational snapshot never landed.
// Recovery picks the sidecar matching the generation it actually
// loads, not the newest file on disk.
func TestRecoverUsesSidecarOfChosenGeneration(t *testing.T) {
	dir := t.TempDir()
	s, _ := newDurableStore(t, dir)
	_, url := seedCourse(t, s)
	if _, err := s.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	phys := s.Blobs().Stats().PhysicalBytes

	// The crashed generation 2: sidecar renamed, snapshot stranded as
	// a temp (atomic writes rename the sidecar first).
	stray := blob.NewStore()
	stray.Put("ghost", blob.KindOther, []byte("ghost bytes"))
	if err := atomicio.WriteFile(filepath.Join(dir, blobFileName(2)), stray.Snapshot); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "snap-0000000002.tmp-9"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, rec := newDurableStore(t, dir)
	if rec.Gen != 1 {
		t.Fatalf("recovered generation = %d, want 1", rec.Gen)
	}
	if got := s2.Blobs().Stats().PhysicalBytes; got != phys {
		t.Errorf("recovered BLOB bytes = %d, want the generation-1 sidecar's %d", got, phys)
	}
	if _, err := s2.ExportBundle(url); err != nil {
		t.Errorf("bundle after fallback recovery: %v", err)
	}
}

// TestRecoverNamesUnreadableBlobSidecar: a sidecar that is not a BLOB
// image (here: what a pre-binary writer left) fails the recovery with
// an error naming the file, and the file stays where it is.
func TestRecoverNamesUnreadableBlobSidecar(t *testing.T) {
	dir := t.TempDir()
	s, _ := newDurableStore(t, dir)
	seedCourse(t, s)
	if _, err := s.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if err := s.Rel().CloseWAL(); err != nil {
		t.Fatal(err)
	}
	old := []byte{0x0C, 0xFF, 0x81, 0x02, 0x01, 0x01} // a gob stream's opening bytes
	if err := os.WriteFile(filepath.Join(dir, blobFileName(1)), old, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(relstore.NewDB(), blob.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	_, err = s2.Recover(dir)
	if err == nil || !strings.Contains(err.Error(), blobFileName(1)) || !strings.Contains(err.Error(), "predates the binary format") {
		t.Fatalf("Recover err = %v, want one naming %s that says it predates the binary format", err, blobFileName(1))
	}
	if got, rerr := os.ReadFile(filepath.Join(dir, blobFileName(1))); rerr != nil || !bytes.Equal(got, old) {
		t.Errorf("sidecar changed or vanished after the failed recovery (err=%v)", rerr)
	}
}

// TestRecoverRefusesMissingBlobSidecar: the loaded generation's
// sidecar is gone. Recovery fails naming the file instead of restoring
// media rows whose BLOBs are nowhere, and the course is not served.
func TestRecoverRefusesMissingBlobSidecar(t *testing.T) {
	dir := t.TempDir()
	s, _ := newDurableStore(t, dir)
	_, url := seedCourse(t, s)
	if _, err := s.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if err := s.Rel().CloseWAL(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, blobFileName(1))); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(relstore.NewDB(), blob.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Recover(dir); err == nil || !strings.Contains(err.Error(), blobFileName(1)) {
		t.Fatalf("Recover err = %v, want one naming %s", err, blobFileName(1))
	}
	if _, err := s2.ExportBundle(url); err == nil {
		t.Error("the store serves the course after a recovery that found no BLOB sidecar")
	}
}

// TestTimeValueSurvivesRecoveryUnchanged writes a checkout through the
// store's default clock, time.Now, whose reading carries a monotonic
// clock and the local zone. A recovered time comes back as UTC with no
// monotonic reading, so the live row must already be in that form: the
// row is DeepEqual before and after checkpoint + recovery, and its SQL
// cell shows no m= reading either way.
func TestTimeValueSurvivesRecoveryUnchanged(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(relstore.NewDB(), blob.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recover(dir); err != nil {
		t.Fatal(err)
	}
	name, _ := seedCourse(t, s)
	id, err := s.CheckOut(schema.KindScript, name, "alice")
	if err != nil {
		t.Fatal(err)
	}
	outTime := func(s *Store) (relstore.Row, string) {
		t.Helper()
		row, err := s.Rel().Get(schema.TableCheckouts, id)
		if err != nil {
			t.Fatal(err)
		}
		res, err := minisql.NewSession(s.Rel()).Exec("SELECT out_time FROM checkouts")
		if err != nil {
			t.Fatal(err)
		}
		return row, res.Cells()[0][0]
	}
	liveRow, liveCell := outTime(s)
	if _, err := s.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if err := s.Rel().CloseWAL(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(relstore.NewDB(), blob.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Recover(dir); err != nil {
		t.Fatal(err)
	}
	defer s2.Rel().CloseWAL()
	gotRow, gotCell := outTime(s2)
	if !reflect.DeepEqual(liveRow, gotRow) {
		t.Errorf("checkout row live %#v, recovered %#v", liveRow, gotRow)
	}
	if strings.Contains(liveCell, "m=") || liveCell != gotCell {
		t.Errorf("out_time cell live %q, recovered %q", liveCell, gotCell)
	}
}

// TestCheckpointPrunesBlobSidecars: only the newest generation's
// sidecar remains after a successful checkpoint.
func TestCheckpointPrunesBlobSidecars(t *testing.T) {
	dir := t.TempDir()
	s, _ := newDurableStore(t, dir)
	seedCourse(t, s)
	if _, err := s.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, blobFileName(1))); !os.IsNotExist(err) {
		t.Error("generation-1 sidecar survived the generation-2 checkpoint")
	}
	if _, err := os.Stat(filepath.Join(dir, blobFileName(2))); err != nil {
		t.Errorf("generation-2 sidecar missing: %v", err)
	}
}

// TestCheckpointWithoutDirFails mirrors relstore's guard at the store
// level.
func TestCheckpointWithoutDirFails(t *testing.T) {
	s := newStore(t)
	if _, err := s.CheckpointNow(); err == nil {
		t.Fatal("checkpoint of an in-memory store succeeded")
	}
}

// TestRecoverSkipsSidecarOfCorruptSnapshot: the newest snapshot is
// unreadable while its sidecar is sound, so relstore falls back a
// generation. The BLOB store must come back as the older generation's
// sidecar holds it, with nothing from the newer one.
func TestRecoverSkipsSidecarOfCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, _ := newDurableStore(t, dir)
	_, url := seedCourse(t, s)
	if _, err := s.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	gen1 := s.Blobs().List()
	late, err := s.AttachImplMedia(url, "late.wav", blob.KindAudio, bytes.Repeat([]byte("gen2"), 300))
	if err != nil {
		t.Fatal(err)
	}
	// The generation-2 checkpoint prunes generation 1; keep its files
	// (the tail now complete) and put them back afterwards.
	kept := map[string][]byte{}
	for _, name := range []string{"snap-0000000001", "wal-0000000001", blobFileName(1)} {
		if kept[name], err = os.ReadFile(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if err := s.Rel().CloseWAL(); err != nil {
		t.Fatal(err)
	}
	for name, data := range kept {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "snap-0000000002"), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, rec := newDurableStore(t, dir)
	if rec.Gen != 1 {
		t.Fatalf("recovered generation = %d, want 1", rec.Gen)
	}
	if got := s2.Blobs().List(); !slices.Equal(got, gen1) {
		t.Errorf("recovered BLOBs %v, want generation 1's %v", got, gen1)
	}
	if s2.Blobs().Has(late.Ref) {
		t.Error("a BLOB only the unloaded generation-2 sidecar holds was installed")
	}
}

// TestRecoverRefusesCorruptSidecarOfLoadedGeneration: the snapshot
// loads but its sidecar's index fails its checks. Recovery fails naming
// the file and leaves the store empty, with no WAL tail attached: a
// second Recover on the same store, of an undamaged directory holding
// the same course, restores it.
func TestRecoverRefusesCorruptSidecarOfLoadedGeneration(t *testing.T) {
	dir, _, path := checkpointedCourse(t)
	clean, url, _ := checkpointedCourse(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[8] ^= 0xFF // inside the index's first hash
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(relstore.NewDB(), blob.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Recover(dir); err == nil || !strings.Contains(err.Error(), blobFileName(1)) {
		t.Fatalf("Recover err = %v, want one naming %s", err, blobFileName(1))
	}
	if st := s2.Blobs().Stats(); st.Objects != 0 {
		t.Errorf("a refused sidecar left %d objects installed", st.Objects)
	}
	for _, table := range s2.Rel().Tables() {
		if n, err := s2.Rel().Count(table); err != nil || n != 0 {
			t.Errorf("after the failed recovery %s holds %d rows (err=%v), want none", table, n, err)
		}
	}
	if _, err := s2.Recover(clean); err != nil {
		t.Fatalf("second Recover, of an undamaged directory: %v", err)
	}
	defer s2.Rel().CloseWAL()
	if _, err := s2.ExportBundle(url); err != nil {
		t.Errorf("the course after the second Recover: %v", err)
	}
}

// checkpointedCourse seeds a course on a durable store in a fresh
// directory, checkpoints it with no tail and detaches the WAL. It
// returns the directory, the course's URL and the sidecar's path.
func checkpointedCourse(t *testing.T) (dir, url, sidecar string) {
	t.Helper()
	dir = t.TempDir()
	s, _ := newDurableStore(t, dir)
	_, url = seedCourse(t, s)
	if _, err := s.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if err := s.Rel().CloseWAL(); err != nil {
		t.Fatal(err)
	}
	return dir, url, filepath.Join(dir, blobFileName(1))
}

// TestRecoverSidecarCorruptionMatrix: damage to the sidecar's index or
// length fails the recovery with an error naming the file. A flipped
// byte of a medium is not the index's to catch: the recovery succeeds,
// that medium's reads fail with ErrHashMismatch, every other medium
// serves, and the store counts one verify failure.
func TestRecoverSidecarCorruptionMatrix(t *testing.T) {
	for _, tc := range []struct {
		name    string
		damage  func([]byte) []byte
		refused bool
	}{
		{"flipped index byte", func(b []byte) []byte { b[8] ^= 1; return b }, true},
		{"truncated file", func(b []byte) []byte { return b[:len(b)-1] }, true},
		{"byte past the last medium", func(b []byte) []byte { return append(b, 0) }, true},
		{"flipped data byte", func(b []byte) []byte { b[len(b)-1] ^= 1; return b }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, _, path := checkpointedCourse(t)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.damage(data), 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(relstore.NewDB(), blob.NewStore())
			if err != nil {
				t.Fatal(err)
			}
			_, err = s.Recover(dir)
			if tc.refused {
				if err == nil || !strings.Contains(err.Error(), blobFileName(1)) {
					t.Fatalf("Recover err = %v, want one naming %s", err, blobFileName(1))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer s.Rel().CloseWAL()
			refs := s.Blobs().List()
			if len(refs) < 2 {
				t.Fatalf("the course restored %d media, want at least 2", len(refs))
			}
			// The last byte of the sidecar is the last byte of the
			// medium with the greatest hash.
			for i, ref := range refs {
				got, err := s.Blobs().View(ref)
				if i == len(refs)-1 {
					if !errors.Is(err, blob.ErrHashMismatch) || got != nil {
						t.Errorf("the damaged medium read %d bytes, err = %v; want ErrHashMismatch", len(got), err)
					}
					continue
				}
				if err != nil || blob.HashOf(got) != ref.Hash {
					t.Errorf("medium %.12s: %v", ref.Hash, err)
				}
			}
			if st := s.Blobs().Stats(); st.VerifyFailures != 1 || st.Unverified != 0 {
				t.Errorf("stats %+v, want one verify failure and nothing unread", st)
			}
		})
	}
}

// TestRestoredStoreServesReleasesAndCheckpoints runs on one restored
// store, at once: first reads of an unloaded medium, first reads of a
// second unloaded medium while a document delete releases it to zero,
// and a checkpoint, which copies the media nobody has read from the
// superseded sidecar. A restart from the new generation then reads
// every medium back verified. Run it under -race.
func TestRestoredStoreServesReleasesAndCheckpoints(t *testing.T) {
	dir := t.TempDir()
	s, _ := newDurableStore(t, dir)
	_, kept := seedCourse(t, s)
	const dropped = "http://mmu/intro-cs/v2"
	if err := s.AddImplementation(Implementation{StartingURL: dropped, ScriptName: "intro-cs", Author: "Shih"}); err != nil {
		t.Fatal(err)
	}
	droppedBytes := bytes.Repeat([]byte("v2"), 40<<10)
	droppedRef, err := s.AttachImplMedia(dropped, "v2.mpg", blob.KindVideo, droppedBytes)
	if err != nil {
		t.Fatal(err)
	}
	keptMedia, err := s.ImplMedia(kept)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if err := s.Rel().CloseWAL(); err != nil {
		t.Fatal(err)
	}

	s2, _ := newDurableStore(t, dir)
	target := keptMedia[0].Ref
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			if got, err := s2.Blobs().View(target); err != nil || blob.HashOf(got) != target.Hash {
				t.Errorf("first read of %.12s: %d bytes, %v", target.Hash, len(got), err)
			}
		}()
		go func() {
			defer wg.Done()
			<-start
			got, err := s2.Blobs().View(droppedRef.Ref)
			if err != nil && !errors.Is(err, blob.ErrNotFound) {
				t.Errorf("read of the released medium: %v", err)
			}
			if err == nil && !bytes.Equal(got, droppedBytes) {
				t.Errorf("read of the released medium returned %d other bytes", len(got))
			}
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		<-start
		if err := s2.DeleteImplementation(dropped); err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer wg.Done()
		<-start
		if _, err := s2.CheckpointNow(); err != nil {
			t.Error(err)
		}
	}()
	close(start)
	wg.Wait()
	if s2.Blobs().Has(droppedRef.Ref) {
		t.Error("the deleted implementation's medium is still resident")
	}
	if err := s2.Rel().CloseWAL(); err != nil {
		t.Fatal(err)
	}

	s3, info := newDurableStore(t, dir)
	defer s3.Rel().CloseWAL()
	if info.Gen != 2 {
		t.Fatalf("restarted from generation %d, want the concurrent checkpoint's 2", info.Gen)
	}
	refs := s3.Blobs().List()
	if len(refs) != len(keptMedia) {
		t.Fatalf("restart holds %d media, want the kept course's %d", len(refs), len(keptMedia))
	}
	for _, ref := range refs {
		if got, err := s3.Blobs().View(ref); err != nil || blob.HashOf(got) != ref.Hash {
			t.Errorf("medium %.12s after the restart: %d bytes, %v", ref.Hash, len(got), err)
		}
	}
	if st := s3.Blobs().Stats(); st.VerifyFailures != 0 || st.Unverified != 0 {
		t.Errorf("after reading every medium: %+v", st)
	}
}

// recoverFixture is crash-restart in miniature: a station with a
// checkpointed body (courses with media, ledger rows) and an
// uncheckpointed tail (more courses, more rows), abandoned without a
// shutdown. It returns the durability directory.
func recoverFixture(b testing.TB) string {
	b.Helper()
	dir := b.TempDir()
	s, _ := newDurableStore(b, dir)
	if err := s.CreateDatabase(Database{Name: "mmu", Author: "Shih"}); err != nil {
		b.Fatal(err)
	}
	fill := func(courses, firstRow, rows int) {
		for i := courses - 4; i < courses; i++ {
			script, url := fmt.Sprintf("course-%03d", i), fmt.Sprintf("http://mmu/course-%03d/v1", i)
			if err := s.CreateScript(Script{Name: script, DBName: "mmu", Author: "Shih"}); err != nil {
				b.Fatal(err)
			}
			if err := s.AddImplementation(Implementation{StartingURL: url, ScriptName: script, Author: "Shih"}); err != nil {
				b.Fatal(err)
			}
			if err := s.PutHTML(url, "index.html", []byte("<html>lecture "+script+"</html>")); err != nil {
				b.Fatal(err)
			}
			for m := 0; m < 3; m++ {
				media := bytes.Repeat([]byte{byte(i), byte(m)}, 48<<10)
				if _, err := s.AttachImplMedia(url, fmt.Sprintf("m%d.mpg", m), blob.KindVideo, media); err != nil {
					b.Fatal(err)
				}
			}
		}
		for r := firstRow; r < firstRow+rows; r++ {
			tr := TestRecord{Name: fmt.Sprintf("test-%06d", r), ScriptName: fmt.Sprintf("course-%03d", r%courses), Scope: "local"}
			if err := s.RecordTest(tr); err != nil {
				b.Fatal(err)
			}
		}
	}
	fill(4, 0, 1000)
	if _, err := s.CheckpointNow(); err != nil {
		b.Fatal(err)
	}
	fill(8, 1000, 400) // the tail: four more courses, 400 more rows
	if err := s.Rel().CloseWAL(); err != nil {
		b.Fatal(err)
	}
	return dir
}

// recoverCold recovers a fresh store from dir and detaches its tail.
func recoverCold(b testing.TB, dir string) *Store {
	s, err := Open(relstore.NewDB(), blob.NewStore())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Recover(dir); err != nil {
		b.Fatal(err)
	}
	if err := s.Rel().CloseWAL(); err != nil {
		b.Fatal(err)
	}
	return s
}

// indexLookups is one query per hash index of the station schema,
// each pinning exactly that index's columns: the foreign-key indexes
// CreateTable adds, then the ones schema.CreateIndexes adds. A query
// that another index also serves (a composite's prefix) considers that
// one too.
func indexLookups(tb testing.TB, rel *relstore.DB) []relstore.Query {
	tb.Helper()
	eq := func(table string, cols ...string) []relstore.Cond {
		sc, err := rel.SchemaOf(table)
		if err != nil {
			tb.Fatal(err)
		}
		var conds []relstore.Cond
		for _, c := range cols {
			var val any = "x"
			if i := slices.IndexFunc(sc.Columns, func(col relstore.Column) bool { return col.Name == c }); i >= 0 && sc.Columns[i].Type == relstore.TInt {
				val = int64(1)
			}
			conds = append(conds, relstore.Cond{Col: c, Op: relstore.OpEq, Val: val})
		}
		return conds
	}
	var qs []relstore.Query
	for _, table := range rel.Tables() {
		sc, err := rel.SchemaOf(table)
		if err != nil {
			tb.Fatal(err)
		}
		for _, fk := range sc.ForeignKeys {
			qs = append(qs, relstore.Query{Table: table, Conds: eq(table, fk.Column), Limit: 1})
		}
	}
	for _, ix := range [][]string{
		{schema.TableScripts, "author"},
		{schema.TableScripts, "keywords"},
		{schema.TableCheckouts, "user"},
		{schema.TableCheckouts, "object_id"},
		{schema.TableVersions, "object_id"},
		{schema.TableVersions, "object_kind", "object_id"},
		{schema.TableDocObjects, "station"},
		{schema.TableDocObjects, "form"},
	} {
		qs = append(qs, relstore.Query{Table: ix[0], Conds: eq(ix[0], ix[1:]...), Limit: 1})
	}
	open := append(eq(schema.TableCheckouts, "object_kind", "object_id"), relstore.Cond{Col: "in_time", Op: relstore.OpIsNull})
	return append(qs, relstore.Query{Table: schema.TableCheckouts, Conds: open, Limit: 1})
}

// fixtureFileBytes reports the sizes of the one snapshot and the one
// WAL tail recoverFixture leaves in dir.
func fixtureFileBytes(tb testing.TB, dir string) (snap, wal int64) {
	tb.Helper()
	size := func(pattern string) int64 {
		paths, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil || len(paths) != 1 {
			tb.Fatalf("%s in the fixture: %v (err=%v), want exactly one", pattern, paths, err)
		}
		fi, err := os.Stat(paths[0])
		if err != nil {
			tb.Fatal(err)
		}
		return fi.Size()
	}
	return size("snap-*"), size("wal-*")
}

// BenchmarkRecover recovers recoverFixture's station cold over and
// over, and reports the sizes of the files it reads. Run with
// -benchmem.
func BenchmarkRecover(b *testing.B) {
	dir := recoverFixture(b)
	snap, wal := fixtureFileBytes(b, dir)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recoverCold(b, dir)
	}
	b.ReportMetric(float64(snap), "snap-B")
	b.ReportMetric(float64(wal), "wal-B")
}

// recoverAllocBudget bounds the objects one cold recovery of
// recoverFixture's station may allocate: about 10 % above the 7.54k
// measured once strings were interned in a fixed direct-mapped table
// and each snapshot table decoded into one slab with one key arena
// (9.98k with an intern map and a tuple and a key per row, once hash
// indexes were built on their first lookup; 10.26k when recovery built
// every index, 10.34k when it read every medium, 16.3k before rows
// were positional on disk, and 41.4k when every row was a map).
// eagerRecoverAllocs is what recovery allocated while it still built
// every index: recovery followed by a lookup through every index may
// not allocate more.
//
// recoverByteBudget bounds the bytes one cold recovery allocates the
// same way: about 10 % above the 700 KB measured with the fixed intern
// table (787 KB with the intern map and a tuple per row, and 797 KB
// with a map behind the fixed table's calls, whose growth the object
// count barely sees).
const (
	recoverAllocBudget = 8300
	recoverByteBudget  = 770_000
	eagerRecoverAllocs = 10262
)

// TestRecoverAllocBudget keeps recovery's allocation count from
// eroding silently. The count is exact, so unlike a timing it does not
// depend on the machine.
func TestRecoverAllocBudget(t *testing.T) {
	dir := recoverFixture(t)
	if n := testing.AllocsPerRun(5, func() { recoverCold(t, dir) }); n > recoverAllocBudget {
		t.Errorf("one cold recovery allocates %.0f objects, budget %d", n, recoverAllocBudget)
	}
	// The lookups' own allocations, counted on a store whose indexes
	// are built, are not index building.
	built := recoverCold(t, dir).Rel()
	lookups := indexLookups(t, built)
	lookupAll := func(rel *relstore.DB) {
		for _, q := range lookups {
			if _, err := rel.Select(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	lookupAll(built)
	own := testing.AllocsPerRun(5, func() { lookupAll(built) })
	n := testing.AllocsPerRun(5, func() { lookupAll(recoverCold(t, dir).Rel()) })
	if n-own > eagerRecoverAllocs {
		t.Errorf("a cold recovery and a lookup through every index allocate %.0f objects (%.0f of them the lookups'), more than the %d of a recovery that built every index", n, own, eagerRecoverAllocs)
	}
}

// TestRecoverByteBudget keeps the bytes one cold recovery allocates
// from eroding silently.
func TestRecoverByteBudget(t *testing.T) {
	if raceBuild {
		t.Skip("the budget is for the optimized build; -race instrumentation allocates more")
	}
	dir := recoverFixture(t)
	recoverCold(t, dir)
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		recoverCold(t, dir)
	}
	runtime.ReadMemStats(&after)
	if n := (after.TotalAlloc - before.TotalAlloc) / runs; n > recoverByteBudget {
		t.Errorf("one cold recovery allocates %d bytes, budget %d", n, recoverByteBudget)
	}
}

// TestRecoverBuildsIndexesOnFirstLookup pins how many hash indexes a
// restart builds: none at recovery, then on a lookup exactly the
// indexes the planner considered for it, and on a repeated lookup
// none. A lookup through every index builds each once.
func TestRecoverBuildsIndexesOnFirstLookup(t *testing.T) {
	dir := recoverFixture(t)
	rel := recoverCold(t, dir).Rel()
	if built := rel.BuiltIndexes(); len(built) != 0 {
		t.Fatalf("a cold recovery built %v, want no index", built)
	}
	lookup := func(q relstore.Query, want ...string) {
		t.Helper()
		before := rel.BuiltIndexes()
		if _, err := rel.Select(q); err != nil {
			t.Fatal(err)
		}
		var added []string
		for _, name := range rel.BuiltIndexes() {
			if !slices.Contains(before, name) {
				added = append(added, name)
			}
		}
		if !slices.Equal(added, want) {
			t.Errorf("lookup %+v built %v, want %v", q.Conds, added, want)
		}
	}
	records := relstore.Query{Table: schema.TableTestRecords, Conds: []relstore.Cond{{Col: "script_name", Op: relstore.OpEq, Val: "course-001"}}}
	lookup(records, "test_records.script_name")
	lookup(records)
	open := relstore.Query{Table: schema.TableCheckouts, Conds: []relstore.Cond{
		{Col: "object_kind", Op: relstore.OpEq, Val: schema.KindScript},
		{Col: "object_id", Op: relstore.OpEq, Val: "course-001"},
		{Col: "in_time", Op: relstore.OpIsNull},
	}}
	lookup(open, "checkouts.object_id", "checkouts.object_kind,object_id|in_time")
	lookup(open)

	lookups := indexLookups(t, rel)
	for _, q := range lookups {
		if _, err := rel.Select(q); err != nil {
			t.Fatal(err)
		}
	}
	if built := rel.BuiltIndexes(); len(built) != len(lookups) {
		t.Errorf("a lookup through each of %d indexes built %d: %v", len(lookups), len(built), built)
	}
}

// The byte budgets of the positional row grammar, about 2 % above the
// exact sizes it writes: recoverFixture's snapshot (51,228 bytes, from
// 92,271 when rows named their columns) and the WAL record of one
// RecordTest insert (75 bytes, from 115).
const (
	recoverSnapBudget   = 52250
	recordTestWALBudget = 76
)

// TestRecoverFixtureBytes keeps the on-disk row grammar from growing
// silently. The store's clock is fixed, so both sizes are exact.
func TestRecoverFixtureBytes(t *testing.T) {
	dir := recoverFixture(t)
	snap, _ := fixtureFileBytes(t, dir)
	s, _ := newDurableStore(t, dir)
	before := s.Rel().WALTailBytes()
	if err := s.RecordTest(TestRecord{Name: "test-budget", ScriptName: "course-000", Scope: "local"}); err != nil {
		t.Fatal(err)
	}
	rec := s.Rel().WALTailBytes() - before
	if snap > recoverSnapBudget {
		t.Errorf("recoverFixture's snapshot holds %d bytes, budget %d", snap, recoverSnapBudget)
	}
	if rec > recordTestWALBudget {
		t.Errorf("one RecordTest insert appends %d WAL bytes, budget %d", rec, recordTestWALBudget)
	}
}
