package cluster

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/blob"
)

// TestStatsRPC exercises the unified snapshot over the wire: the
// counters must reflect the RPCs that were just served, and the
// store-level numbers must match the seeded course.
func TestStatsRPC(t *testing.T) {
	_, addr, _ := startNode(t, 3, true)
	rs, err := DialStation(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	// Generate some accounted traffic before the scrape.
	if _, err := rs.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.SQL("SELECT script_name FROM scripts"); err != nil {
		t.Fatal(err)
	}

	stats, err := rs.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pos != 3 {
		t.Errorf("Pos = %d", stats.Pos)
	}
	if stats.Ops["Ping"] != 1 || stats.Ops["SQL"] != 1 || stats.Ops["Stats"] != 1 {
		t.Errorf("Ops = %v", stats.Ops)
	}
	if stats.BytesIn == 0 || stats.BytesOut == 0 {
		t.Errorf("byte counters = %d in / %d out", stats.BytesIn, stats.BytesOut)
	}
	if stats.Tables == 0 || stats.Objects != 1 {
		t.Errorf("tables/objects = %d/%d", stats.Tables, stats.Objects)
	}
	if stats.BlobObjects == 0 || stats.PhysicalBytes == 0 {
		t.Errorf("blob stats = %d objects, %d bytes", stats.BlobObjects, stats.PhysicalBytes)
	}
	if stats.Durable {
		t.Error("in-memory station reports Durable")
	}
	if stats.Indexed {
		t.Error("station without an index reports Indexed")
	}

	// A second scrape sees the first one in the counters — the RPC
	// accounts for itself.
	again, err := rs.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if again.Ops["Stats"] != 2 {
		t.Errorf("second scrape Ops[Stats] = %d", again.Ops["Stats"])
	}
	if again.BytesOut <= stats.BytesOut {
		t.Errorf("BytesOut did not grow: %d -> %d", stats.BytesOut, again.BytesOut)
	}
}

// TestStatsNowMatchesRPC: the in-process accessor and the wire reply
// agree on the store-level numbers (wire counters naturally differ).
func TestStatsNowMatchesRPC(t *testing.T) {
	n, addr, _ := startNode(t, 1, true)
	rs, err := DialStation(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	viaRPC, err := rs.Stats()
	if err != nil {
		t.Fatal(err)
	}
	local := n.StatsNow()
	if local.Objects != viaRPC.Objects || local.Tables != viaRPC.Tables ||
		local.BlobObjects != viaRPC.BlobObjects || local.PhysicalBytes != viaRPC.PhysicalBytes {
		t.Errorf("local %+v disagrees with wire %+v", local, viaRPC)
	}
}

// TestStatsCountsUnverifiedBlobs: after the BLOB store is restored, the
// Stats RPC reports every object unverified. Exporting the course reads
// and verifies its media, and a read of a forged object fails and is
// counted as a verify failure.
func TestStatsCountsUnverifiedBlobs(t *testing.T) {
	n, addr, spec := startNode(t, 1, true)
	rs, err := DialStation(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	blobs := n.Store.Blobs()
	forged, err := blobs.Adopt("forged.gif", blob.KindImage, blob.HashOf([]byte("the claimed image")), []byte("another image"))
	if err != nil {
		t.Fatal(err)
	}
	var image bytes.Buffer
	if err := blobs.Snapshot(&image); err != nil {
		t.Fatal(err)
	}
	if err := blobs.Restore(&image); err != nil {
		t.Fatal(err)
	}
	stats, err := rs.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.BlobObjects < 2 || stats.BlobUnverified != stats.BlobObjects || stats.VerifyFailures != 0 {
		t.Fatalf("after the restore: %d objects, %d unverified, %d failures; want every object unverified", stats.BlobObjects, stats.BlobUnverified, stats.VerifyFailures)
	}
	if _, err := n.Store.ExportBundle(spec.URL); err != nil {
		t.Fatal(err)
	}
	if _, err := blobs.View(forged); !errors.Is(err, blob.ErrHashMismatch) {
		t.Fatalf("View of the forged object: err = %v, want blob.ErrHashMismatch", err)
	}
	stats, err = rs.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.BlobUnverified != 0 || stats.VerifyFailures != 1 {
		t.Fatalf("after the export and the forged read: %d unverified, %d failures; want 0 and 1", stats.BlobUnverified, stats.VerifyFailures)
	}
}
