package relstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestBinaryWALCrashMatrix truncates a binary WAL at EVERY byte offset
// — record boundaries, mid-payload, mid-length, mid-CRC — and demands
// that recovering each prefix replay exactly the committed
// transactions it fully contains, never an error and never a partial
// transaction, and cut the tail back to the last record boundary.
func TestBinaryWALCrashMatrix(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, walFileName(0))
	db := openDurable(t, dir)
	s, _ := courseSchemas()
	if err := db.CreateTable(s); err != nil {
		t.Fatal(err)
	}
	// Record boundaries: the file size after each append (appends flush).
	boundaries := []int64{fileSize(t, walPath)}
	created := time.Date(1999, 4, 21, 9, 30, 0, 12345, time.UTC)
	const rows = 6
	for i := 0; i < rows; i++ {
		row := Row{
			"script_name": fmt.Sprintf("r%d", i),
			"author":      string([]byte{'a', 0x0A, byte(i)}), // embedded newline
			"version":     int64(i),
			"created":     created.Add(time.Duration(i) * time.Second),
			"archived":    i%2 == 0,
		}
		if err := db.Insert("scripts", row); err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, fileSize(t, walPath))
	}
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(raw)) != boundaries[len(boundaries)-1] {
		t.Fatalf("file is %d bytes, last boundary %d", len(raw), boundaries[len(boundaries)-1])
	}

	crashDir := t.TempDir()
	crashTail := filepath.Join(crashDir, walFileName(0))
	for cut := 0; cut <= len(raw); cut++ {
		wantApplied, wantSize := 0, int64(0)
		for _, b := range boundaries {
			if int64(cut) >= b {
				wantApplied, wantSize = wantApplied+1, b
			}
		}
		if err := os.WriteFile(crashTail, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		db2 := NewDB()
		info, err := db2.OpenDurable(crashDir)
		if err != nil {
			t.Fatalf("cut=%d: recovery error: %v", cut, err)
		}
		db2.CloseWAL()
		if info.Applied != wantApplied {
			t.Fatalf("cut=%d: applied = %d, want %d", cut, info.Applied, wantApplied)
		}
		if info.Seq != uint64(wantApplied) {
			t.Fatalf("cut=%d: seq = %d, want %d", cut, info.Seq, wantApplied)
		}
		if size := fileSize(t, crashTail); size != wantSize {
			t.Fatalf("cut=%d: recovered tail is %d bytes, want the %d up to the last whole record", cut, size, wantSize)
		}
		// The committed prefix is exactly present: DDL is record 1,
		// insert k is record k+1.
		for i := 0; i < rows; i++ {
			want := wantApplied >= i+2
			if got := wantApplied >= 1 && db2.Exists("scripts", fmt.Sprintf("r%d", i)); got != want {
				t.Fatalf("cut=%d: row r%d present=%v, want %v", cut, i, got, want)
			}
		}
	}

	// One full-file replay round-trips the native value types exactly.
	db3, _ := reopen(t, db, dir)
	got, err := db3.Get("scripts", "r3")
	if err != nil {
		t.Fatal(err)
	}
	if !got["created"].(time.Time).Equal(created.Add(3*time.Second)) ||
		got["version"] != int64(3) || got["archived"] != false ||
		got["author"].(string) != string([]byte{'a', 0x0A, 3}) {
		t.Fatalf("replayed row = %+v", got)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestBinaryWALNeverJSONEncodesBody pins the tentpole's perf claim: a
// document body appended through the WAL lands on disk as its raw
// bytes, not base64-inflated JSON.
func TestBinaryWALNeverJSONEncodesBody(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, walFileName(0))
	db := newDurableCourseDB(t, dir)
	if err := db.Insert("scripts", Row{"script_name": "s"}); err != nil {
		t.Fatal(err)
	}
	body := bytes.Repeat([]byte{0xFF, 0x00, 0xA5}, 4096) // 12 KiB, not base64-friendly
	if err := db.Insert("impls", Row{"starting_url": "u", "script_name": "s", "payload": body}); err != nil {
		t.Fatal(err)
	}
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, body) {
		t.Fatal("document body not stored as raw bytes")
	}
	// Raw body + framing must stay far below the ~4/3 base64 growth.
	if max := int64(len(body)) + 2048; fileSize(t, walPath) > max {
		t.Fatalf("WAL is %d bytes for a %d-byte body", fileSize(t, walPath), len(body))
	}
}
