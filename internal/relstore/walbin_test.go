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
// each prefix replay exactly the committed transactions it fully
// contains, never an error and never a partial transaction.
func TestBinaryWALCrashMatrix(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "db.wal")
	db := NewDB()
	if err := db.OpenWAL(walPath); err != nil {
		t.Fatal(err)
	}
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

	for cut := 0; cut <= len(raw); cut++ {
		wantApplied := 0
		for _, b := range boundaries {
			if int64(cut) >= b {
				wantApplied++
			}
		}
		db2 := NewDB()
		applied, maxSeq, err := db2.ReplayWAL(bytes.NewReader(raw[:cut]))
		if err != nil {
			t.Fatalf("cut=%d: replay error: %v", cut, err)
		}
		if applied != wantApplied {
			t.Fatalf("cut=%d: applied = %d, want %d", cut, applied, wantApplied)
		}
		if maxSeq != uint64(wantApplied) {
			t.Fatalf("cut=%d: maxSeq = %d, want %d", cut, maxSeq, wantApplied)
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
	db3 := NewDB()
	if _, _, err := db3.ReplayWAL(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
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
	walPath := filepath.Join(dir, "db.wal")
	db := NewDB()
	if err := db.OpenWAL(walPath); err != nil {
		t.Fatal(err)
	}
	s, impls := courseSchemas()
	if err := db.CreateTable(s); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(impls); err != nil {
		t.Fatal(err)
	}
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
