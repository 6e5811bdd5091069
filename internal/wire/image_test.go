package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// sealedFile is a sealed head followed by bytes it describes, which
// ReadSealedAt must not read.
func sealedFile() (file, payload, rest []byte) {
	payload = AppendString(AppendUvarint(nil, 3), "a.gif")
	rest = bytes.Repeat([]byte("0123456789abcdef"), 4<<10)
	return append(AppendSealed(nil, BlobMagic, payload), rest...), payload, rest
}

// countingReaderAt counts the bytes read through it.
type countingReaderAt struct {
	r    io.ReaderAt
	read int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.r.ReadAt(p, off)
	c.read += int64(n)
	return n, err
}

// TestSealedMatchesRecordLayout: a sealed head is a record under the
// file's own magic, so AppendRecord is AppendSealed under RecordMagic
// and ReadRecord reads what AppendSealed wrote.
func TestSealedMatchesRecordLayout(t *testing.T) {
	payload := []byte("one record payload")
	if got, want := AppendSealed(nil, RecordMagic, payload), AppendRecord(nil, payload); !bytes.Equal(got, want) {
		t.Fatalf("AppendSealed under RecordMagic = %x, AppendRecord = %x", got, want)
	}
	got, err := ReadRecord(bufio.NewReader(bytes.NewReader(AppendSealed(nil, RecordMagic, payload))), 0)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("ReadRecord = %q, %v", got, err)
	}
}

// TestSealedRoundTrip: from memory and from a file, ReadSealedAt
// returns the payload and where the bytes after it start, and reads
// nothing past the head.
func TestSealedRoundTrip(t *testing.T) {
	file, payload, rest := sealedFile()
	path := filepath.Join(t.TempDir(), "sealed")
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for name, r := range map[string]io.ReaderAt{"bytes.Reader": bytes.NewReader(file), "file": f} {
		c := &countingReaderAt{r: r}
		got, end, err := ReadSealedAt(c, int64(len(file)), BlobMagic)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, payload) || cap(got) != len(got) || !bytes.Equal(file[end:], rest) {
			t.Fatalf("%s: payload %q (cap %d), end %d; want %q ending at %d", name, got, cap(got), end, payload, len(file)-len(rest))
		}
		if c.read > end+2+8 {
			t.Errorf("%s: read %d bytes to open a %d-byte head", name, c.read, end)
		}
	}
}

// TestSealedRejectsDamage: every strict prefix of a head, a flipped
// payload byte, another format's magic and a format older than the
// magic bytes all fail — as the same error classes OpenImage uses.
func TestSealedRejectsDamage(t *testing.T) {
	file, payload, _ := sealedFile()
	head := len(file) - 4<<14
	read := func(b []byte) error {
		_, _, err := ReadSealedAt(bytes.NewReader(b), int64(len(b)), BlobMagic)
		return err
	}
	for n := 0; n < head; n++ {
		if err := read(file[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("prefix of %d bytes: err = %v, want ErrCorrupt", n, err)
		}
	}
	flipped := bytes.Clone(file)
	flipped[head-4-len(payload)/2] ^= 0x01
	if err := read(flipped); !errors.Is(err, ErrChecksum) {
		t.Errorf("flipped payload byte: err = %v, want ErrChecksum", err)
	}
	if err := read(AppendSealed(nil, SnapMagic, payload)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("another format's magic: err = %v", err)
	}
	if err := read([]byte(`{"seq":1}`)); err == nil || !strings.Contains(err.Error(), "predates the binary format") {
		t.Errorf("JSON document: err = %v", err)
	}
}

// TestSealedBoundsClaims: a head length beyond the bytes the file holds
// fails before anything is allocated for it.
func TestSealedBoundsClaims(t *testing.T) {
	for _, claim := range []uint64{64 << 20, 1 << 62} {
		file := AppendUvarint([]byte{BlobMagic, Version}, claim)
		file = append(file, "short"...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := ReadSealedAt(bytes.NewReader(file), int64(len(file)), BlobMagic)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("a %d-byte head in a %d-byte file: err = %v, want ErrCorrupt", claim, len(file), err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("rejecting a %d-byte claim allocated %d bytes", claim, got)
		}
	}
}
