package wire

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
)

// imageFields is one of each field kind, with a byte field longer than
// the stream buffer so the writer's and the reader's bypass paths run.
var imageFields = struct {
	count  uint64
	name   string
	small  []byte
	large  []byte
	absent []byte
}{3, "a.gif", []byte("small"), bytes.Repeat([]byte("0123456789abcdef"), imageStreamBuf/8), nil}

func streamImage(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	iw := NewImageWriter(&buf, BlobMagic)
	iw.PutUvarint(imageFields.count)
	iw.PutString(imageFields.name)
	iw.PutBytes(imageFields.small)
	iw.PutBytes(imageFields.large)
	iw.PutBytes(imageFields.absent)
	if err := iw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestImageWriterMatchesSealImage: a streamed image is byte for byte
// the image SealImage seals around the same payload.
func TestImageWriterMatchesSealImage(t *testing.T) {
	payload := AppendUvarint(nil, imageFields.count)
	payload = AppendString(payload, imageFields.name)
	payload = AppendBytes(payload, imageFields.small)
	payload = AppendBytes(payload, imageFields.large)
	payload = AppendBytes(payload, imageFields.absent)
	if got, want := streamImage(t), SealImage(BlobMagic, payload); !bytes.Equal(got, want) {
		t.Fatalf("streamed image (%d bytes) differs from SealImage's (%d bytes)", len(got), len(want))
	}
}

// sources returns the ways a reader can arrive: in memory (Len), as a
// file (Stat), and as a stream that can report neither.
func sources(t *testing.T, img []byte) map[string]func() io.Reader {
	t.Helper()
	path := filepath.Join(t.TempDir(), "image")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	return map[string]func() io.Reader{
		"bytes.Reader": func() io.Reader { return bytes.NewReader(img) },
		"file": func() io.Reader {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { f.Close() })
			return f
		},
		"unsized stream": func() io.Reader { return iotest.HalfReader(bytes.NewReader(img)) },
	}
}

func TestImageReaderRoundTrip(t *testing.T) {
	img := streamImage(t)
	for name, open := range sources(t, img) {
		ir, err := NewImageReader(BlobMagic, open())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		count, str := ir.Count(), ir.String()
		small, large, absent := ir.Bytes(), ir.Bytes(), ir.Bytes()
		if err := ir.Finish(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if count != int(imageFields.count) || str != imageFields.name || !bytes.Equal(small, imageFields.small) ||
			!bytes.Equal(large, imageFields.large) || absent != nil {
			t.Fatalf("%s: fields did not round-trip", name)
		}
		if cap(large) != len(large) {
			t.Errorf("%s: byte field cap %d, want exactly its length %d", name, cap(large), len(large))
		}
	}
}

// decodeAll reads imageFields' layout and returns the first error.
func decodeAll(r io.Reader) error {
	ir, err := NewImageReader(BlobMagic, r)
	if err != nil {
		return err
	}
	ir.Count()
	_ = ir.String()
	ir.Bytes()
	ir.Bytes()
	ir.Bytes()
	return ir.Finish()
}

// TestImageReaderRejectsDamage: every strict prefix, a flipped payload
// byte, a byte past the trailer, another format's magic and a format
// older than the magic bytes all fail — as the same error classes
// OpenImage uses.
func TestImageReaderRejectsDamage(t *testing.T) {
	img := streamImage(t)
	for n := 0; n < len(img); n++ {
		if n > 256 && n < len(img)-256 && n%4099 != 0 { // the middle of the large field, sampled
			continue
		}
		if err := decodeAll(bytes.NewReader(img[:n])); !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrChecksum) {
			t.Fatalf("prefix of %d bytes: err = %v", n, err)
		}
	}
	flipped := bytes.Clone(img)
	flipped[len(flipped)/2] ^= 0x01
	if err := decodeAll(bytes.NewReader(flipped)); !errors.Is(err, ErrChecksum) {
		t.Errorf("flipped media byte: err = %v, want ErrChecksum", err)
	}
	if err := decodeAll(bytes.NewReader(append(bytes.Clone(img), 0))); err == nil {
		t.Error("a byte past the trailer was accepted")
	}
	if err := decodeAll(bytes.NewReader(SealImage(SnapMagic, []byte{0}))); !errors.Is(err, ErrCorrupt) {
		t.Errorf("another format's magic: err = %v", err)
	}
	if err := decodeAll(strings.NewReader(`{"seq":1}`)); err == nil || !strings.Contains(err.Error(), "predates the binary format") {
		t.Errorf("JSON document: err = %v", err)
	}
}

// TestImageReaderBoundsClaims: a length or count beyond the bytes the
// stream holds fails before anything is allocated for it.
func TestImageReaderBoundsClaims(t *testing.T) {
	for _, claim := range []uint64{64 << 20, 1 << 62} {
		img := SealImage(BlobMagic, AppendUvarint(nil, claim))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ir, err := NewImageReader(BlobMagic, bytes.NewReader(img))
		if err != nil {
			t.Fatal(err)
		}
		if ir.Bytes() != nil || !errors.Is(ir.Finish(), ErrCorrupt) {
			t.Fatalf("a %d-byte field in a %d-byte image was accepted", claim, len(img))
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("rejecting a %d-byte claim allocated %d bytes", claim, got)
		}
	}
}
