//go:build corpusgen

package transport

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteCorpus regenerates the committed fuzz seed corpora. Run with
//
//	go test -tags corpusgen -run TestWriteCorpus ./internal/transport/
//
// after changing the frame codec or the fuzz target signatures.
func TestWriteCorpus(t *testing.T) {
	writeSeed := func(target, name, content string) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw := func(data []byte) string {
		return fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
	}

	// FuzzReadFrame: raw byte streams.
	readSeeds := map[string][]byte{
		"legacy_gob":   []byte(legacyGobFrame),  // must-reject: no gob reader is left
		"corrupt_gob":  []byte(corruptGobFrame), // likewise
		"empty":        {},
		"short_header": {0x00},
		"zero_length":  {0x00, 0x00, 0x00, 0x00},
		"giant_length": {0xFF, 0xFF, 0xFF, 0xFF},
		"over_max":     {0x7F, 0xFF, 0xFF, 0xFF},
		"lying_length": {0x00, 0x00, 0x00, 0x10, 1, 2},
		"lying_200mib": lyingFrame(),
	}
	for _, seed := range frameSeeds {
		frame := frameBytes(t, seed.env)
		if corrupt, ok := corruptSeeds[seed.name]; ok {
			corrupt(frame)
		}
		readSeeds[seed.name] = frame
	}
	for name, data := range readSeeds {
		writeSeed("FuzzReadFrame", name, raw(data))
	}

	// FuzzFrameRoundTrip: typed argument tuples matching the target
	// signature (id, method, isResp, err, body, traceID, parent, more).
	tuple := func(id uint64, method string, isResp bool, errStr string, body []byte, traceID, parent uint64, more bool) string {
		return fmt.Sprintf("go test fuzz v1\nuint64(%d)\nstring(%q)\nbool(%v)\nstring(%q)\n[]byte(%q)\nuint64(%d)\nuint64(%d)\nbool(%v)\n",
			id, method, isResp, errStr, body, traceID, parent, more)
	}
	writeSeed("FuzzFrameRoundTrip", "ping", tuple(1, "Ping", false, "", nil, 0, 0, false))
	writeSeed("FuzzFrameRoundTrip", "big_id", tuple(1<<63, "Fabric.Resolve", true, "fabric: no station on the parent route holds an instance", []byte("bundle"), 0, 0, false))
	writeSeed("FuzzFrameRoundTrip", "zero_body", tuple(0, "", false, "", bytes.Repeat([]byte{0}, 4096), 0, 0, true))
	writeSeed("FuzzFrameRoundTrip", "wild_bytes", tuple(42, "a method name with spaces \x00 and bytes", true, "err", []byte{0xDE, 0xAD}, 7, 3, false))
	writeSeed("FuzzFrameRoundTrip", "traced_stream", tuple(5, "Fabric.Search", false, "", []byte("q"), 1<<62, 1<<61, true))
}
