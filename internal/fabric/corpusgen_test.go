//go:build corpusgen

package fabric

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/wire"
)

// TestWriteCorpus regenerates the committed FuzzDecodePush seed
// corpus. Run with
//
//	go test -tags corpusgen -run TestWriteCorpus ./internal/fabric/
//
// after changing the push body layout or the bundle codec. The corpus
// also holds version_1_push, the last full_push of body version 1,
// whose media carry no hash: no encoder writes that version any more,
// so it is kept as committed, a body every decode must refuse.
func TestWriteCorpus(t *testing.T) {
	good := encodePush(t, samplePush())
	ref := samplePush()
	ref.RefOnly = true
	ref.Bundles = ref.Bundles[1:]
	empty := samplePush()
	empty.Bundles = nil
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x01
	const v = wire.BundleVersion
	seeds := map[string][]byte{
		"full_push":      good,
		"reference_push": encodePush(t, ref),
		"no_bundles":     encodePush(t, empty),
		"torn_header":    good[:9],
		"torn_bundle":    good[:len(good)-1],
		"trailing_byte":  append(append([]byte(nil), good...), 0),
		"flipped_byte":   flipped,
		"bad_policy":     {wire.PushMagic, v, 0x02},
		"giant_counts":   {wire.PushMagic, v, 0x00, 0x06, 0x0e, 0x01, 0x18, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"wrong_magic":    {wire.ReplyMagic, v, 0x00},
		"gob_prefix":     {0x1f, 0xff, 0x81, 0x03, 0x01, 0x01},
		"empty":          {},
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodePush")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range seeds {
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
