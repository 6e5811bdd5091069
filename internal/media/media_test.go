package media

import (
	"bytes"
	"testing"

	"repro/internal/blob"
)

func TestDeterministicBySeed(t *testing.T) {
	g1 := NewGenerator(42)
	g2 := NewGenerator(42)
	for i := 0; i < 5; i++ {
		r1 := g1.Generate(blob.KindImage)
		r2 := g2.Generate(blob.KindImage)
		if r1.Name != r2.Name || !bytes.Equal(r1.Data, r2.Data) {
			t.Fatalf("iteration %d differs", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	r1 := NewGenerator(1).Generate(blob.KindAudio)
	r2 := NewGenerator(2).Generate(blob.KindAudio)
	if bytes.Equal(r1.Data, r2.Data) {
		t.Fatal("different seeds produced identical content")
	}
}

func TestSizesWithinProfileBounds(t *testing.T) {
	g := NewGenerator(7)
	bounds := map[blob.Kind][2]int64{
		blob.KindVideo:     {512 << 10, 64 << 20},
		blob.KindAudio:     {64 << 10, 8 << 20},
		blob.KindImage:     {4 << 10, 2 << 20},
		blob.KindAnimation: {32 << 10, 8 << 20},
		blob.KindMIDI:      {1 << 10, 256 << 10},
	}
	for kind, b := range bounds {
		for i := 0; i < 50; i++ {
			s := g.Size(kind)
			if s < b[0] || s > b[1] {
				t.Fatalf("%v size %d out of [%d, %d]", kind, s, b[0], b[1])
			}
		}
	}
}

func TestVideoLargerThanMIDIOnAverage(t *testing.T) {
	g := NewGenerator(11)
	var video, midi int64
	for i := 0; i < 50; i++ {
		video += g.Size(blob.KindVideo)
		midi += g.Size(blob.KindMIDI)
	}
	if video <= midi*10 {
		t.Errorf("video total %d not ≫ midi total %d", video, midi)
	}
}

func TestScaleDown(t *testing.T) {
	full := NewGenerator(3)
	scaled := NewGenerator(3)
	scaled.ScaleDown = 1024
	s1 := full.Size(blob.KindVideo)
	s2 := scaled.Size(blob.KindVideo)
	if s2 >= s1 {
		t.Errorf("scaled size %d not smaller than %d", s2, s1)
	}
	if s2 < 16 {
		t.Errorf("scaled size %d below floor", s2)
	}
}

func TestMagicHeaders(t *testing.T) {
	g := NewGenerator(5)
	g.ScaleDown = 4096
	r := g.Generate(blob.KindVideo)
	if !bytes.HasPrefix(r.Data, []byte("SVID")) {
		t.Errorf("video magic missing: % x", r.Data[:8])
	}
	r = g.Generate(blob.KindMIDI)
	if !bytes.HasPrefix(r.Data, []byte("SMID")) {
		t.Errorf("midi magic missing: % x", r.Data[:8])
	}
}

func TestGenerateMixCountsAndNames(t *testing.T) {
	g := NewGenerator(9)
	g.ScaleDown = 65536
	mix := g.GenerateMix(1, 2, 3, 0, 1)
	if len(mix) != 7 {
		t.Fatalf("len = %d", len(mix))
	}
	counts := map[blob.Kind]int{}
	names := map[string]bool{}
	for _, r := range mix {
		counts[r.Kind]++
		if names[r.Name] {
			t.Fatalf("duplicate name %s", r.Name)
		}
		names[r.Name] = true
	}
	if counts[blob.KindVideo] != 1 || counts[blob.KindAudio] != 2 ||
		counts[blob.KindImage] != 3 || counts[blob.KindMIDI] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

func TestUnknownKindUsesOtherProfile(t *testing.T) {
	g := NewGenerator(13)
	g.ScaleDown = 1024
	r := g.Generate(blob.Kind(77))
	if len(r.Data) == 0 {
		t.Fatal("no data for unknown kind")
	}
	if !bytes.HasPrefix(r.Data, []byte("SOTH")) {
		t.Errorf("unknown kind should use other magic: % x", r.Data[:8])
	}
}

// GenerateMix produces a typical lecture-page media mix: with the given
// counts per kind, in a deterministic order.
func (g *Generator) GenerateMix(videos, audios, images, animations, midis int) []Resource {
	var out []Resource
	for i := 0; i < videos; i++ {
		out = append(out, g.Generate(blob.KindVideo))
	}
	for i := 0; i < audios; i++ {
		out = append(out, g.Generate(blob.KindAudio))
	}
	for i := 0; i < images; i++ {
		out = append(out, g.Generate(blob.KindImage))
	}
	for i := 0; i < animations; i++ {
		out = append(out, g.Generate(blob.KindAnimation))
	}
	for i := 0; i < midis; i++ {
		out = append(out, g.Generate(blob.KindMIDI))
	}
	return out
}
