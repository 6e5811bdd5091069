// Package media generates deterministic synthetic multimedia resources.
// It substitutes for the real course material (video clips, audio
// narration, still images, animations, MIDI files) that the paper's
// virtual courses embed: only the sizes, content hashes and transfer
// costs of the resources matter to the database and distribution
// mechanisms, so pseudo-random content with realistic per-kind size
// distributions preserves the behaviour under study.
package media

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/blob"
)

// sizeProfile holds the log-normal size parameters for one media kind.
// Values approximate late-90s course material: short MPEG-1 clips,
// 8-bit audio narration, GIF/JPEG stills, small vector animations and
// tiny MIDI scores.
type sizeProfile struct {
	mu    float64 // mean of ln(bytes)
	sigma float64
	min   int64
	max   int64
	magic []byte // leading bytes marking the synthetic format
}

var profiles = map[blob.Kind]sizeProfile{
	blob.KindVideo:     {mu: math.Log(8 << 20), sigma: 0.6, min: 512 << 10, max: 64 << 20, magic: []byte("SVID")},
	blob.KindAudio:     {mu: math.Log(1 << 20), sigma: 0.5, min: 64 << 10, max: 8 << 20, magic: []byte("SAUD")},
	blob.KindImage:     {mu: math.Log(120 << 10), sigma: 0.7, min: 4 << 10, max: 2 << 20, magic: []byte("SIMG")},
	blob.KindAnimation: {mu: math.Log(600 << 10), sigma: 0.6, min: 32 << 10, max: 8 << 20, magic: []byte("SANI")},
	blob.KindMIDI:      {mu: math.Log(30 << 10), sigma: 0.4, min: 1 << 10, max: 256 << 10, magic: []byte("SMID")},
	blob.KindOther:     {mu: math.Log(64 << 10), sigma: 0.5, min: 1 << 10, max: 1 << 20, magic: []byte("SOTH")},
}

// Resource is one generated multimedia file.
type Resource struct {
	Name string
	Kind blob.Kind
	Data []byte
}

// Generator produces deterministic synthetic media. The same seed always
// yields the same sequence of resources, which keeps every experiment
// reproducible.
type Generator struct {
	rng *rand.Rand
	n   int
	// ScaleDown divides generated sizes, letting tests run the same
	// distribution shape at a fraction of the bytes. Zero means no
	// scaling.
	ScaleDown int64
}

// NewGenerator returns a generator seeded deterministically.
func NewGenerator(seed int64) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed))}
}

// Size draws a size (in bytes) from the kind's log-normal profile.
func (g *Generator) Size(kind blob.Kind) int64 {
	p, ok := profiles[kind]
	if !ok {
		p = profiles[blob.KindOther]
	}
	s := int64(math.Exp(g.rng.NormFloat64()*p.sigma + p.mu))
	if s < p.min {
		s = p.min
	}
	if s > p.max {
		s = p.max
	}
	if g.ScaleDown > 1 {
		s /= g.ScaleDown
		if s < 16 {
			s = 16
		}
	}
	return s
}

// Generate produces the next resource of the given kind.
func (g *Generator) Generate(kind blob.Kind) Resource {
	g.n++
	name := fmt.Sprintf("%s-%04d.%s", kind, g.n, ext(kind))
	size := g.Size(kind)
	data := make([]byte, size)
	p, ok := profiles[kind]
	if !ok {
		p = profiles[blob.KindOther]
	}
	copy(data, p.magic)
	// Fill with pseudo-random bytes; chunked Read keeps it fast.
	g.rng.Read(data[len(p.magic):])
	return Resource{Name: name, Kind: kind, Data: data}
}

func ext(kind blob.Kind) string {
	switch kind {
	case blob.KindVideo:
		return "mpg"
	case blob.KindAudio:
		return "wav"
	case blob.KindImage:
		return "gif"
	case blob.KindAnimation:
		return "ani"
	case blob.KindMIDI:
		return "mid"
	default:
		return "bin"
	}
}
