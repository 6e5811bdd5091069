package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"

	"repro/internal/docdb"
)

// Every workload draws its whole op plan up front from its own RNG
// stream of the seed, so the system under test only ever sees inputs:
// the same seed gives the same corpus bytes and the same ops in the
// same order on the same client. The plan hash printed with each
// result pins that — two runs with equal hashes offered equal work.

// Per-workload stream offsets keep the plans independent: changing one
// workload's draws never shifts another's.
const (
	streamPush    = 101
	streamStorm   = 202
	streamEdit    = 303
	streamRestart = 404
)

func planRNG(seed, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// planHasher accumulates a canonical text form of a plan.
type planHasher struct{ h hash.Hash }

func newPlanHasher(workload string, seed int64) *planHasher {
	p := &planHasher{h: sha256.New()}
	p.addf("workload=%s seed=%d", workload, seed)
	return p
}

func (p *planHasher) addf(format string, args ...any) {
	fmt.Fprintf(p.h, format+"\n", args...)
}

// addBundle folds a bundle's identity — URL, page bytes, media bytes —
// into the hash, so the corpus is part of the plan.
func (p *planHasher) addBundle(b *docdb.Bundle) {
	p.addf("bundle %s bytes=%d pages=%d media=%d", b.Impl.StartingURL, b.TotalBytes(), len(b.HTML), len(b.Media))
	for _, m := range b.Media {
		sum := sha256.Sum256(m.Data)
		p.addf("  media %s %x", m.Name, sum[:8])
	}
}

func (p *planHasher) sum() string {
	return hex.EncodeToString(p.h.Sum(nil))[:16]
}

// zipfCourse draws course ranks with P(rank k) ∝ 1/(k+1)^s. The
// cumulative table is exact for the small course counts used here
// (rand.Zipf needs s > 1 and hides its table).
type zipfCourse struct{ cdf []float64 }

func newZipfCourse(n int, s float64) *zipfCourse {
	z := &zipfCourse{cdf: make([]float64, n)}
	total := 0.0
	for k := 0; k < n; k++ {
		total += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = total
	}
	for k := range z.cdf {
		z.cdf[k] /= total
	}
	return z
}

func (z *zipfCourse) draw(rng *rand.Rand) int {
	u := rng.Float64()
	for k, c := range z.cdf {
		if u < c {
			return k
		}
	}
	return len(z.cdf) - 1
}
