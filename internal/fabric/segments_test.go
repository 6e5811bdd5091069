package fabric

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/docdb"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/workload"
)

// mediaSizes straddle wire.SpliceMin (1 KiB), the length from which a
// medium is spliced into a body rather than copied: some media are
// copied inline, some go out as store views of their own.
var mediaSizes = []int{0, 1, 1023, 1024, 1025, 3000, 20000}

// randomBundle is a seeded bundle with every field set and media drawn
// from mediaSizes; media and pages are distinct bytes, so a segment
// out of place shows.
func randomBundle(rng *rand.Rand, n int) docdb.Bundle {
	at := time.Date(1999, 4, 21, 8, 0, rng.Intn(60), rng.Intn(1e9), time.UTC)
	url := fmt.Sprintf("http://mmu/course-%03d/v1", n)
	bytesOf := func(size int) []byte {
		p := make([]byte, size)
		rng.Read(p)
		return p
	}
	b := docdb.Bundle{
		Script: docdb.Script{Name: fmt.Sprintf("course-%03d", n), DBName: "mmu", Keywords: []string{"k", fmt.Sprint(n)},
			Author: "shih", Version: int64(rng.Intn(9)), Created: at, Description: "lecture", PctComplete: 12.5},
		Impl: docdb.Implementation{StartingURL: url, ScriptName: fmt.Sprintf("course-%03d", n), Author: "shih", Created: at},
		Annotations: []docdb.Annotation{{Name: "a", ScriptName: "s", StartingURL: url, Author: "ma", Version: 1, Created: at,
			File: bytesOf(rng.Intn(2000))}},
	}
	for i := 0; i < 1+rng.Intn(3); i++ {
		b.HTML = append(b.HTML, docdb.File{ID: fmt.Sprint(url, "#", i), StartingURL: url, Path: fmt.Sprint(i, ".html"),
			Content: bytesOf(rng.Intn(3000))})
	}
	for i := 0; i < 2+rng.Intn(6); i++ {
		data := bytesOf(mediaSizes[rng.Intn(len(mediaSizes))])
		b.Media = append(b.Media, medium(fmt.Sprint("m", i), blob.KindImage, data))
	}
	return b
}

// randomBodies is every media-bearing body built from one seeded set
// of bundles: a push carrying them all, a resolve reply and a bundle
// body per bundle.
func randomBodies(seed int64) []wire.Segmenter {
	rng := rand.New(rand.NewSource(seed))
	var bundles []docdb.Bundle
	var bodies []wire.Segmenter
	for i := 0; i < 6; i++ {
		b := randomBundle(rng, i)
		bundles = append(bundles, b)
		bodies = append(bodies, ResolveReply{Bundle: b, ServedBy: 1 + i}, b)
	}
	push := PushRequest{Bundles: bundles, Topology: sevenStations()}
	return append(bodies, push)
}

// segmentedBodiesDigest is the SHA-256 of every randomBodies(44) body,
// concatenated, as Marshal encoded them before bodies went out as
// segments: the bytes on the wire did not change.
const segmentedBodiesDigest = "9c8daaf8fc621123e6c9a1535688fe3a538406f089b0a133d9876fd89670b6e6"

// TestSegmentedBodiesEqualMarshal: for push, resolve reply and bundle
// bodies, the segments the transport sends join to Marshal's flat
// bytes and to AppendWire's, which the encoder before segments wrote
// too. A medium of wire.SpliceMin bytes or more is a segment of its
// own, the very slice the bundle holds, and a shorter one is copied.
func TestSegmentedBodiesEqualMarshal(t *testing.T) {
	h := sha256.New()
	for i, body := range randomBodies(44) {
		var b wire.Builder
		if err := body.AppendSegments(&b); err != nil {
			t.Fatal(err)
		}
		segs := b.Segments()
		flat, err := transport.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wire.Join(nil, segs), flat) {
			t.Fatalf("body %d (%T): the joined segments differ from Marshal's bytes", i, body)
		}
		if wired, _ := body.(wire.Appender).AppendWire(nil); !bytes.Equal(wired, flat) {
			t.Fatalf("body %d (%T): AppendWire differs from Marshal", i, body)
		}
		h.Write(flat)
		spliced := map[*byte]bool{}
		for _, seg := range segs {
			if len(seg) > 0 {
				spliced[&seg[0]] = true
			}
		}
		for _, m := range mediaOf(body) {
			if got, want := len(m.Data) > 0 && spliced[&m.Data[0]], len(m.Data) >= wire.SpliceMin; got != want {
				t.Fatalf("body %d (%T): a %d-byte medium spliced = %v, want %v", i, body, len(m.Data), got, want)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != segmentedBodiesDigest {
		t.Fatalf("the bodies' digest is %s, want %s: the bytes on the wire changed", got, segmentedBodiesDigest)
	}
}

// mediaOf lists the media a body carries.
func mediaOf(body wire.Segmenter) []docdb.BundleMedia {
	switch x := body.(type) {
	case PushRequest:
		var media []docdb.BundleMedia
		for _, b := range x.Bundles {
			media = append(media, b.Media...)
		}
		return media
	case ResolveReply:
		return x.Bundle.Media
	case docdb.Bundle:
		return x.Media
	}
	return nil
}

// TestPushOverIOVMaxRoundTrips sends a push whose media are more
// segments than one writev takes (IOV_MAX, 1,024 on Linux) through a
// loopback TCP server that echoes it back, so the request and the
// reply both go out in several vectored writes; the echo must carry
// every byte.
func TestPushOverIOVMaxRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(1024))
	b := randomBundle(rng, 1)
	b.Media = b.Media[:0]
	for i := 0; i < 1100; i++ {
		data := make([]byte, wire.SpliceMin+rng.Intn(64))
		rng.Read(data)
		b.Media = append(b.Media, medium(fmt.Sprint("m", i), blob.KindImage, data))
	}
	push := PushRequest{Bundles: []docdb.Bundle{b}, Topology: sevenStations()}
	var w wire.Builder
	if err := push.AppendSegments(&w); err != nil {
		t.Fatal(err)
	}
	if n := len(w.Segments()); n <= 2*1024 {
		t.Fatalf("the push is %d segments, want more than two writevs' worth", n)
	}
	srv := transport.NewServer()
	srv.Handle("echo", func(decode func(any) error) (any, error) {
		var req PushRequest
		if err := decode(&req); err != nil {
			return nil, err
		}
		return req, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pool := transport.NewPool(addr, 1, time.Minute)
	defer pool.Close()
	var got PushRequest
	if err := pool.Call("echo", push, &got); err != nil {
		t.Fatal(err)
	}
	want, _ := transport.Marshal(push)
	if back, _ := transport.Marshal(got); !bytes.Equal(back, want) {
		t.Fatal("the echoed push differs from the one sent")
	}
}

// TestResolveReplyIntactWhileMediaAreReleased serves a course's
// resolve replies from a relay's instance while EndLecture migrates
// that instance away, releasing the media the replies' segments are
// views of. A reply already being written keeps them: view bytes are
// immutable and the garbage collector keeps them alive, so every reply
// carries every medium under its hash. make race-fabric runs it under
// the race detector.
func TestResolveReplyIntactWhileMediaAreReleased(t *testing.T) {
	stations := newFabric(t, 3, 2, -1)
	spec := smallCourse(1)
	spec.MediaScaleDown = 32 // about 1.3 MB of media: spliced, and slow enough to write
	if _, err := workload.BuildCourse(stations[0].Store(), spec); err != nil {
		t.Fatal(err)
	}
	if _, err := stations[0].Store().NewInstance(spec.URL, 1, true); err != nil {
		t.Fatal(err)
	}
	relay := transport.NewPool(stations[1].Addr(), 4, time.Minute)
	defer relay.Close()
	want, err := stations[0].Store().ExportBundle(spec.URL)
	if err != nil {
		t.Fatal(err)
	}
	// Rounds go on until a few replies came from the relay's instance,
	// each of which was written while its migration ran or after it.
	var fromRelay atomic.Int64
	round := 0
	for ; fromRelay.Load() < 3 && round < 40; round++ {
		if _, err := stations[0].Broadcast(spec.URL, false); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for i := 0; i < 6; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var reply ResolveReply
				if err := relay.Call(methodResolve, ResolveRequest{URL: spec.URL, TTL: 3}, &reply); err != nil {
					errs <- err
					return
				}
				if len(reply.Bundle.Media) != len(want.Media) {
					errs <- fmt.Errorf("served %d media, want %d", len(reply.Bundle.Media), len(want.Media))
					return
				}
				for _, m := range reply.Bundle.Media {
					if blob.HashOf(m.Data) != m.Hash {
						errs <- fmt.Errorf("medium %s arrived altered", m.Name)
						return
					}
				}
				if reply.ServedBy == 2 {
					fromRelay.Add(1)
				}
			}()
		}
		if _, err := endLecture(stations[0], spec.URL); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("round %d: %v", round, err)
		}
		if holdsInstance(stations[1], spec.URL) {
			t.Fatalf("round %d: the relay still holds an instance after EndLecture", round)
		}
	}
	if fromRelay.Load() < 3 {
		t.Fatalf("%d rounds served %d replies from the relay's instance, want 3", round, fromRelay.Load())
	}
}
