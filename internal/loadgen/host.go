package loadgen

import (
	"fmt"
	"time"

	"repro/internal/blob"
	"repro/internal/docdb"
	"repro/internal/fabric"
	"repro/internal/relstore"
	"repro/internal/search"
	"repro/internal/workload"
)

// Self-hosting: when webdocload is not pointed at a running fabric it
// stands one up in-process — real TCP sockets, a root plus joiners in
// the m-ary tree, content indexes attached — seeds the course corpus
// on the root and broadcasts the references, exactly the state a
// semester day starts from.

// Host is a self-hosted fabric plus its seeded corpus.
type Host struct {
	stations []*fabric.Station
}

// StartHost builds the profile's fabric on loopback and seeds the
// course corpus.
func StartHost(p *Profile, logf Logf) (*Host, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	h := &Host{}
	store, err := hostStore()
	if err != nil {
		return nil, err
	}
	root, err := fabric.NewRoot(store, "127.0.0.1:0", p.Fabric.M, p.Fabric.Watermark)
	if err != nil {
		return nil, err
	}
	h.stations = append(h.stations, root)
	for i := 1; i < p.Fabric.Stations; i++ {
		st, err := hostStore()
		if err != nil {
			h.Close()
			return nil, err
		}
		joined, err := fabric.Join(st, "127.0.0.1:0", root.Addr())
		if err != nil {
			h.Close()
			return nil, fmt.Errorf("join station %d: %w", i+1, err)
		}
		h.stations = append(h.stations, joined)
	}
	logf("fabric up: %d stations, m=%d, watermark=%d, root %s",
		p.Fabric.Stations, p.Fabric.M, p.Fabric.Watermark, root.Addr())

	// Author the corpus on the root and announce each course with a
	// broadcast of references — the paper's instance-creation step —
	// so every station can resolve, search and check out from the
	// first simulated minute.
	began := time.Now()
	var bytes int64
	for i := 0; i < p.Courses.Count; i++ {
		spec := workload.CourseSpec{
			DBName:         "mmu",
			ScriptName:     CourseScript(i),
			URL:            CourseURL(i),
			Author:         fmt.Sprintf("instructor-%d", i%8),
			Keywords:       []string{"virtual", "university", fmt.Sprintf("topic%d", i%7)},
			Pages:          p.Courses.Pages,
			ExtraLinks:     p.Courses.ExtraLinks,
			ImagesPerPage:  p.Courses.ImagesPerPage,
			MediaScaleDown: 4096,
			Seed:           p.Seed + int64(i),
		}
		course, _, err := workload.AuthorCourse(root.Store(), spec)
		if err != nil {
			h.Close()
			return nil, fmt.Errorf("author course %d: %w", i, err)
		}
		if _, err := root.Broadcast(spec.URL, true); err != nil {
			h.Close()
			return nil, fmt.Errorf("announce course %d: %w", i, err)
		}
		bytes += course.MediaBytes
	}
	logf("seeded %d courses (%d pages each, %s media total) in %s",
		p.Courses.Count, p.Courses.Pages, sizeOf(bytes), time.Since(began).Round(time.Millisecond))
	return h, nil
}

// RootAddr is the root station's bound address.
func (h *Host) RootAddr() string { return h.stations[0].Addr() }

// Close tears the fabric down, root last.
func (h *Host) Close() {
	for i := len(h.stations) - 1; i >= 0; i-- {
		h.stations[i].Close()
	}
}

// hostStore opens one station's store with a content index attached,
// as webdocd does.
func hostStore() (*docdb.Store, error) {
	store, err := docdb.Open(relstore.NewDB(), blob.NewStore())
	if err != nil {
		return nil, err
	}
	if _, err := search.Attach(store); err != nil {
		return nil, err
	}
	return store, nil
}

func sizeOf(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
