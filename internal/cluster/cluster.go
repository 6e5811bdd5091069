// Package cluster implements the distributed station layer of section 4
// of the paper: N workstations join the Web document database in linear
// order and are arranged into a full m-ary tree. Course material
// authored on the instructor station (station 1, the root) is
// pre-broadcast down the tree as document instances, or pulled on
// demand up the parent route; a watermark frequency decides when a
// remote station's repeated retrievals justify copying the physical
// BLOBs; and after a lecture the duplicated instances migrate back to
// references, reclaiming the buffer space.
//
// Transfers run over the netsim discrete-event simulator, so broadcast
// completion times, stall times and disk usage are measured in
// controlled simulated time.
package cluster

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/blob"
	"repro/internal/docdb"
	"repro/internal/htmlmini"
	"repro/internal/mtree"
	"repro/internal/netsim"
	"repro/internal/relstore"
	"repro/internal/schema"
	"repro/internal/search"
	"repro/internal/workload"
)

// referenceBytes approximates the size of a broadcast document
// reference (metadata mirror of an instance).
const referenceBytes = 1024

// Cluster errors.
var (
	ErrBadConfig  = errors.New("cluster: invalid configuration")
	ErrNoStation  = errors.New("cluster: no such station")
	ErrNoInstance = errors.New("cluster: no station on the path holds an instance")
)

// Config sizes a simulated deployment.
type Config struct {
	Stations  int
	M         int // distribution tree degree
	UplinkBps float64
	Latency   time.Duration
	// Watermark is the paper's watermark frequency: a station that has
	// fetched a document more than Watermark times materializes a local
	// instance (copies the BLOBs). Negative means never replicate.
	Watermark int
	Mode      netsim.Mode
}

// Station is one workstation: its own document database and BLOB store
// plus the distribution bookkeeping. Every station carries a content
// index (internal/search) kept current by the store's write hooks, so
// the simulator can model federation-wide full-text queries.
type Station struct {
	Pos     int
	Store   *docdb.Store
	Index   *search.Index
	fetches map[string]int // starting URL -> remote retrievals so far
}

// Cluster is the simulated deployment.
type Cluster struct {
	cfg      Config
	sim      *netsim.Sim
	ids      []int // netsim node ids, index = station position - 1
	stations []*Station
	down     map[int]bool // failed stations (see extensions.go)
}

// New builds a cluster of cfg.Stations stations joined in linear order.
func New(cfg Config) (*Cluster, error) {
	if cfg.Stations < 1 {
		return nil, fmt.Errorf("%w: %d stations", ErrBadConfig, cfg.Stations)
	}
	if cfg.M < 1 {
		return nil, fmt.Errorf("%w: degree %d", ErrBadConfig, cfg.M)
	}
	sim := netsim.New(cfg.Mode)
	c := &Cluster{cfg: cfg, sim: sim}
	c.ids = sim.AddNodes(cfg.Stations, cfg.UplinkBps, cfg.Latency)
	base := time.Date(1999, 4, 21, 8, 0, 0, 0, time.UTC)
	for pos := 1; pos <= cfg.Stations; pos++ {
		store, err := docdb.Open(relstore.NewDB(), blob.NewStore())
		if err != nil {
			return nil, err
		}
		store.Now = func() time.Time { return base.Add(sim.Now()) }
		idx, err := search.Attach(store)
		if err != nil {
			return nil, err
		}
		c.stations = append(c.stations, &Station{
			Pos:     pos,
			Store:   store,
			Index:   idx,
			fetches: make(map[string]int),
		})
	}
	return c, nil
}

// Station returns the station at a linear position (1-based).
func (c *Cluster) Station(pos int) (*Station, error) {
	if pos < 1 || pos > len(c.stations) {
		return nil, fmt.Errorf("%w: %d", ErrNoStation, pos)
	}
	return c.stations[pos-1], nil
}

// Size returns the number of joined stations.
func (c *Cluster) Size() int { return len(c.stations) }

// M returns the distribution tree degree.
func (c *Cluster) M() int { return c.cfg.M }

// WireBytes returns the total bytes moved between stations so far.
func (c *Cluster) WireBytes() int64 { return c.sim.Stats().TotalBytes }

// AuthorCourse builds a course on the instructor station (station 1),
// records the persistent instance, and declares its reusable class —
// the shared workload generator's authoring sequence, so simulated
// and deployed corpora match.
func (c *Cluster) AuthorCourse(spec workload.CourseSpec) (workload.Course, docdb.DocObject, error) {
	return workload.AuthorCourse(c.stations[0].Store, spec)
}

// BroadcastReferences mirrors the new instance to every station as a
// document reference, flowing small metadata messages down the m-ary
// tree: "references to the instance are broadcasted and stored in many
// remote stations."
func (c *Cluster) BroadcastReferences(url string) error {
	closure, err := c.stations[0].Store.ExportReference(url)
	if err != nil {
		return err
	}
	return c.walkDown(referenceBytes, func(kid int, _ time.Duration) error {
		_, err := c.stations[kid-1].Store.ImportReference(closure.Script, closure.Impl, kid, 1)
		return err
	})
}

// walkDown is the one store-and-forward walk of the distribution tree:
// the root sends size bytes to each of its live children (a failed
// station's children graft onto its nearest live ancestor), arrive
// runs when a station has received the whole message, and only then
// does that station forward to its own children.
func (c *Cluster) walkDown(size int64, arrive func(kid int, at time.Duration) error) error {
	var failure error
	var forward func(pos int)
	forward = func(pos int) {
		kids, err := c.liveChildren(pos)
		if err != nil {
			failure = err
			return
		}
		for _, kid := range kids {
			kid := kid
			err := c.sim.Transfer(c.ids[pos-1], c.ids[kid-1], size, func(at time.Duration) {
				if err := arrive(kid, at); err != nil {
					failure = err
					return
				}
				forward(kid)
			})
			if err != nil {
				failure = err
				return
			}
		}
	}
	forward(1)
	c.sim.Run()
	return failure
}

// PreBroadcast pushes the full lecture bundle down the m-ary tree with
// store-and-forward relaying: a station forwards to its children only
// after it has fully received (and imported) the bundle. Failed
// stations are routed around and report a zero completion time. It
// returns the per-station completion offsets (index = position - 1; the
// root is 0) and the bundle size.
func (c *Cluster) PreBroadcast(url string) ([]time.Duration, int64, error) {
	bundle, err := c.stations[0].Store.ExportBundle(url)
	if err != nil {
		return nil, 0, err
	}
	start := c.sim.Now()
	times := make([]time.Duration, c.Size())
	err = c.walkDown(bundle.TotalBytes(), func(kid int, at time.Duration) error {
		if _, err := c.stations[kid-1].Store.ImportBundle(bundle, kid, false); err != nil {
			return err
		}
		times[kid-1] = at - start
		return nil
	})
	return times, bundle.TotalBytes(), err
}

// holderOnPath returns the nearest live station on the requester's
// ancestor route (including itself) holding a physical instance of the
// document, skipping failed holders — mtree.LiveAncestors, the same
// rule the live fabric's Resolve uses.
func (c *Cluster) holderOnPath(pos int, url string) (*Station, error) {
	live, err := mtree.LiveAncestors(pos, c.cfg.M, c.Down)
	if err != nil {
		return nil, err
	}
	for _, p := range append([]int{pos}, live...) {
		st := c.stations[p-1]
		obj, err := st.Store.ObjectByURL(url)
		if err != nil {
			continue
		}
		if obj.Form == schema.FormInstance || obj.Form == schema.FormClass {
			return st, nil
		}
	}
	return nil, fmt.Errorf("%w: %s from station %d", ErrNoInstance, url, pos)
}

// FetchResult reports one on-demand retrieval.
type FetchResult struct {
	Latency    time.Duration
	ServedBy   int  // position of the station that supplied the data
	Local      bool // the document was already resident
	Replicated bool // this fetch crossed the watermark and materialized a copy
	Bytes      int64
}

// FetchOnDemand retrieves a document for a live station that wants to
// review it: served locally when an instance is resident, otherwise
// pulled from the nearest live holding ancestor. Crossing the watermark
// frequency replicates the physical data onto the requesting station.
func (c *Cluster) FetchOnDemand(pos int, url string) (FetchResult, error) {
	st, err := c.liveStation(pos)
	if err != nil {
		return FetchResult{}, err
	}
	if obj, err := st.Store.ObjectByURL(url); err == nil && obj.Form != schema.FormReference {
		return FetchResult{Local: true, ServedBy: pos}, nil
	}
	holder, err := c.holderOnPath(pos, url)
	if err != nil {
		return FetchResult{}, err
	}
	bundle, err := holder.Store.ExportBundle(url)
	if err != nil {
		return FetchResult{}, err
	}
	size := bundle.TotalBytes()
	start := c.sim.Now()
	var finished time.Duration
	if err := c.sim.Transfer(c.ids[holder.Pos-1], c.ids[pos-1], size, func(at time.Duration) {
		finished = at
	}); err != nil {
		return FetchResult{}, err
	}
	c.sim.Run()

	st.fetches[url]++
	res := FetchResult{
		Latency:  finished - start,
		ServedBy: holder.Pos,
		Bytes:    size,
	}
	if c.cfg.Watermark >= 0 && st.fetches[url] > c.cfg.Watermark {
		if _, err := st.Store.ImportBundle(bundle, pos, false); err != nil {
			return FetchResult{}, err
		}
		res.Replicated = true
	}
	return res, nil
}

// EndLecture migrates every non-persistent instance of the document
// back to a reference, freeing the buffer space: "after a lecture is
// presented, duplicated document instances migrate to document
// references." It returns the total bytes reclaimed across stations.
func (c *Cluster) EndLecture(url string) (int64, error) {
	var freed int64
	for _, st := range c.stations {
		obj, err := st.Store.ObjectByURL(url)
		if err != nil || obj.Form != schema.FormInstance || obj.Persistent {
			continue
		}
		before := st.Store.Blobs().Stats().PhysicalBytes
		if err := st.Store.MigrateToReference(obj.ID, 1); err != nil {
			return freed, err
		}
		st.fetches[url] = 0
		freed += before - st.Store.Blobs().Stats().PhysicalBytes
	}
	return freed, nil
}

// DiskUsage returns each station's physical BLOB bytes (index =
// position - 1).
func (c *Cluster) DiskUsage() []int64 {
	out := make([]int64, c.Size())
	for i, st := range c.stations {
		out[i] = st.Store.Blobs().Stats().PhysicalBytes
	}
	return out
}

// PlaybackReport summarizes a simulated lecture playback.
type PlaybackReport struct {
	Pages      int
	Stalls     int           // pages that had to wait for remote media
	StallTime  time.Duration // total waiting time
	FetchBytes int64         // bytes pulled during playback
}

// Playback simulates a student at the station viewing the lecture page
// by page (one page per pageTime). Media already resident plays
// immediately; missing media must be pulled from the instructor station
// before the page can show, stalling the playback — the real-time
// demonstration problem that pre-broadcast solves.
func (c *Cluster) Playback(pos int, url string, pageTime time.Duration) (PlaybackReport, error) {
	st, err := c.Station(pos)
	if err != nil {
		return PlaybackReport{}, err
	}
	root := c.stations[0]
	pages, err := root.Store.HTMLFiles(url)
	if err != nil {
		return PlaybackReport{}, err
	}
	rootMedia, err := root.Store.ImplMedia(url)
	if err != nil {
		return PlaybackReport{}, err
	}
	refByName := make(map[string]blob.Ref, len(rootMedia))
	for _, m := range rootMedia {
		refByName[m.Name] = m.Ref
	}
	var rep PlaybackReport
	for _, page := range pages {
		rep.Pages++
		doc := htmlmini.Parse(page.Content)
		var missingBytes int64
		for _, asset := range doc.Assets {
			ref, ok := refByName[htmlmini.Normalize(asset)]
			if !ok {
				continue
			}
			if !st.Store.Blobs().Has(ref) {
				missingBytes += ref.Size
			}
		}
		if missingBytes == 0 {
			continue
		}
		// Pull the page's media from the instructor station and wait.
		start := c.sim.Now()
		var finished time.Duration
		if err := c.sim.Transfer(c.ids[0], c.ids[pos-1], missingBytes, func(at time.Duration) {
			finished = at
		}); err != nil {
			return rep, err
		}
		c.sim.Run()
		rep.Stalls++
		rep.StallTime += finished - start
		rep.FetchBytes += missingBytes
		_ = pageTime // page viewing advances wall-clock, not sim transfers
	}
	return rep, nil
}
