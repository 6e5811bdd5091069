package cluster

import (
	"fmt"
	"time"

	"repro/internal/mtree"
)

// Station failure handling. The paper assumes stations join and stay;
// a deployed system loses workstations mid-semester, so the
// distribution layer routes around marked-down stations: broadcasts and
// gathers graft a failed station's children onto its nearest live
// ancestor, and on-demand pulls skip dead holders on the ancestor path.

// down tracks failed stations; lazily allocated.
func (c *Cluster) downSet() map[int]bool {
	if c.down == nil {
		c.down = make(map[int]bool)
	}
	return c.down
}

// MarkDown simulates a station failure. The root (instructor station)
// cannot be marked down.
func (c *Cluster) MarkDown(pos int) error {
	if pos == 1 {
		return fmt.Errorf("%w: the instructor station cannot fail", ErrBadConfig)
	}
	if _, err := c.Station(pos); err != nil {
		return err
	}
	c.downSet()[pos] = true
	return nil
}

// MarkUp returns a failed station to service. Its document store kept
// whatever it held before the failure.
func (c *Cluster) MarkUp(pos int) error {
	if _, err := c.Station(pos); err != nil {
		return err
	}
	delete(c.downSet(), pos)
	return nil
}

// Down reports whether a station is marked failed.
func (c *Cluster) Down(pos int) bool { return c.down[pos] }

// liveStation returns the station at a position that is about to issue
// a request; a failed station cannot.
func (c *Cluster) liveStation(pos int) (*Station, error) {
	if c.down[pos] {
		return nil, fmt.Errorf("%w: station %d is down", ErrNoStation, pos)
	}
	return c.Station(pos)
}

// liveChildren expands a station's children, replacing failed children
// by their own (recursively expanded) children — the grafting rule
// every tree walk of the simulator routes by; with nothing marked down
// it is mtree.Children. The arithmetic lives in mtree.LiveChildren so
// the live TCP fabric repairs its tree with exactly the rule the
// simulator models.
func (c *Cluster) liveChildren(pos int) ([]int, error) {
	return mtree.LiveChildren(pos, c.cfg.M, c.Size(), c.Down)
}

// PreBroadcastChunked pushes the lecture bundle down the m-ary tree cut
// into chunks of the given size, relaying each chunk as soon as it is
// received instead of waiting for the whole bundle (store-and-forward).
// Pipelining removes the depth penalty: deep stations stream behind
// their ancestors instead of waiting for full copies. Returns the
// per-station completion offsets and the bundle size. Failed stations
// are routed around and report a zero completion time.
func (c *Cluster) PreBroadcastChunked(url string, chunkBytes int64) ([]time.Duration, int64, error) {
	if chunkBytes <= 0 {
		return nil, 0, fmt.Errorf("%w: chunk size %d", ErrBadConfig, chunkBytes)
	}
	root := c.stations[0]
	bundle, err := root.Store.ExportBundle(url)
	if err != nil {
		return nil, 0, err
	}
	size := bundle.TotalBytes()
	chunks := int((size + chunkBytes - 1) / chunkBytes)
	lastChunk := size - int64(chunks-1)*chunkBytes

	start := c.sim.Now()
	times := make([]time.Duration, c.Size())
	received := make([]int, c.Size()+1)
	var failure error

	// relay forwards one received chunk from a station to its live
	// children, and completes the station when the bundle is whole.
	var relay func(pos, chunk int, at time.Duration)
	deliver := func(pos, chunk int, at time.Duration) {
		received[pos]++
		if received[pos] == chunks {
			st := c.stations[pos-1]
			if _, err := st.Store.ImportBundle(bundle, pos, false); err != nil {
				failure = err
				return
			}
			times[pos-1] = at - start
		}
		relay(pos, chunk, at)
	}
	relay = func(pos, chunk int, at time.Duration) {
		kids, err := c.liveChildren(pos)
		if err != nil {
			failure = err
			return
		}
		sz := chunkBytes
		if chunk == chunks-1 {
			sz = lastChunk
		}
		for _, kid := range kids {
			kid := kid
			if err := c.sim.Transfer(c.ids[pos-1], c.ids[kid-1], sz, func(done time.Duration) {
				deliver(kid, chunk, done)
			}); err != nil {
				failure = err
				return
			}
		}
	}
	for chunk := 0; chunk < chunks; chunk++ {
		relay(1, chunk, start)
	}
	c.sim.Run()
	return times, size, failure
}
