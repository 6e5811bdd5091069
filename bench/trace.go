package main

import (
	"sync"
	"time"
)

// The traced run's recorder. It lives entirely in the benchmark: the
// stations keep their shipping observability, and the recorder wraps
// the benchmark's own calls into each layer. For a fixed 1-in-N sample
// of ops it records a root span around the end-to-end call, then a
// layer replay — the op's own input pushed through each layer's public
// functions on scratch stores — as child spans. A layer's self time is
// its span's duration minus its children's.

// span is one recorded interval. Replay marks a child measured by
// replaying the op's input after the end-to-end call returned, so its
// interval follows its parent's instead of nesting inside it.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 at an op's root
	Op      int     `json:"op"`     // plan index of the op; spans of one op share it
	Name    string  `json:"name"`
	Layer   string  `json:"layer"`
	StartUS float64 `json:"start_us"` // since the recorder started
	EndUS   float64 `json:"end_us"`
	Replay  bool    `json:"replay,omitempty"`
}

type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// Fixed sampling: op i of a phase is traced when i is a multiple of
// the workload's stride, so the same ops are traced on every replay of
// a seed.
func sampled(rec *recorder, i, stride int) bool { return rec != nil && i%stride == 0 }

// add records a finished interval and returns its span ID.
func (r *recorder) add(parent, op int, layer, name string, start, end time.Time, replay bool) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Op: op, Name: name, Layer: layer, Replay: replay,
		StartUS: us(start.Sub(r.t0)), EndUS: us(end.Sub(r.t0)),
	})
	return id
}

// root times the end-to-end call of a sampled op.
func (r *recorder) root(op int, layer, name string, fn func()) int {
	start := time.Now()
	fn()
	return r.add(0, op, layer, name, start, time.Now(), false)
}

// replay times one layer call of a sampled op's replay as a child of
// parent.
func (r *recorder) replay(parent, op int, layer, name string, fn func()) int {
	start := time.Now()
	fn()
	return r.add(parent, op, layer, name, start, time.Now(), true)
}

// hop records an interval the system itself reported (a station's span
// from the Trace RPC), already measured, as a child of parent.
func (r *recorder) hop(parent, op int, name string, start time.Time, d time.Duration) int {
	return r.add(parent, op, hopLayer, name, start, start.Add(d), false)
}

// hopLayer marks spans copied from the system's own hop tree. They
// show where inside the end-to-end call the stations spent the time;
// the replayed children already account for the same interval layer by
// layer, so hop spans stay out of the self-time sums.
const hopLayer = "hop"

// selfTimes folds the spans into mean self time per layer per traced
// op: each span's duration minus its direct children's, clamped at
// zero (a replay can run slower than the live call it mirrors).
func (r *recorder) selfTimes() map[string]metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int]float64{}
	ops := map[int]bool{}
	for _, s := range r.spans {
		if s.Parent != 0 && s.Layer != hopLayer {
			children[s.Parent] += s.EndUS - s.StartUS
		}
		ops[s.Op] = true
	}
	total := map[string]float64{}
	for _, s := range r.spans {
		if s.Layer == hopLayer {
			continue
		}
		self := (s.EndUS - s.StartUS) - children[s.ID]
		if self < 0 {
			self = 0
		}
		total[s.Layer] += self
	}
	out := map[string]metric{}
	for layer, sum := range total {
		out["self_ms."+layer] = metric{Value: sum / 1000 / float64(len(ops)), Unit: "ms/op", N: len(ops)}
	}
	return out
}

// write saves the spans when the workload ends.
func (r *recorder) write(path, workload string, seed int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return writeJSON(path, struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, r.spans})
}
