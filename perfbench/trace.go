package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the public API: name, start, end, the span that caused it, and the
// step or request ID shared by the spans of one unit of work.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	ID     int64  `json:"id"`
}

// noParent marks a root span.
const noParent = -1

// structural span names carry no layer: their self time is the part of a
// pass that no layer span covers.
var structural = map[string]bool{"pass": true, "step": true, "query": true}

// recorder keeps spans in memory until the traced pass ends. The daemon
// workload records from client and handler goroutines, hence the lock.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its handle for end. A nil recorder
// records nothing, so untraced callers share the traced code.
func (r *recorder) begin(name string, parent int32, id int64) int32 {
	if r == nil {
		return noParent
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: -1, Parent: parent, ID: id})
	return int32(len(r.spans) - 1)
}

// end closes the span opened by begin.
func (r *recorder) end(h int32) {
	if r == nil || h == noParent {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[h].End = now
	r.mu.Unlock()
}

// add records an already-timed span (the daemon's handler phases are known
// only once the handler returns).
func (r *recorder) add(name string, start, end time.Time, parent int32, id int64) int32 {
	if r == nil {
		return noParent
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: start.Sub(r.epoch).Nanoseconds(),
		End: end.Sub(r.epoch).Nanoseconds(), Parent: parent, ID: id})
	return int32(len(r.spans) - 1)
}

// passTimes is one root span's breakdown: its wall time and the summed self
// time of its descendants per span name, in seconds.
type passTimes struct {
	wall float64
	self map[string]float64
}

// unattributed is the share of the pass no layer span covers.
func (p passTimes) unattributed() float64 {
	if p.wall <= 0 {
		return 0
	}
	var s float64
	for name, v := range p.self {
		if structural[name] {
			s += v
		}
	}
	return s / p.wall
}

// passes returns the per-root breakdown of every closed root span. A span's
// self time is its duration minus the part of that interval its children
// cover.
func (r *recorder) passes() []passTimes {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make([][]int32, len(r.spans))
	root := make([]int32, len(r.spans))
	for i, s := range r.spans {
		if s.Parent == noParent {
			root[i] = int32(i)
			continue
		}
		children[s.Parent] = append(children[s.Parent], int32(i))
		root[i] = root[s.Parent]
	}
	out := make(map[int32]*passTimes)
	var order []int32
	for i, s := range r.spans {
		if s.End < 0 || r.spans[root[i]].End < 0 {
			continue
		}
		pt, ok := out[root[i]]
		if !ok {
			rs := r.spans[root[i]]
			pt = &passTimes{wall: float64(rs.End-rs.Start) / 1e9, self: make(map[string]float64)}
			out[root[i]] = pt
			order = append(order, root[i])
		}
		pt.self[s.Name] += float64(selfNanos(r.spans, int32(i), children[i])) / 1e9
	}
	res := make([]passTimes, 0, len(order))
	for _, k := range order {
		res = append(res, *out[k])
	}
	return res
}

// selfNanos is span i's duration minus the union of its children's
// intervals clipped to it.
func selfNanos(spans []span, i int32, kids []int32) int64 {
	s := spans[i]
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		c := spans[k]
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if c.End >= 0 && hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	covered, reach := int64(0), s.Start
	for _, v := range iv {
		lo := max(v[0], reach)
		if v[1] > lo {
			covered += v[1] - lo
			reach = v[1]
		}
	}
	return s.End - s.Start - covered
}

// writeSpans writes every span as one JSON line to path, creating its
// directory.
func (r *recorder) writeSpans(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
