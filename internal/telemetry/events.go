package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"unicode/utf8"
)

// Event is one per-step telemetry record. The schema is fixed (a struct, not
// a map) so records cost one append on the hot path and encode
// deterministically. Label identifies the run segment that produced the step
// (e.g. "serve/space-ground/108/seed=1"); (Label, Step) is unique within a
// segment, and segments that repeat a label (e.g. degradation levels) are
// recorded sequentially, so a stable sort on (Label, Step) makes the flushed
// stream invariant under worker count.
type Event struct {
	Label          string  `json:"label"`
	Step           int     `json:"step"`
	TSeconds       float64 `json:"t_s"`
	PairsEvaluated int64   `json:"pairs_evaluated"`
	LinksAdmitted  int64   `json:"links_admitted"`
	HorizonRejects int64   `json:"horizon_rejects"`
	RangeRejects   int64   `json:"range_rejects"`
	IndexCulled    int64   `json:"index_culled,omitempty"`
	// TreesBuilt and NodesSettled are a request driver's routing work on
	// this step's snapshot: the per-source shortest-path trees started and
	// the nodes they settled.
	TreesBuilt   int64 `json:"trees_built,omitempty"`
	NodesSettled int64 `json:"nodes_settled,omitempty"`
	NodesDown    int64 `json:"nodes_down,omitempty"`
	Weather      bool  `json:"weather,omitempty"`
	Covered      bool  `json:"covered,omitempty"`
	Served       int64 `json:"served,omitempty"`
	Dropped      int64 `json:"dropped,omitempty"`
	// Arrivals counts requests arriving in the window that starts at this
	// step and ends at the next one (at the end of the run, for the last
	// step); QueueDepth is the number still waiting at that window's end.
	// Every request driver fills both.
	Arrivals     int64   `json:"arrivals,omitempty"`
	QueueDepth   int64   `json:"queue_depth,omitempty"`
	MeanFidelity float64 `json:"mean_fidelity,omitempty"`
}

// Validate rejects events that cannot round-trip safely: non-finite floats
// (the same rule trace.Read applies to CSV traces), negative counts, and
// empty labels.
func (e Event) Validate() error {
	if e.Label == "" {
		return fmt.Errorf("telemetry: event has empty label")
	}
	if !utf8.ValidString(e.Label) {
		// encoding/json would silently rewrite invalid bytes to U+FFFD,
		// breaking write/read round trips.
		return fmt.Errorf("telemetry: event label %q is not valid UTF-8", e.Label)
	}
	if e.Step < 0 {
		return fmt.Errorf("telemetry: event %q: negative step %d", e.Label, e.Step)
	}
	if math.IsNaN(e.TSeconds) || math.IsInf(e.TSeconds, 0) || e.TSeconds < 0 {
		return fmt.Errorf("telemetry: event %q step %d: non-finite or negative t_s %v", e.Label, e.Step, e.TSeconds)
	}
	if math.IsNaN(e.MeanFidelity) || math.IsInf(e.MeanFidelity, 0) {
		return fmt.Errorf("telemetry: event %q step %d: non-finite mean_fidelity %v", e.Label, e.Step, e.MeanFidelity)
	}
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"pairs_evaluated", e.PairsEvaluated},
		{"links_admitted", e.LinksAdmitted},
		{"horizon_rejects", e.HorizonRejects},
		{"range_rejects", e.RangeRejects},
		{"index_culled", e.IndexCulled},
		{"trees_built", e.TreesBuilt},
		{"nodes_settled", e.NodesSettled},
		{"nodes_down", e.NodesDown},
		{"served", e.Served},
		{"dropped", e.Dropped},
		{"arrivals", e.Arrivals},
		{"queue_depth", e.QueueDepth},
	} {
		if c.v < 0 {
			return fmt.Errorf("telemetry: event %q step %d: negative %s %d", e.Label, e.Step, c.name, c.v)
		}
	}
	return nil
}

// EventSink collects events for one run. Record is safe for concurrent use
// and a no-op on a nil sink; the stream is only ordered at flush time.
type EventSink struct {
	mu     sync.Mutex
	events []Event
}

// NewEventSink returns an empty sink.
func NewEventSink() *EventSink {
	return &EventSink{}
}

// Record appends an event. No-op on a nil sink.
func (s *EventSink) Record(e Event) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// Len reports the number of recorded events; 0 for a nil sink.
func (s *EventSink) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.events)
}

// Merge appends src's events. Shards are merged in a fixed index order;
// combined with the stable flush sort this keeps the stream worker-count
// invariant.
func (s *EventSink) Merge(src *EventSink) {
	if s == nil || src == nil {
		return
	}
	src.mu.Lock()
	events := src.events
	src.mu.Unlock()
	s.mu.Lock()
	s.events = append(s.events, events...)
	s.mu.Unlock()
}

// Events returns a stably sorted copy of the recorded events.
func (s *EventSink) Events() []Event {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := make([]Event, len(s.events))
	copy(out, s.events)
	s.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Label != out[j].Label {
			return out[i].Label < out[j].Label
		}
		return out[i].Step < out[j].Step
	})
	return out
}

// WriteEvent validates e and writes its single-line JSON encoding to w —
// the per-record core WriteNDJSON loops over, exported so streaming
// producers (the serve daemon) emit records under the same validation the
// batch writer applies.
func WriteEvent(w io.Writer, e Event) error {
	if err := e.Validate(); err != nil {
		return err
	}
	b, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteNDJSON flushes the sorted event stream as newline-delimited JSON,
// validating every record first.
func (s *EventSink) WriteNDJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i, e := range s.Events() {
		if err := WriteEvent(bw, e); err != nil {
			return fmt.Errorf("row %d: %w", i+1, err)
		}
	}
	return bw.Flush()
}

// ReadNDJSON parses an NDJSON event stream, rejecting unknown fields and
// any record that fails Validate, with row-numbered errors the way
// trace.Read reports malformed CSV rows.
func ReadNDJSON(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	row := 0
	for sc.Scan() {
		row++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		var e Event
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("telemetry: row %d: %w", row, err)
		}
		// Trailing garbage after the JSON object on the same line.
		if dec.More() {
			return nil, fmt.Errorf("telemetry: row %d: trailing data after event", row)
		}
		if err := e.Validate(); err != nil {
			return nil, fmt.Errorf("row %d: %w", row, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: reading events: %w", err)
	}
	return out, nil
}
