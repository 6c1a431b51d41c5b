package qntn

// This file holds a deterministic discrete-event executor: the event heap
// behind the verbatim reference implementations (runArrivalsReference,
// runServeDESReference) that the production loops are pinned DeepEqual
// against. Production code steps topology instants in one plain loop over
// a sampleGrid (stepper.go) and needs no event queue.

import (
	"container/heap"
	"fmt"
	"testing"
	"time"
)

// simEvent is a scheduled callback.
type simEvent struct {
	At   time.Duration
	Name string
	Fn   func(*simulator)
	seq  int
}

type simEventHeap []*simEvent

func (h simEventHeap) Len() int { return len(h) }
func (h simEventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq // FIFO among simultaneous events
}
func (h simEventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *simEventHeap) Push(x any)   { *h = append(*h, x.(*simEvent)) }
func (h *simEventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// simulator is a deterministic discrete-event executor over virtual time.
type simulator struct {
	now     time.Duration
	queue   simEventHeap
	nextSeq int
	stopped bool
	// Processed counts executed events (for diagnostics and tests).
	Processed int
}

// newSimulator returns a simulator at virtual time zero.
func newSimulator() *simulator {
	return &simulator{}
}

// Now returns the current virtual time.
func (s *simulator) Now() time.Duration { return s.now }

// Schedule enqueues fn to run at virtual time at. Scheduling in the past is
// an error.
func (s *simulator) Schedule(at time.Duration, name string, fn func(*simulator)) error {
	if at < s.now {
		return fmt.Errorf("simulator: cannot schedule %q at %v, now is %v", name, at, s.now)
	}
	if fn == nil {
		return fmt.Errorf("simulator: nil event function for %q", name)
	}
	heap.Push(&s.queue, &simEvent{At: at, Name: name, Fn: fn, seq: s.nextSeq})
	s.nextSeq++
	return nil
}

// ScheduleEvery enqueues fn at start, start+interval, ... up to and
// including end.
func (s *simulator) ScheduleEvery(start, interval, end time.Duration, name string, fn func(*simulator)) error {
	if interval <= 0 {
		return fmt.Errorf("simulator: non-positive interval %v for %q", interval, name)
	}
	for at := start; at <= end; at += interval {
		if err := s.Schedule(at, name, fn); err != nil {
			return err
		}
	}
	return nil
}

// Stop halts the run loop after the current event completes.
func (s *simulator) Stop() { s.stopped = true }

// Run executes events in time order until the queue empties, an event past
// `until` is reached (which remains queued), or Stop is called.
func (s *simulator) Run(until time.Duration) error {
	s.stopped = false
	for len(s.queue) > 0 && !s.stopped {
		next := s.queue[0]
		if next.At > until {
			break
		}
		heap.Pop(&s.queue)
		if next.At < s.now {
			return fmt.Errorf("simulator: event %q would move time backwards", next.Name)
		}
		s.now = next.At
		s.Processed++
		next.Fn(s)
	}
	if !s.stopped && s.now < until {
		s.now = until
	}
	return nil
}

// Pending returns the number of queued events.
func (s *simulator) Pending() int { return len(s.queue) }

func TestSimulatorOrdersEvents(t *testing.T) {
	s := newSimulator()
	var order []string
	add := func(name string) func(*simulator) {
		return func(*simulator) { order = append(order, name) }
	}
	if err := s.Schedule(30*time.Second, "b", add("b")); err != nil {
		t.Fatal(err)
	}
	if err := s.Schedule(10*time.Second, "a", add("a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Schedule(30*time.Second, "c", add("c")); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("execution order %v", order)
	}
	if s.Now() != time.Minute {
		t.Fatalf("final time %v", s.Now())
	}
	if s.Processed != 3 {
		t.Fatalf("processed %d", s.Processed)
	}
}

func TestSimulatorSimultaneousEventsFIFO(t *testing.T) {
	s := newSimulator()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		if err := s.Schedule(time.Second, "e", func(*simulator) { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestSimulatorRejectsPastEvents(t *testing.T) {
	s := newSimulator()
	if err := s.Schedule(time.Minute, "x", func(*simulator) {}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := s.Schedule(time.Second, "past", func(*simulator) {}); err == nil {
		t.Fatal("past event accepted")
	}
	if err := s.Schedule(time.Minute, "nil", nil); err == nil {
		t.Fatal("nil event accepted")
	}
}

func TestSimulatorRunUntilLeavesFutureEvents(t *testing.T) {
	s := newSimulator()
	ran := 0
	for _, at := range []time.Duration{time.Second, time.Hour} {
		if err := s.Schedule(at, "e", func(*simulator) { ran++ }); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if ran != 1 || s.Pending() != 1 {
		t.Fatalf("ran=%d pending=%d", ran, s.Pending())
	}
	// Resume.
	if err := s.Run(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if ran != 2 {
		t.Fatalf("ran=%d after resume", ran)
	}
}

func TestSimulatorStop(t *testing.T) {
	s := newSimulator()
	ran := 0
	_ = s.Schedule(time.Second, "a", func(sim *simulator) { ran++; sim.Stop() })
	_ = s.Schedule(2*time.Second, "b", func(*simulator) { ran++ })
	if err := s.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("stop did not halt the loop, ran=%d", ran)
	}
	if s.Pending() != 1 {
		t.Fatalf("pending=%d", s.Pending())
	}
}

func TestSimulatorEventsCanSchedule(t *testing.T) {
	s := newSimulator()
	var ticks []time.Duration
	var tick func(*simulator)
	tick = func(sim *simulator) {
		ticks = append(ticks, sim.Now())
		if sim.Now() < 90*time.Second {
			_ = sim.Schedule(sim.Now()+30*time.Second, "tick", tick)
		}
	}
	_ = s.Schedule(0, "tick", tick)
	if err := s.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{0, 30 * time.Second, 60 * time.Second, 90 * time.Second}
	if len(ticks) != len(want) {
		t.Fatalf("ticks %v", ticks)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks %v", ticks)
		}
	}
}

func TestScheduleEvery(t *testing.T) {
	s := newSimulator()
	n := 0
	if err := s.ScheduleEvery(0, 30*time.Second, 5*time.Minute, "step", func(*simulator) { n++ }); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	if n != 11 {
		t.Fatalf("step count %d, want 11", n)
	}
	if err := s.ScheduleEvery(0, 0, time.Minute, "bad", func(*simulator) {}); err == nil {
		t.Fatal("zero interval accepted")
	}
}
