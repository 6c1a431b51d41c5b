package telemetry

// Collector bundles the two run-scoped sinks — the metric registry and the
// event stream — into the unit that gets wired through a simulation. A nil
// *Collector (the default) disables instrumentation entirely; a Collector
// with a nil Events field collects metrics but no per-step events.
type Collector struct {
	Registry *Registry
	Events   *EventSink
}

// NewCollector returns a collector with a fresh registry and event sink.
func NewCollector() *Collector {
	return &Collector{Registry: NewRegistry(), Events: NewEventSink()}
}

// Sink returns the event sink, nil on a nil collector.
func (c *Collector) Sink() *EventSink {
	if c == nil {
		return nil
	}
	return c.Events
}

// Shards returns n fresh collectors mirroring c's shape (events enabled only
// if c has them). Parallel tasks each write to their own shard — sharded by
// task index, not by worker, so the partition is independent of scheduling —
// and MergeShards folds them back in index order.
func (c *Collector) Shards(n int) []*Collector {
	if c == nil {
		return nil
	}
	shards := make([]*Collector, n)
	for i := range shards {
		s := &Collector{Registry: NewRegistry()}
		if c.Events != nil {
			s.Events = NewEventSink()
		}
		shards[i] = s
	}
	return shards
}

// MergeShards folds the shards into c in index order. Counter totals are
// order-invariant by commutativity; event order is normalized by the sink's
// stable flush sort, so the merged output is worker-count invariant.
func (c *Collector) MergeShards(shards []*Collector) {
	if c == nil {
		return
	}
	for _, s := range shards {
		if s == nil {
			continue
		}
		c.Registry.Merge(s.Registry)
		if c.Events != nil {
			c.Events.Merge(s.Events)
		}
	}
}
