package netsim

import (
	"sort"
	"time"

	"qntn/internal/routing"
)

// LinkChange records one topology transition between consecutive
// snapshots.
type LinkChange struct {
	At   time.Duration
	A, B string // endpoint IDs, A < B
	// Up is true when the link appeared, false when it dropped.
	Up bool
	// Eta is the transmissivity after the change (0 for a drop).
	Eta float64
}

// LinkTracker diffs successive topology snapshots and accumulates link
// up/down events — the churn view of the dynamic satellite topology
// (QuNetSim's connect/disconnect callbacks, made deterministic).
type LinkTracker struct {
	prev    map[[2]string]float64
	changes []LinkChange
	// Flaps counts transitions per link.
	flaps map[[2]string]int
}

// NewLinkTracker returns an empty tracker.
func NewLinkTracker() *LinkTracker {
	return &LinkTracker{
		prev:  make(map[[2]string]float64),
		flaps: make(map[[2]string]int),
	}
}

// Observe ingests the snapshot taken at virtual time t and records the
// changes relative to the previous observation. The first observation
// records every existing link as an Up event at t.
func (lt *LinkTracker) Observe(t time.Duration, g *routing.Graph) []LinkChange {
	ids := g.Nodes()
	current := make(map[[2]string]float64, g.NumEdges())
	g.EachEdge(func(i, j int, eta float64) {
		a, b := ids[i], ids[j]
		if a > b {
			a, b = b, a
		}
		current[[2]string{a, b}] = eta
	})
	var batch []LinkChange
	for key, eta := range current {
		if _, existed := lt.prev[key]; !existed {
			batch = append(batch, LinkChange{At: t, A: key[0], B: key[1], Up: true, Eta: eta})
		}
	}
	for key := range lt.prev {
		if _, still := current[key]; !still {
			batch = append(batch, LinkChange{At: t, A: key[0], B: key[1], Up: false})
		}
	}
	sort.Slice(batch, func(i, j int) bool {
		if batch[i].A != batch[j].A {
			return batch[i].A < batch[j].A
		}
		if batch[i].B != batch[j].B {
			return batch[i].B < batch[j].B
		}
		return !batch[i].Up && batch[j].Up
	})
	for _, c := range batch {
		lt.flaps[[2]string{c.A, c.B}]++
	}
	lt.changes = append(lt.changes, batch...)
	lt.prev = current
	return batch
}

// Changes returns every recorded change in observation order.
func (lt *LinkTracker) Changes() []LinkChange {
	out := make([]LinkChange, len(lt.changes))
	copy(out, lt.changes)
	return out
}

// FlapCount returns the number of transitions observed for the link a-b.
func (lt *LinkTracker) FlapCount(a, b string) int {
	if a > b {
		a, b = b, a
	}
	return lt.flaps[[2]string{a, b}]
}

// ActiveLinks returns the number of links present in the latest
// observation.
func (lt *LinkTracker) ActiveLinks() int { return len(lt.prev) }
