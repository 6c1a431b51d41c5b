// Package netsim is the quantum-network model that replaces the paper's
// upgraded QuNetSim: typed nodes (ground hosts, satellites, HAPs) with
// time-dependent positions, dynamic link evaluation against a pluggable
// link model, topology snapshots at any virtual instant (the paper's
// 30-second satellite movement steps are taken by the run loops in
// internal/qntn), link-churn tracking, and request/served bookkeeping.
//
// Where QuNetSim moves satellites with a background thread, netsim
// evaluates positions as pure functions of virtual time, so runs are
// exactly reproducible.
package netsim

import (
	"fmt"
	"time"

	"qntn/internal/routing"
)

// LinkModel decides whether a usable quantum link exists between two nodes
// at a given time, and with what transmissivity. Implementations combine
// channel physics (fiber/FSO) with the gating policy (transmissivity
// threshold, elevation mask, line of sight).
type LinkModel interface {
	// Evaluate returns the link transmissivity and whether the link is
	// usable. The order of a and b is not significant.
	Evaluate(a, b Node, t time.Duration) (eta float64, ok bool)
}

// LinkModelFunc adapts a function to the LinkModel interface.
type LinkModelFunc func(a, b Node, t time.Duration) (float64, bool)

// Evaluate implements LinkModel.
func (f LinkModelFunc) Evaluate(a, b Node, t time.Duration) (float64, bool) {
	return f(a, b, t)
}

// StepEvaluator evaluates the node pairs of one topology instant by dense
// node index (the index into the node slice passed to BeginStep). It lets a
// model hoist per-node work — orbit propagation, geodetic conversion,
// darkness — out of the O(N²) pair loop.
type StepEvaluator interface {
	// EvaluatePair returns the transmissivity and usability of the link
	// between nodes i and j, exactly as LinkModel.Evaluate would for the
	// same pair and instant.
	EvaluatePair(i, j int) (eta float64, ok bool)
	// Close releases the evaluator's per-step resources (e.g. returns it
	// to a pool). The evaluator must not be used after Close.
	Close()
}

// StepModel is an optional LinkModel extension for models that can batch
// per-node work across one topology instant. SnapshotInto uses it when
// available; the per-pair Evaluate remains the reference semantics, and a
// StepModel's evaluator must reproduce them exactly.
type StepModel interface {
	LinkModel
	BeginStep(nodes []Node, t time.Duration) StepEvaluator
}

// PackedPair encodes an (i, j) dense node-index pair with i < j as
// i<<32 | j. Packed pairs sort in exactly the order the dense double loop
// "for i { for j := i+1 }" visits them, so an ascending packed slice
// replays the dense iteration order bit for bit.
type PackedPair uint64

// PackPair packs a dense index pair. Callers must pass i < j.
//
//qntn:hotpath
func PackPair(i, j int) PackedPair { return PackedPair(uint64(i)<<32 | uint64(j)) }

// Unpack returns the pair's dense indices.
//
//qntn:hotpath
func (p PackedPair) Unpack() (i, j int) { return int(p >> 32), int(p & 0xffffffff) }

// PairEnumerator is optionally implemented by step evaluators that can
// enumerate a candidate superset of the step's usable pairs (e.g. from a
// spatial index). The contract:
//
//   - pairs is sorted ascending — i.e. in dense double-loop order — so a
//     caller iterating it admits edges in exactly the order the full O(n²)
//     scan would;
//   - pairs is a conservative superset: every pair EvaluatePair would
//     accept appears in it (extra pairs are fine, EvaluatePair re-checks);
//   - the slice is owned by the evaluator and valid until Close;
//   - ok=false means no index is available this step and the caller must
//     fall back to the dense scan.
type PairEnumerator interface {
	CandidatePairs() (pairs []PackedPair, ok bool)
}

// Network is the node container: an ordered set of hosts plus the link
// model that induces the time-varying topology.
type Network struct {
	nodes []Node
	index map[string]int // node ID -> position in nodes
	model LinkModel
}

// NewNetwork returns an empty network using the given link model.
func NewNetwork(model LinkModel) *Network {
	return &Network{index: make(map[string]int), model: model}
}

// Add inserts a node; duplicate IDs are rejected.
func (n *Network) Add(node Node) error {
	if node == nil {
		return fmt.Errorf("netsim: nil node")
	}
	if _, dup := n.index[node.ID()]; dup {
		return fmt.Errorf("netsim: duplicate node ID %q", node.ID())
	}
	n.index[node.ID()] = len(n.nodes)
	n.nodes = append(n.nodes, node)
	return nil
}

// Node returns the node with the given ID, or nil.
func (n *Network) Node(id string) Node {
	if i, ok := n.index[id]; ok {
		return n.nodes[i]
	}
	return nil
}

// IndexOf returns the insertion-order index of the node with the given ID
// (its index in Nodes and in every snapshot graph) and whether it exists.
func (n *Network) IndexOf(id string) (int, bool) {
	i, ok := n.index[id]
	return i, ok
}

// BeginStep returns a step evaluator over the network's nodes (in insertion
// order) at instant t: the model's batched evaluator when it implements
// StepModel, otherwise a per-pair adapter with identical semantics.
//
//qntn:hotpath
func (n *Network) BeginStep(t time.Duration) StepEvaluator {
	if sm, ok := n.model.(StepModel); ok {
		return sm.BeginStep(n.nodes, t)
	}
	//qntn:coldpath per-pair models have no fast path to protect
	return &pairStepEval{nodes: n.nodes, model: n.model, t: t}
}

// pairStepEval adapts a plain LinkModel to the StepEvaluator interface.
type pairStepEval struct {
	nodes []Node
	model LinkModel
	t     time.Duration
}

// EvaluatePair implements StepEvaluator.
//
//qntn:hotpath
func (pe *pairStepEval) EvaluatePair(i, j int) (float64, bool) {
	return pe.model.Evaluate(pe.nodes[i], pe.nodes[j], pe.t)
}

// Close implements StepEvaluator.
//
//qntn:hotpath
func (pe *pairStepEval) Close() {}

// Nodes returns the nodes in insertion order.
func (n *Network) Nodes() []Node {
	out := make([]Node, len(n.nodes))
	copy(out, n.nodes)
	return out
}

// NumNodes returns the node count.
func (n *Network) NumNodes() int { return len(n.nodes) }

// ByKind returns nodes of the given kind in insertion order.
func (n *Network) ByKind(k NodeKind) []Node {
	var out []Node
	for _, node := range n.nodes {
		if node.Kind() == k {
			out = append(out, node)
		}
	}
	return out
}

// SnapshotInto evaluates every node pair at time t and stores the
// transmissivity graph of usable links in g, replacing g's previous
// contents. All nodes appear in the graph even if isolated, so routing can
// distinguish "unknown node" from "unreachable". When g already holds
// exactly the network's node set (the steady state of a caller reusing one
// graph across topology steps), only the edges are reset and the snapshot
// allocates nothing.
//
//qntn:hotpath
func (n *Network) SnapshotInto(g *routing.Graph, t time.Duration) error {
	return n.SnapshotIntoStats(g, t, nil)
}

// SnapshotIntoStats is SnapshotInto plus per-step accounting: when st is
// non-nil it is overwritten with the step's evaluation stats.
//
//qntn:hotpath
func (n *Network) SnapshotIntoStats(g *routing.Graph, t time.Duration, st *SnapshotStats) error {
	//qntn:coldpath graph rebuild happens only when the node set changed
	if !n.graphMatches(g) {
		g.Reset()
		for _, node := range n.nodes {
			g.AddNode(node.ID())
		}
	}
	g.ResetEdges()
	ev := n.BeginStep(t)
	admitted := 0
	cands, indexed := candidatePairs(ev)
	if indexed {
		// Candidates are sorted ascending (= dense double-loop order), so
		// edges are admitted in exactly the order the full scan would use.
		for _, c := range cands {
			i, j := c.Unpack()
			if eta, ok := ev.EvaluatePair(i, j); ok {
				if err := g.AddEdgeByIndex(i, j, eta); err != nil {
					ev.Close()
					return fmt.Errorf("netsim: snapshot at %v: %w", t, err)
				}
				admitted++
			}
		}
	} else {
		for i := 0; i < len(n.nodes); i++ {
			for j := i + 1; j < len(n.nodes); j++ {
				if eta, ok := ev.EvaluatePair(i, j); ok {
					if err := g.AddEdgeByIndex(i, j, eta); err != nil {
						ev.Close()
						return fmt.Errorf("netsim: snapshot at %v: %w", t, err)
					}
					admitted++
				}
			}
		}
	}
	if st != nil {
		*st = SnapshotStats{Pairs: len(n.nodes) * (len(n.nodes) - 1) / 2, Admitted: admitted}
		DrainStepStats(ev, st)
	}
	ev.Close()
	return nil
}

// candidatePairs asks ev for an indexed candidate list when it implements
// PairEnumerator; ok=false means the caller must run the dense pair loop.
//
//qntn:hotpath
func candidatePairs(ev StepEvaluator) ([]PackedPair, bool) {
	if pe, ok := ev.(PairEnumerator); ok {
		return pe.CandidatePairs()
	}
	return nil, false
}

// graphMatches reports whether g's node list is exactly the network's node
// IDs in insertion order, so dense indices agree and edges can be added by
// index.
//
//qntn:hotpath
func (n *Network) graphMatches(g *routing.Graph) bool {
	if g.NumNodes() != len(n.nodes) {
		return false
	}
	for i, node := range n.nodes {
		if idx, ok := g.IndexOf(node.ID()); !ok || idx != i {
			return false
		}
	}
	return true
}

// Request is an entanglement distribution request between two hosts.
type Request struct {
	ID  int
	Src string
	Dst string
}

// Outcome records the result of attempting one request at one topology
// step.
type Outcome struct {
	Request  Request
	At       time.Duration
	Served   bool
	Fidelity float64
	Path     []string
	// EndToEndEta is the product of link transmissivities along Path.
	EndToEndEta float64
	// PathLengthM is the summed geometric length of the path's hops at
	// the serving instant (0 when not computed by the experiment).
	PathLengthM float64
	// Latency is the heralding latency charged to the request (0 when
	// the experiment does not model time).
	Latency time.Duration
}

// Metrics accumulates outcomes across a run.
type Metrics struct {
	Outcomes []Outcome
}

// Record appends an outcome.
func (m *Metrics) Record(o Outcome) { m.Outcomes = append(m.Outcomes, o) }

// ServedFraction returns the fraction of recorded requests that were
// served, or 0 when nothing was recorded.
func (m *Metrics) ServedFraction() float64 {
	if len(m.Outcomes) == 0 {
		return 0
	}
	served := 0
	for _, o := range m.Outcomes {
		if o.Served {
			served++
		}
	}
	return float64(served) / float64(len(m.Outcomes))
}

// MeanServedFidelity returns the average fidelity over served requests (the
// paper's "average entanglement fidelity for the resolved requests"), or 0
// if none were served.
func (m *Metrics) MeanServedFidelity() float64 {
	var sum float64
	n := 0
	for _, o := range m.Outcomes {
		if o.Served {
			sum += o.Fidelity
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
