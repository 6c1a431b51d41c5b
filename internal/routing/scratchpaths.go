package routing

import (
	"fmt"
	"math"
)

// negLogEta is the per-edge cost the disjoint-route stage ranks routes by:
// −log η with the default clamp, the same function as NegLogEtaCost(0).
var negLogEta = NegLogEtaCost(0)

// adjEdge is one cost-annotated adjacency entry: the neighbour's dense
// index and the edge's cost, evaluated once when its row is first read.
type adjEdge struct {
	to   int
	cost float64
}

// Adjacency is a per-snapshot cost-annotated view of a Graph for repeated
// shortest-path queries over one topology: every served request of a step
// runs several Dijkstras on the same snapshot, and reading the Graph's rows
// directly would re-evaluate −log η on every relaxed edge of every one of
// them. A row here is copied from the Graph's neighbour row the first time
// a query reaches it — neighbours in the same ascending index order, each
// edge's −log η stored beside it — and reused until the next Load. Rows no
// query reaches are never copied.
//
// The view does not observe later changes to the graph: call Load again
// after every rebuild or edge edit. It holds no state on the Graph and is
// not keyed on the graph pointer, so one pooled graph rebuilt in place at
// every step is handled like a fresh one.
type Adjacency struct {
	g *Graph
	// Row u is edges[lo[u]:hi[u]] once copied; hi[u] < 0 until then.
	lo, hi []int32
	edges  []adjEdge
	// cost overrides the stored per-edge cost; nil means −log η. Only the
	// differential tests set it, to run the kernel under 1/(η+ε) as well.
	cost CostFunc
}

// Load starts a new snapshot of g: it only marks every row uncopied, so its
// cost is one pass over n markers whatever the edge count.
//
//qntn:hotpath once per topology snapshot with the protocol layer on
func (a *Adjacency) Load(g *Graph) {
	a.g = g
	n := g.NumNodes()
	if cap(a.hi) < n {
		//qntn:coldpath warm-up sizing
		a.lo = make([]int32, n)
		//qntn:coldpath warm-up sizing
		a.hi = make([]int32, n)
	}
	a.lo = a.lo[:n]
	a.hi = a.hi[:n]
	for i := range a.hi {
		a.hi[i] = -1
	}
	a.edges = a.edges[:0]
}

// Graph returns the graph of the current snapshot.
func (a *Adjacency) Graph() *Graph { return a.g }

// row returns u's neighbours in ascending index order with their costs,
// copying the Graph's row on first use since the last Load.
//
//qntn:hotpath once per node settled by the disjoint-route Dijkstra
func (a *Adjacency) row(u int) []adjEdge {
	if hi := a.hi[u]; hi >= 0 {
		return a.edges[a.lo[u]:hi]
	}
	g := a.g
	cost := a.cost
	if cost == nil {
		cost = negLogEta
	}
	lo := len(a.edges)
	for _, e := range g.rows[u] {
		//qntn:coldpath amortized growth: the edge buffer is reused across snapshots
		a.edges = append(a.edges, adjEdge{to: int(e.to), cost: cost(e.eta)})
	}
	a.lo[u], a.hi[u] = int32(lo), int32(len(a.edges))
	return a.edges[lo:]
}

// DijkstraScratch is a reusable, allocation-free (after warm-up) replica of
// Dijkstra over an Adjacency. It must stay BIT-IDENTICAL to the map-packed
// baseline: same relaxation order (ascending neighbour index, the order of
// the Graph's rows), the same float costs, the same strict-improvement
// rule, and the same nodeHeap — so that predecessor choices agree even on
// cost ties, where which equal-cost parent wins is decided purely by heap
// pop order. The differential suite in scratchpaths_test.go pins this
// against routing.Dijkstra on randomized tie-heavy graphs, and against the
// retired dense-matrix kernel (scratchpaths_ref_test.go).
type DijkstraScratch struct {
	dist []float64
	prev []int
	done []bool
	heap nodeHeap
}

// run computes shortest paths from dense index src over the snapshot a,
// returning as soon as dst is settled (dst < 0 runs to completion). Nodes
// with blocked[v] true are unusable (nil means none), and when skipA/skipB
// are ≥ 0 the single direct edge between them is ignored in both
// directions — the scratch equivalent of deleting vertices (rsp. one edge)
// from a cloned graph.
//
// Stopping at dst is exact for dist[dst] and the predecessor chain from
// dst: costs are ≥ 0, so every node popped later has a distance ≥
// dist[dst], and no relaxation from it can strictly improve dst or any
// node settled before it, which includes every node on dst's chain.
//
//qntn:hotpath once per redundant protocol route of every served request
func (s *DijkstraScratch) run(a *Adjacency, src, dst int, blocked []bool, skipA, skipB int) {
	n := a.g.NumNodes()
	if cap(s.dist) < n {
		//qntn:coldpath warm-up sizing
		s.dist = make([]float64, n)
		//qntn:coldpath warm-up sizing
		s.prev = make([]int, n)
		//qntn:coldpath warm-up sizing
		s.done = make([]bool, n)
	}
	s.dist = s.dist[:n]
	s.prev = s.prev[:n]
	s.done = s.done[:n]
	inf := math.Inf(1)
	for i := 0; i < n; i++ {
		s.dist[i] = inf
		s.prev[i] = -1
		s.done[i] = false
	}
	s.dist[src] = 0
	s.heap = s.heap[:0]
	s.heap.push(heapItem{node: src, dist: 0})
	for len(s.heap) > 0 {
		u := s.heap.pop().node
		if s.done[u] {
			continue
		}
		s.done[u] = true
		if u == dst {
			return
		}
		du := s.dist[u]
		for _, e := range a.row(u) {
			v := e.to
			if blocked != nil && blocked[v] {
				continue
			}
			if (u == skipA && v == skipB) || (u == skipB && v == skipA) {
				continue
			}
			if c := du + e.cost; c < s.dist[v] {
				s.dist[v] = c
				s.prev[v] = u
				s.heap.push(heapItem{node: v, dist: c})
			}
		}
	}
}

// DisjointScratch extracts, without steady-state allocation, the route set
// the protocol layer purifies over: the primary path followed by up to k−1
// further paths, each internally vertex-disjoint from all earlier ones
// (endpoints shared), chosen greedily by best end-to-end transmissivity
// (Dijkstra on −log η, stopped once the destination settles) over the
// remaining graph. Semantically identical to clone-and-delete extraction
// with Dijkstra + PathTo — the scalar reference in qntn/oracletest pins
// this: blocking interior vertices here replaces deleting their incident
// edges there, and a consumed direct src–dst edge is skipped rather than
// removed.
type DisjointScratch struct {
	dij          DijkstraScratch
	adj          Adjacency // Extract's own snapshot
	blocked      []bool
	arena        []string
	paths        [][]string
	src, dst     int
	skipA, skipB int
}

// Extract returns the disjoint route set for the given primary path over g:
// ExtractOn over a snapshot of g loaded for this call alone, so it is exact
// for any caller but flattens afresh each time. Callers that extract many
// route sets from one topology should Load an Adjacency once and call
// ExtractOn.
func (s *DisjointScratch) Extract(g *Graph, primary []string, k int) ([][]string, error) {
	s.adj.Load(g)
	return s.ExtractOn(&s.adj, primary, k)
}

// ExtractOn returns the disjoint route set for the given primary path over
// the snapshot a: the primary itself first, then up to k−1 disjoint
// alternatives in greedy order. a must have been loaded since the graph's
// last change. The returned slices are valid only until the next Extract or
// ExtractOn call on the same scratch. k ≤ 1 returns just the primary.
//
// The result is exact, bit for bit, against the retired extraction over a
// dense matrix: each Dijkstra relaxes neighbours in the same ascending
// order with the same float costs and the same heap, and stopping once dst
// settles leaves dist[dst] and dst's predecessor chain — all this reads —
// as a full run would.
func (s *DisjointScratch) ExtractOn(a *Adjacency, primary []string, k int) ([][]string, error) {
	if len(primary) < 2 {
		return nil, fmt.Errorf("routing: disjoint extraction needs a path, got %d nodes", len(primary))
	}
	g := a.g
	n := g.NumNodes()
	if cap(s.blocked) < n {
		//qntn:coldpath warm-up sizing
		s.blocked = make([]bool, n)
	}
	s.blocked = s.blocked[:n]
	for i := range s.blocked {
		s.blocked[i] = false
	}
	var ok bool
	if s.src, ok = g.IndexOf(primary[0]); !ok {
		return nil, fmt.Errorf("routing: unknown path node %q", primary[0])
	}
	if s.dst, ok = g.IndexOf(primary[len(primary)-1]); !ok {
		return nil, fmt.Errorf("routing: unknown path node %q", primary[len(primary)-1])
	}
	s.skipA, s.skipB = -1, -1
	s.paths = s.paths[:0]
	s.arena = s.arena[:0]
	s.paths = append(s.paths, primary)
	if err := s.block(g, primary); err != nil {
		return nil, err
	}
	for len(s.paths) < k {
		s.dij.run(a, s.src, s.dst, s.blocked, s.skipA, s.skipB)
		if math.IsInf(s.dij.dist[s.dst], 1) {
			break
		}
		start := len(s.arena)
		for cur := s.dst; ; cur = s.dij.prev[cur] {
			s.arena = append(s.arena, g.ids[cur])
			if cur == s.src {
				break
			}
		}
		seg := s.arena[start:len(s.arena):len(s.arena)]
		for i, j := 0, len(seg)-1; i < j; i, j = i+1, j-1 {
			seg[i], seg[j] = seg[j], seg[i]
		}
		s.paths = append(s.paths, seg)
		if err := s.block(g, seg); err != nil {
			return nil, err
		}
	}
	return s.paths, nil
}

// block marks a consumed path's interior vertices unusable. A single-edge
// path has no interior, so its direct src–dst edge is retired instead —
// otherwise the identical path would be re-extracted forever.
func (s *DisjointScratch) block(g *Graph, path []string) error {
	for i := 1; i+1 < len(path); i++ {
		idx, ok := g.IndexOf(path[i])
		if !ok {
			return fmt.Errorf("routing: unknown path node %q", path[i])
		}
		s.blocked[idx] = true
	}
	if len(path) == 2 {
		s.skipA, s.skipB = s.src, s.dst
	}
	return nil
}
