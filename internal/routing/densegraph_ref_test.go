package routing

// This file keeps the dense n×n adjacency-matrix Graph that the sparse
// neighbour-row Graph replaced, verbatim up to renames (Graph →
// denseGraph, NewGraph → newDenseGraph, absentEdge → denseAbsent), as the
// differential reference for the sparse graph and every kernel that reads
// it: the Graph methods, Clone, and the two single-source baselines with
// their container/heap priority queue. graph_ref_test.go pins the sparse
// Graph to it operation for operation; the retired kernels in
// bellmanford_ref_test.go and scratchpaths_ref_test.go read its matrix.

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
)

// denseOf copies g, node for node and edge for edge, into a dense
// reference graph.
func denseOf(g *Graph) *denseGraph {
	d := newDenseGraph()
	for _, id := range g.ids {
		d.AddNode(id)
	}
	g.EachEdge(func(i, j int, eta float64) {
		if err := d.AddEdgeByIndex(i, j, eta); err != nil {
			panic(err)
		}
	})
	return d
}

// denseAbsent is the adjacency-matrix sentinel for "no edge". Valid
// transmissivities live in [0,1], so any negative value is unambiguous.
const denseAbsent = -1

// denseGraph is an undirected graph whose edges carry a transmissivity
// η ∈ [0, 1]. Nodes are identified by string IDs.
//
// The adjacency is a dense n×n matrix backed by a single slice, sized for
// the simulator's topology snapshots (O(100) nodes, re-evaluated at
// thousands of instants). Reset and ResetEdges let callers reuse one denseGraph
// across snapshots without reallocating; see those methods for the
// invariants.
type denseGraph struct {
	ids   []string
	index map[string]int
	// mat[i*matN+j] holds the transmissivity of edge i-j, or denseAbsent.
	// The matrix is materialized lazily on the first edge operation and
	// covers the first matN nodes; nodes added after that have no edges
	// until the next edge operation re-strides it.
	mat   []float64
	matN  int
	edges int
}

// NewGraph returns an empty graph.
func newDenseGraph() *denseGraph {
	return &denseGraph{index: make(map[string]int)}
}

// AddNode inserts a node if not already present and returns its dense
// index. Indices are assigned in insertion order, so re-adding the same ID
// sequence after Reset yields the same indices.
func (g *denseGraph) AddNode(id string) int {
	if i, ok := g.index[id]; ok {
		return i
	}
	i := len(g.ids)
	g.ids = append(g.ids, id)
	g.index[id] = i
	return i
}

// ensureMat sizes the adjacency matrix for the current node count.
//
//qntn:hotpath steady state (matN == n) returns immediately
func (g *denseGraph) ensureMat() {
	n := len(g.ids)
	if g.matN == n && g.mat != nil {
		return
	}
	need := n * n
	if g.edges > 0 && g.matN > 0 {
		// Re-striding with live edges: build a fresh matrix and copy the
		// old rows into place (growing in-place would alias old and new
		// strides).
		old, oldN := g.mat, g.matN
		//qntn:coldpath re-stride happens only when nodes were added
		m := make([]float64, need)
		for i := range m {
			m[i] = denseAbsent
		}
		for i := 0; i < oldN; i++ {
			copy(m[i*n:i*n+oldN], old[i*oldN:(i+1)*oldN])
		}
		g.mat = m
	} else {
		if cap(g.mat) >= need {
			g.mat = g.mat[:need]
		} else {
			//qntn:coldpath amortized capacity growth
			g.mat = make([]float64, need)
		}
		for i := range g.mat {
			g.mat[i] = denseAbsent
		}
	}
	g.matN = n
}

// Reset empties the graph (nodes and edges) while keeping the allocated
// capacity, so a reused denseGraph reaches a steady state with no per-snapshot
// allocation.
func (g *denseGraph) Reset() {
	g.ids = g.ids[:0]
	clear(g.index)
	g.mat = g.mat[:0]
	g.matN = 0
	g.edges = 0
}

// ResetEdges removes every edge while keeping the node set, re-striding the
// matrix for nodes added since the last edge operation. This is the
// per-snapshot reuse entry point for topologies whose node set is fixed.
//
//qntn:hotpath once per snapshot; steady state reuses the backing array
func (g *denseGraph) ResetEdges() {
	n := len(g.ids)
	need := n * n
	if cap(g.mat) >= need {
		g.mat = g.mat[:need]
	} else {
		//qntn:coldpath amortized capacity growth
		g.mat = make([]float64, need)
	}
	for i := range g.mat {
		g.mat[i] = denseAbsent
	}
	g.matN = n
	g.edges = 0
}

// setEdge stores eta on the undirected edge i-j; indices must be < matN.
//
//qntn:hotpath
func (g *denseGraph) setEdge(i, j int, eta float64) {
	if g.mat[i*g.matN+j] < 0 {
		g.edges++
	}
	g.mat[i*g.matN+j] = eta
	g.mat[j*g.matN+i] = eta
}

// AddEdge inserts (or updates) the undirected edge a-b with the given
// transmissivity. Nodes are created as needed.
func (g *denseGraph) AddEdge(a, b string, eta float64) error {
	if a == b {
		return fmt.Errorf("routing: self-loop on %q", a)
	}
	if eta < 0 || eta > 1 || math.IsNaN(eta) {
		return fmt.Errorf("routing: transmissivity %g outside [0,1] for edge %s-%s", eta, a, b)
	}
	i, j := g.AddNode(a), g.AddNode(b)
	g.ensureMat()
	g.setEdge(i, j, eta)
	return nil
}

// AddEdgeByIndex inserts (or updates) the undirected edge between the nodes
// at dense indices i and j (as returned by AddNode), skipping the ID
// lookups of AddEdge — the fast path for batched snapshot construction.
//
//qntn:hotpath once per admitted link of every snapshot
func (g *denseGraph) AddEdgeByIndex(i, j int, eta float64) error {
	if i < 0 || j < 0 || i >= len(g.ids) || j >= len(g.ids) {
		return fmt.Errorf("routing: edge index (%d,%d) outside [0,%d)", i, j, len(g.ids))
	}
	if i == j {
		return fmt.Errorf("routing: self-loop on %q", g.ids[i])
	}
	if eta < 0 || eta > 1 || math.IsNaN(eta) {
		return fmt.Errorf("routing: transmissivity %g outside [0,1] for edge %s-%s", eta, g.ids[i], g.ids[j])
	}
	g.ensureMat()
	g.setEdge(i, j, eta)
	return nil
}

// RemoveEdge deletes the undirected edge a-b if present.
func (g *denseGraph) RemoveEdge(a, b string) {
	i, oki := g.index[a]
	j, okj := g.index[b]
	if !oki || !okj || i >= g.matN || j >= g.matN {
		return
	}
	if g.mat[i*g.matN+j] >= 0 {
		g.edges--
	}
	g.mat[i*g.matN+j] = denseAbsent
	g.mat[j*g.matN+i] = denseAbsent
}

// RemoveEdgeByIndex deletes the undirected edge between the nodes at dense
// indices i and j if present, skipping the ID lookups of RemoveEdge — the
// fast path for incremental (event-driven) snapshot maintenance. Indices
// outside the materialized matrix are a no-op, matching RemoveEdge.
//
//qntn:hotpath once per closed link of every topology event
func (g *denseGraph) RemoveEdgeByIndex(i, j int) {
	if i < 0 || j < 0 || i >= g.matN || j >= g.matN {
		return
	}
	if g.mat[i*g.matN+j] >= 0 {
		g.edges--
	}
	g.mat[i*g.matN+j] = denseAbsent
	g.mat[j*g.matN+i] = denseAbsent
}

// NumNodes returns the node count.
func (g *denseGraph) NumNodes() int { return len(g.ids) }

// NumEdges returns the undirected edge count.
func (g *denseGraph) NumEdges() int { return g.edges }

// Nodes returns the node IDs in insertion order.
func (g *denseGraph) Nodes() []string {
	out := make([]string, len(g.ids))
	copy(out, g.ids)
	return out
}

// HasNode reports whether id is present.
func (g *denseGraph) HasNode(id string) bool {
	_, ok := g.index[id]
	return ok
}

// IndexOf returns the dense index of id and whether it is present.
//
//qntn:hotpath
func (g *denseGraph) IndexOf(id string) (int, bool) {
	i, ok := g.index[id]
	return i, ok
}

// etaAt returns the transmissivity between dense indices i and j and
// whether that edge exists.
//
//qntn:hotpath
func (g *denseGraph) etaAt(i, j int) (float64, bool) {
	if i >= g.matN || j >= g.matN {
		return 0, false
	}
	if v := g.mat[i*g.matN+j]; v >= 0 {
		return v, true
	}
	return 0, false
}

// Eta returns the transmissivity of edge a-b and whether the edge exists.
func (g *denseGraph) Eta(a, b string) (float64, bool) {
	i, oki := g.index[a]
	j, okj := g.index[b]
	if !oki || !okj {
		return 0, false
	}
	return g.etaAt(i, j)
}

// EachEdge calls fn for every undirected edge (i < j) in deterministic
// index order, without allocating.
//
//qntn:hotpath
func (g *denseGraph) EachEdge(fn func(i, j int, eta float64)) {
	for i := 0; i < g.matN; i++ {
		row := g.mat[i*g.matN : (i+1)*g.matN]
		for j := i + 1; j < g.matN; j++ {
			if row[j] >= 0 {
				fn(i, j, row[j])
			}
		}
	}
}

// Neighbors returns the IDs adjacent to id, sorted for determinism.
func (g *denseGraph) Neighbors(id string) []string {
	i, ok := g.index[id]
	if !ok || i >= g.matN {
		return nil
	}
	row := g.mat[i*g.matN : (i+1)*g.matN]
	out := make([]string, 0, 8)
	for j, v := range row {
		if v >= 0 {
			out = append(out, g.ids[j])
		}
	}
	sort.Strings(out)
	return out
}

// neighborIndices returns adjacent dense indices in ascending order.
func (g *denseGraph) neighborIndices(i int) []int {
	if i >= g.matN {
		return nil
	}
	row := g.mat[i*g.matN : (i+1)*g.matN]
	var out []int
	for j, v := range row {
		if v >= 0 {
			out = append(out, j)
		}
	}
	return out
}

// PathEta returns the end-to-end transmissivity (product of edge
// transmissivities) along the given node path, or an error if a hop is
// missing.
func (g *denseGraph) PathEta(path []string) (float64, error) {
	if len(path) == 0 {
		return 0, fmt.Errorf("routing: empty path")
	}
	eta := 1.0
	for i := 0; i+1 < len(path); i++ {
		e, ok := g.Eta(path[i], path[i+1])
		if !ok {
			return 0, fmt.Errorf("routing: path uses missing edge %s-%s", path[i], path[i+1])
		}
		eta *= e
	}
	return eta, nil
}

// EdgeEtas returns the per-hop transmissivities along path.
func (g *denseGraph) EdgeEtas(path []string) ([]float64, error) {
	return g.EdgeEtasInto(nil, path)
}

// EdgeEtasInto appends the per-hop transmissivities along path to dst
// (usually dst[:0] of a reused buffer) and returns it — the allocation-free
// variant of EdgeEtas for per-request hot paths.
//
//qntn:hotpath once per protocol path attempt of every served request
func (g *denseGraph) EdgeEtasInto(dst []float64, path []string) ([]float64, error) {
	if len(path) < 2 {
		return dst, nil
	}
	for i := 0; i+1 < len(path); i++ {
		e, ok := g.Eta(path[i], path[i+1])
		if !ok {
			return dst, fmt.Errorf("routing: path uses missing edge %s-%s", path[i], path[i+1])
		}
		//qntn:coldpath amortized growth: dst is the caller's reused buffer
		dst = append(dst, e)
	}
	return dst, nil
}

// Clone returns a deep copy of the graph.
func (g *denseGraph) Clone() *denseGraph {
	c := newDenseGraph()
	for _, id := range g.ids {
		c.AddNode(id)
	}
	if g.edges > 0 {
		c.ensureMat()
		g.EachEdge(func(i, j int, eta float64) {
			c.setEdge(i, j, eta)
		})
	}
	return c
}

// denseClassicBellmanFord is ClassicBellmanFord over the dense matrix. It runs the textbook single-source Bellman-Ford with the
// given cost function. It serves as a correctness oracle for the paper's
// distance-vector Algorithm 1.
func denseClassicBellmanFord(g *denseGraph, src string, cost CostFunc) (*SingleSourceResult, error) {
	si, ok := g.index[src]
	if !ok {
		return nil, fmt.Errorf("routing: unknown source %q", src)
	}
	n := g.NumNodes()
	dist := make([]float64, n)
	prev := make([]int, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[si] = 0
	for round := 0; round < n-1; round++ {
		changed := false
		for u := 0; u < n; u++ {
			if math.IsInf(dist[u], 1) {
				continue
			}
			for _, v := range g.neighborIndices(u) {
				eta, _ := g.etaAt(u, v)
				c := cost(eta)
				if c < 0 {
					return nil, fmt.Errorf("routing: negative edge cost %g", c)
				}
				if dist[u]+c < dist[v] {
					dist[v] = dist[u] + c
					prev[v] = u
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return g.packResult(src, dist, prev), nil
}

// denseDijkstra is Dijkstra over the dense matrix. It runs the standard priority-queue Dijkstra with the given cost
// function.
func denseDijkstra(g *denseGraph, src string, cost CostFunc) (*SingleSourceResult, error) {
	si, ok := g.index[src]
	if !ok {
		return nil, fmt.Errorf("routing: unknown source %q", src)
	}
	n := g.NumNodes()
	dist := make([]float64, n)
	prev := make([]int, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[si] = 0
	pq := &denseNodeHeap{items: []heapItem{{node: si, dist: 0}}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(heapItem)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		for _, v := range g.neighborIndices(u) {
			eta, _ := g.etaAt(u, v)
			c := cost(eta)
			if c < 0 {
				return nil, fmt.Errorf("routing: negative edge cost %g", c)
			}
			if dist[u]+c < dist[v] {
				dist[v] = dist[u] + c
				prev[v] = u
				heap.Push(pq, heapItem{node: v, dist: dist[v]})
			}
		}
	}
	return g.packResult(src, dist, prev), nil
}

func (g *denseGraph) packResult(src string, dist []float64, prev []int) *SingleSourceResult {
	res := &SingleSourceResult{
		Source: src,
		Dist:   make(map[string]float64, len(dist)),
		Prev:   make(map[string]string, len(prev)),
	}
	for i, id := range g.ids {
		res.Dist[id] = dist[i]
		if prev[i] >= 0 {
			res.Prev[id] = g.ids[prev[i]]
		}
	}
	return res
}

type denseNodeHeap struct{ items []heapItem }

func (h *denseNodeHeap) Len() int           { return len(h.items) }
func (h *denseNodeHeap) Less(i, j int) bool { return h.items[i].dist < h.items[j].dist }
func (h *denseNodeHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *denseNodeHeap) Push(x any)         { h.items = append(h.items, x.(heapItem)) }
func (h *denseNodeHeap) Pop() any {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}
