// Package routing implements the paper's entanglement routing layer: the
// distance-vector Bellman-Ford of Algorithm 1 with the 1/(η+ε) cost metric,
// kept as the specification; SourceTrees, the per-source shortest-path
// trees every request driver routes from under the same metric; the
// protocol layer's disjoint-route extraction; plus two baselines —
// classic single-source Bellman-Ford and Dijkstra on −log η weights (which
// finds the true maximum-transmissivity path, since transmissivities
// multiply along a path).
package routing

import (
	"fmt"
	"math"
	"sort"
)

// neighbor is one entry of a node's neighbour row: the adjacent node's
// dense index and the edge's transmissivity.
type neighbor struct {
	to  int32
	eta float64
}

// Graph is an undirected graph whose edges carry a transmissivity
// η ∈ [0, 1]. Nodes are identified by string IDs.
//
// The adjacency is one neighbour row per node, kept in ascending neighbour
// index order, so a topology snapshot costs O(nodes + edges) to build,
// reset and scan however many nodes it has: the simulator's backbones run
// from about a hundred nodes to over a thousand, with only a few links per
// node at any instant. Every undirected edge appears in both endpoints'
// rows. Reset and ResetEdges let callers reuse one Graph across snapshots
// without reallocating; see those methods for the invariants.
type Graph struct {
	ids   []string
	index map[string]int
	// rows[i] lists node i's neighbours in ascending index order. Rows are
	// never nil, so a reused graph and a fresh one with the same contents
	// are DeepEqual; truncated rows keep their capacity for the next
	// snapshot.
	rows  [][]neighbor
	edges int
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{index: make(map[string]int)}
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := NewGraph()
	for i, id := range g.ids {
		c.AddNode(id)
		c.rows[i] = append(c.rows[i], g.rows[i]...)
	}
	c.edges = g.edges
	return c
}

// AddNode inserts a node if not already present and returns its dense
// index. Indices are assigned in insertion order, so re-adding the same ID
// sequence after Reset yields the same indices.
func (g *Graph) AddNode(id string) int {
	if i, ok := g.index[id]; ok {
		return i
	}
	i := len(g.ids)
	g.ids = append(g.ids, id)
	g.index[id] = i
	if i < cap(g.rows) {
		// Recycle the row a node at this index held before Reset.
		g.rows = g.rows[:i+1]
		g.rows[i] = g.rows[i][:0]
	} else {
		g.rows = append(g.rows, nil)
	}
	if g.rows[i] == nil {
		g.rows[i] = []neighbor{}
	}
	return i
}

// Reset empties the graph (nodes and edges) while keeping the allocated
// capacity, so a reused Graph reaches a steady state with no per-snapshot
// allocation.
func (g *Graph) Reset() {
	g.ids = g.ids[:0]
	clear(g.index)
	g.rows = g.rows[:0]
	g.edges = 0
}

// ResetEdges removes every edge while keeping the node set: it truncates
// every row and keeps its capacity, so it costs O(nodes) and allocates
// nothing. This is the per-snapshot reuse entry point for topologies whose
// node set is fixed.
//
//qntn:hotpath once per snapshot; rows keep their capacity
func (g *Graph) ResetEdges() {
	for i := range g.rows {
		g.rows[i] = g.rows[i][:0]
	}
	g.edges = 0
}

// searchRow scans row backwards from its end for neighbour to and returns
// its position, or where it would be inserted, and whether it is present.
// A neighbour above the row's last one — every add of a snapshot that
// admits pairs in (i, j) order — is answered at once, and the event
// engine's per-step updates mostly touch a node's highest neighbours
// (ground rows list fiber peers first, satellites last). On rows of a few
// dozen entries this beats a binary search, whose branches do not predict;
// inserts and removals move the row's tail anyway.
//
//qntn:hotpath
func searchRow(row []neighbor, to int32) (int, bool) {
	k := len(row)
	for k > 0 && row[k-1].to > to {
		k--
	}
	if k > 0 && row[k-1].to == to {
		return k - 1, true
	}
	return k, false
}

// insert puts neighbour j with transmissivity eta at position k of row i,
// as returned by searchRow; k = len(row) appends.
//
//qntn:hotpath
func (g *Graph) insert(i, k, j int, eta float64) {
	//qntn:coldpath amortized growth: rows keep their capacity across snapshots
	row := append(g.rows[i], neighbor{})
	copy(row[k+1:], row[k:])
	row[k] = neighbor{to: int32(j), eta: eta}
	g.rows[i] = row
}

// unlink deletes j from row i and reports whether it was present.
//
//qntn:hotpath
func (g *Graph) unlink(i, j int) bool {
	row := g.rows[i]
	k, ok := searchRow(row, int32(j))
	if !ok {
		return false
	}
	copy(row[k:], row[k+1:])
	g.rows[i] = row[:len(row)-1]
	return true
}

// setEdge stores eta on the undirected edge i-j; indices must be valid. An
// edge is in both rows or in neither, so one search per row finds either
// both entries to update or both insertion points.
//
//qntn:hotpath
func (g *Graph) setEdge(i, j int, eta float64) {
	ri, rj := g.rows[i], g.rows[j]
	ki, found := searchRow(ri, int32(j))
	kj, _ := searchRow(rj, int32(i))
	if found {
		ri[ki].eta = eta
		rj[kj].eta = eta
		return
	}
	g.insert(i, ki, j, eta)
	g.insert(j, kj, i, eta)
	g.edges++
}

// removeEdge deletes the undirected edge i-j if present; indices must be
// valid.
//
//qntn:hotpath
func (g *Graph) removeEdge(i, j int) {
	if g.unlink(i, j) {
		g.unlink(j, i)
		g.edges--
	}
}

// AddEdge inserts (or updates) the undirected edge a-b with the given
// transmissivity. Nodes are created as needed.
func (g *Graph) AddEdge(a, b string, eta float64) error {
	if a == b {
		return fmt.Errorf("routing: self-loop on %q", a)
	}
	if eta < 0 || eta > 1 || math.IsNaN(eta) {
		return fmt.Errorf("routing: transmissivity %g outside [0,1] for edge %s-%s", eta, a, b)
	}
	i, j := g.AddNode(a), g.AddNode(b)
	g.setEdge(i, j, eta)
	return nil
}

// AddEdgeByIndex inserts (or updates) the undirected edge between the nodes
// at dense indices i and j (as returned by AddNode), skipping the ID
// lookups of AddEdge — the fast path for batched snapshot construction.
//
//qntn:hotpath once per admitted link of every snapshot
func (g *Graph) AddEdgeByIndex(i, j int, eta float64) error {
	if i < 0 || j < 0 || i >= len(g.ids) || j >= len(g.ids) {
		return fmt.Errorf("routing: edge index (%d,%d) outside [0,%d)", i, j, len(g.ids))
	}
	if i == j {
		return fmt.Errorf("routing: self-loop on %q", g.ids[i])
	}
	if eta < 0 || eta > 1 || math.IsNaN(eta) {
		return fmt.Errorf("routing: transmissivity %g outside [0,1] for edge %s-%s", eta, g.ids[i], g.ids[j])
	}
	g.setEdge(i, j, eta)
	return nil
}

// RemoveEdge deletes the undirected edge a-b if present.
func (g *Graph) RemoveEdge(a, b string) {
	i, oki := g.index[a]
	j, okj := g.index[b]
	if !oki || !okj {
		return
	}
	g.removeEdge(i, j)
}

// RemoveEdgeByIndex deletes the undirected edge between the nodes at dense
// indices i and j if present, skipping the ID lookups of RemoveEdge — the
// fast path for incremental (event-driven) snapshot maintenance. Indices
// outside the node set are a no-op, matching RemoveEdge.
//
//qntn:hotpath once per closed link of every topology event
func (g *Graph) RemoveEdgeByIndex(i, j int) {
	if i < 0 || j < 0 || i >= len(g.ids) || j >= len(g.ids) {
		return
	}
	g.removeEdge(i, j)
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.ids) }

// NumEdges returns the undirected edge count.
func (g *Graph) NumEdges() int { return g.edges }

// Nodes returns the node IDs in insertion order.
func (g *Graph) Nodes() []string {
	out := make([]string, len(g.ids))
	copy(out, g.ids)
	return out
}

// HasNode reports whether id is present.
func (g *Graph) HasNode(id string) bool {
	_, ok := g.index[id]
	return ok
}

// IndexOf returns the dense index of id and whether it is present.
//
//qntn:hotpath
func (g *Graph) IndexOf(id string) (int, bool) {
	i, ok := g.index[id]
	return i, ok
}

// Eta returns the transmissivity of edge a-b and whether the edge exists.
func (g *Graph) Eta(a, b string) (float64, bool) {
	i, oki := g.index[a]
	j, okj := g.index[b]
	if !oki || !okj {
		return 0, false
	}
	if k, ok := searchRow(g.rows[i], int32(j)); ok {
		return g.rows[i][k].eta, true
	}
	return 0, false
}

// EachEdge calls fn for every undirected edge (i < j) in deterministic
// index order, without allocating.
//
//qntn:hotpath
func (g *Graph) EachEdge(fn func(i, j int, eta float64)) {
	for i, row := range g.rows {
		for _, e := range row {
			if int(e.to) > i {
				fn(i, int(e.to), e.eta)
			}
		}
	}
}

// AppendEdgeKeys appends one key per edge to dst and returns the extended
// slice: i<<32 | j for the edge's dense endpoints i < j, in ascending key
// order (EachEdge's order). Two snapshots of one node set then compare as
// sorted key lists, with no ID strings, maps or callbacks involved.
//
//qntn:hotpath once per snapshot whose link transitions are counted
func (g *Graph) AppendEdgeKeys(dst []uint64) []uint64 {
	for i, row := range g.rows {
		for _, e := range row {
			if int(e.to) > i {
				//qntn:coldpath amortized growth: callers reuse dst across snapshots
				dst = append(dst, uint64(i)<<32|uint64(e.to))
			}
		}
	}
	return dst
}

// Neighbors returns the IDs adjacent to id, sorted for determinism, or nil
// when id is unknown or isolated.
func (g *Graph) Neighbors(id string) []string {
	i, ok := g.index[id]
	if !ok || len(g.rows[i]) == 0 {
		return nil
	}
	out := make([]string, 0, len(g.rows[i]))
	for _, e := range g.rows[i] {
		out = append(out, g.ids[e.to])
	}
	sort.Strings(out)
	return out
}

// PathEta returns the end-to-end transmissivity (product of edge
// transmissivities) along the given node path, or an error if a hop is
// missing.
func (g *Graph) PathEta(path []string) (float64, error) {
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
func (g *Graph) EdgeEtas(path []string) ([]float64, error) {
	return g.EdgeEtasInto(nil, path)
}

// EdgeEtasInto appends the per-hop transmissivities along path to dst
// (usually dst[:0] of a reused buffer) and returns it — the allocation-free
// variant of EdgeEtas for per-request hot paths.
//
//qntn:hotpath once per protocol path attempt of every served request
func (g *Graph) EdgeEtasInto(dst []float64, path []string) ([]float64, error) {
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
