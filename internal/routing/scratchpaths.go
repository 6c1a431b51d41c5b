package routing

import (
	"fmt"
	"math"
	"slices"
)

// negLogEta is the per-edge cost Extract ranks disjoint routes by: −log η
// with the default clamp, the same function as NegLogEtaCost(0).
var negLogEta = NegLogEtaCost(0)

// adjEdge is one cost-annotated adjacency entry: the neighbour's dense
// index and the edge's cost, evaluated once when its row is first read.
type adjEdge struct {
	to   int
	cost float64
}

// Adjacency is a per-snapshot cost-annotated view of a Graph for repeated
// shortest-path queries over one topology: every request of a step runs one
// or more Dijkstras on the same snapshot, and reading the Graph's rows
// directly would re-evaluate the edge cost on every relaxed edge of every
// one of them. A row here is copied from the Graph's neighbour row the first
// time a query reaches it — neighbours in the same ascending index order,
// each edge's cost stored beside it — and reused until the next Load. Rows
// no query reaches are never copied.
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
	cost   CostFunc
}

// Load starts a new snapshot of g whose edges cost cost(η): the serving
// kernels load 1/(η+ε) (InverseEtaCost), disjoint-route extraction −log η
// (NegLogEtaCost). cost must be non-negative, and callers on a per-step
// path should build it once rather than per Load. Load only marks every row
// uncopied, so its cost is one pass over n markers whatever the edge count.
//
//qntn:hotpath once per topology snapshot
func (a *Adjacency) Load(g *Graph, cost CostFunc) {
	a.g = g
	a.cost = cost
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
//qntn:hotpath once per node settled by a Dijkstra over the snapshot
func (a *Adjacency) row(u int) []adjEdge {
	if hi := a.hi[u]; hi >= 0 {
		return a.edges[a.lo[u]:hi]
	}
	cost := a.cost
	lo := len(a.edges)
	for _, e := range a.g.rows[u] {
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
//
// A search can pause once a target settles and resume later (start, then
// advance as often as needed): the pops and relaxations of the resumed
// search are exactly those of one uninterrupted run, only split in time.
type DijkstraScratch struct {
	dist []float64
	prev []int
	done []bool
	heap nodeHeap
	// open is the node the last advance settled and stopped at without
	// relaxing its edges (-1 none); the next advance relaxes them first.
	open int
}

// start resets the scratch to a search from dense index src over n nodes,
// with nothing settled yet.
//
//qntn:hotpath once per shortest-path search
func (s *DijkstraScratch) start(n, src int) {
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
	s.open = -1
	s.heap = s.heap[:0]
	s.heap.push(heapItem{node: src, dist: 0})
}

// advance continues the search over the snapshot a until dst is settled
// (dst < 0 runs to completion) and returns how many nodes it settled. Nodes
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
//qntn:hotpath once per shortest-path query that its search has not settled yet
func (s *DijkstraScratch) advance(a *Adjacency, dst int, blocked []bool, skipA, skipB int) int {
	settled := 0
	for u := s.open; ; {
		if u >= 0 {
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
		s.open = -1
		if len(s.heap) == 0 {
			return settled
		}
		u = s.heap.pop().node
		if s.done[u] {
			u = -1
			continue
		}
		s.done[u] = true
		settled++
		if u == dst {
			s.open = u
			return settled
		}
	}
}

// run computes shortest paths from src to dst in one go: start, then
// advance with the same arguments.
//
//qntn:hotpath once per redundant protocol route of every served request
func (s *DijkstraScratch) run(a *Adjacency, src, dst int, blocked []bool, skipA, skipB int) {
	s.start(a.g.NumNodes(), src)
	s.advance(a, dst, blocked, skipA, skipB)
}

// SourceTrees is the serving kernel: one shortest-path tree per source over
// one topology snapshot, memoized until the next Load, so every request of a
// batch from the same source reads the same tree. A tree grows only as far
// as its queries need: a DijkstraScratch search paused once the queried
// destination settles and resumed by a later query for a destination not
// settled yet. Each answer is therefore exactly what routing.Dijkstra from
// the same source would give, ties included, in at most the work of one
// full run per source. The trees' dist/prev slabs are pooled and reused
// across snapshots; after warm-up neither Load nor a query allocates,
// except for the path a caller asks to be appended to a buffer too small.
//
// Before any tree starts, a request is checked against the snapshot's
// connected components, labelled on the first query after a Load: with no
// edge path between its endpoints there is no shortest path either (a
// +Inf-cost edge still joins a component but is never relaxed, so the
// label can only say "maybe"), so a cross-component request is answered
// unreachable without starting or growing a tree. Snapshots nothing
// queries are never labelled.
//
// It does not implement Algorithm 1: BellmanFord remains the paper's
// specification, and RunServe's differential suite pins every served
// path DeepEqual to it (Algorithm 1 breaks exact cost ties by its own rule,
// so that pin, not construction, is what makes them agree). A SourceTrees
// must not be shared between goroutines.
type SourceTrees struct {
	adj Adjacency
	// slot[v] is the index in trees of source v's tree, -1 while v has
	// none; trees[:live] belong to the current snapshot and the rest are
	// pooled for later ones.
	slot  []int32
	trees []DijkstraScratch
	live  int
	// settled counts the nodes the current snapshot's trees have settled.
	settled int
	// comp[v] is v's connected-component label in the current snapshot,
	// valid once labelled is set; queue is the labelling's BFS frontier.
	comp     []int32
	queue    []int32
	labelled bool
}

// Load starts a new snapshot of g under the edge cost cost: every tree of
// the previous snapshot is dropped (its storage pooled) and the adjacency
// view is reloaded (see Adjacency.Load).
//
//qntn:hotpath once per topology snapshot
func (s *SourceTrees) Load(g *Graph, cost CostFunc) {
	s.adj.Load(g, cost)
	n := g.NumNodes()
	if cap(s.slot) < n {
		//qntn:coldpath warm-up sizing
		s.slot = make([]int32, n)
	}
	s.slot = s.slot[:n]
	for i := range s.slot {
		s.slot[i] = -1
	}
	s.live = 0
	s.settled = 0
	s.labelled = false
}

// components returns the connected-component label of every node of the
// current snapshot, labelling them on the first call since Load: one
// breadth-first pass over the graph's rows, whatever their costs.
//
//qntn:hotpath once per request routed over the snapshot
func (s *SourceTrees) components() []int32 {
	if s.labelled {
		return s.comp
	}
	rows := s.adj.g.rows
	n := len(rows)
	if cap(s.comp) < n {
		//qntn:coldpath warm-up sizing
		s.comp = make([]int32, n)
		//qntn:coldpath warm-up sizing
		s.queue = make([]int32, n)
	}
	comp, q := s.comp[:n], s.queue[:n]
	for i := range comp {
		comp[i] = -1
	}
	// Each node enters the queue once, when it is labelled, so n slots
	// suffice for every component's search.
	for root := range comp {
		if comp[root] >= 0 {
			continue
		}
		c := int32(root)
		comp[root] = c
		q[0] = c
		for h, tail := 0, 1; h < tail; h++ {
			for _, e := range rows[q[h]] {
				if comp[e.to] < 0 {
					comp[e.to] = c
					q[tail] = e.to
					tail++
				}
			}
		}
	}
	s.comp = comp
	s.labelled = true
	return comp
}

// Trees reports how many trees the current snapshot has started: one per
// distinct source of a same-component query since the last Load.
func (s *SourceTrees) Trees() int { return s.live }

// Settled reports how many nodes the current snapshot's trees have settled
// in total since the last Load.
func (s *SourceTrees) Settled() int { return s.settled }

// AppendPath appends the shortest path from src to dst (both endpoints
// included) to buf and returns the extended buffer with ok true, or buf
// unchanged with ok false when dst is unreachable from src. A node ID the
// snapshot's graph does not hold is an error. With buf nil the path gets an
// allocation of its own, so the result can be kept.
//
//qntn:hotpath once per request routed over the snapshot
func (s *SourceTrees) AppendPath(buf []string, src, dst string) ([]string, bool, error) {
	g := s.adj.g
	si, ok := g.IndexOf(src)
	if !ok {
		return buf, false, fmt.Errorf("routing: unknown source %q", src)
	}
	di, ok := g.IndexOf(dst)
	if !ok {
		return buf, false, fmt.Errorf("routing: unknown destination %q", dst)
	}
	if comp := s.components(); comp[si] != comp[di] {
		return buf, false, nil
	}
	t := s.tree(si)
	if !t.done[di] {
		// A tree that has settled everything it reaches returns at once.
		s.settled += t.advance(&s.adj, di, nil, -1, -1)
		if !t.done[di] {
			return buf, false, nil
		}
	}
	hops := 0
	for cur := di; cur != si; cur = t.prev[cur] {
		hops++
	}
	start := len(buf)
	//qntn:coldpath one allocation when the path outgrows the caller's buffer
	buf = slices.Grow(buf, hops+1)[:start+hops+1]
	for i, cur := start+hops, di; ; i, cur = i-1, t.prev[cur] {
		buf[i] = g.ids[cur]
		if cur == si {
			break
		}
	}
	return buf, true, nil
}

// tree returns source si's tree of the current snapshot, starting it from
// the pool on first use.
//
//qntn:hotpath once per request routed over the snapshot
func (s *SourceTrees) tree(si int) *DijkstraScratch {
	if k := s.slot[si]; k >= 0 {
		return &s.trees[k]
	}
	if s.live == len(s.trees) {
		//qntn:coldpath pool growth: trees are reused across snapshots
		s.trees = append(s.trees, DijkstraScratch{})
	}
	t := &s.trees[s.live]
	s.slot[si] = int32(s.live)
	s.live++
	t.start(len(s.slot), si)
	return t
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
// removed. EdgeDisjoint is the same greedy extraction with only the
// consumed edges retired, the multipath study's redundancy primitive.
type DisjointScratch struct {
	dij          DijkstraScratch
	adj          Adjacency // Extract's and EdgeDisjoint's own snapshot
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
	s.adj.Load(g, negLogEta)
	return s.ExtractOn(&s.adj, primary, k)
}

// ExtractOn returns the disjoint route set for the given primary path over
// the snapshot a: the primary itself first, then up to k−1 disjoint
// alternatives in greedy order. a must have been loaded since the graph's
// last change, and its edge cost ranks the alternatives: load it under
// NegLogEtaCost(0), as Extract does, for best end-to-end transmissivity.
// The returned slices are valid only until the next Extract or
// ExtractOn call on the same scratch. k ≤ 1 returns just the primary.
//
// The result is exact, bit for bit, against the retired extraction over a
// dense matrix: each Dijkstra relaxes neighbours in the same ascending
// order with the same float costs and the same heap, and stopping once dst
// settles leaves dist[dst] and dst's predecessor chain — all this reads —
// as a full run would.
//
//qntn:hotpath once per protocol request evaluation
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
	s.paths = append(s.paths, primary) //qntn:coldpath amortized growth: paths is reused
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
			s.arena = append(s.arena, g.ids[cur]) //qntn:coldpath amortized growth: arena is reused
			if cur == s.src {
				break
			}
		}
		seg := s.arena[start:len(s.arena):len(s.arena)]
		for i, j := 0, len(seg)-1; i < j; i, j = i+1, j-1 {
			seg[i], seg[j] = seg[j], seg[i]
		}
		s.paths = append(s.paths, seg) //qntn:coldpath amortized growth: paths is reused
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

// EdgeDisjoint returns up to k pairwise edge-disjoint paths from src to
// dst over g, greedily extracted in decreasing end-to-end transmissivity:
// each round runs Dijkstra on −log η, records the best path, and retires
// its edges before the next round. Fewer than k paths are returned when the
// graph runs out of disjoint routes; none when dst is unreachable. The
// returned slices are valid only until the next call on the same scratch.
//
// Attempts on edge-disjoint paths fail independently, so the combined
// success probability is 1 − Π(1 − η_path). The result is exact, bit for
// bit, against clone-and-delete extraction with BestTransmissivityPath: a
// retired edge costs +Inf in both of its rows, and du+Inf < dist[v] never
// holds, so no search relaxes it — deletion without reordering the
// remaining neighbours.
func (s *DisjointScratch) EdgeDisjoint(g *Graph, src, dst string, k int) ([][]string, error) {
	if k <= 0 {
		return nil, fmt.Errorf("routing: need a positive path budget, got %d", k)
	}
	si, oks := g.IndexOf(src)
	di, okd := g.IndexOf(dst)
	if !oks || !okd {
		return nil, fmt.Errorf("routing: unknown endpoint %q or %q", src, dst)
	}
	if si == di {
		return nil, fmt.Errorf("routing: src equals dst (%q)", src)
	}
	a := &s.adj
	a.Load(g, negLogEta)
	s.paths = s.paths[:0]
	s.arena = s.arena[:0]
	for len(s.paths) < k {
		s.dij.run(a, si, di, nil, -1, -1)
		if math.IsInf(s.dij.dist[di], 1) {
			break
		}
		start := len(s.arena)
		for cur := di; ; cur = s.dij.prev[cur] {
			s.arena = append(s.arena, g.ids[cur])
			if cur == si {
				break
			}
			a.retire(cur, s.dij.prev[cur])
		}
		seg := s.arena[start:len(s.arena):len(s.arena)]
		slices.Reverse(seg)
		s.paths = append(s.paths, seg)
	}
	return s.paths, nil
}

// retire makes the edge u–v unusable for the rest of the snapshot by
// setting its cost to +Inf in both endpoints' rows.
func (a *Adjacency) retire(u, v int) {
	inf := math.Inf(1)
	for _, end := range [2][2]int{{u, v}, {v, u}} {
		row := a.row(end[0])
		for i := range row {
			if row[i].to == end[1] {
				row[i].cost = inf
			}
		}
	}
}
