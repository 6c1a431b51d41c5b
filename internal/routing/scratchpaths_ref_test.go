package routing

// This file keeps the retired dense-row disjoint-route extraction verbatim
// as the differential oracle for the Adjacency kernel: a Dijkstra that scans
// the full dense matrix row of every popped node, evaluates the cost
// function on every relaxed edge and runs until the heap is empty, plus the
// Extract loop over it. Only the type names differ (DijkstraScratch →
// denseDijkstraRef, DisjointScratch → denseDisjointRef, Graph → the dense
// reference denseGraph of densegraph_ref_test.go), so all can live in one
// package. scratchpaths_test.go pins ExtractOn and Extract
// reflect.DeepEqual to it.

import (
	"fmt"
	"math"
)

// denseDijkstraRef is a reusable, allocation-free (after warm-up) replica of
// Dijkstra over the dense adjacency matrix. It must stay BIT-IDENTICAL to
// the map-packed baseline: same relaxation order (ascending dense-row scan,
// matching neighborIndices), same strict-improvement rule, and a binary
// heap transliterating container/heap's exact sift arithmetic — so that
// predecessor choices agree even on cost ties, where which equal-cost
// parent wins is decided purely by heap pop order. The differential suite
// in scratchpaths_test.go pins this against routing.Dijkstra on randomized
// tie-heavy graphs.
type denseDijkstraRef struct {
	dist []float64
	prev []int
	done []bool
	heap []heapItem
}

// run computes single-source shortest paths from dense index src. Nodes
// with blocked[v] true are unusable (nil means none), and when skipA/skipB
// are ≥ 0 the single direct edge between them is ignored in both
// directions — the scratch equivalent of deleting vertices (rsp. one edge)
// from a cloned graph. cost must be nonnegative, as the baseline requires.
//
//qntn:hotpath once per redundant protocol route of every served request
func (s *denseDijkstraRef) run(g *denseGraph, src int, cost CostFunc, blocked []bool, skipA, skipB int) {
	n := g.NumNodes()
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
	s.push(heapItem{node: src, dist: 0})
	for len(s.heap) > 0 {
		u := s.pop().node
		if s.done[u] {
			continue
		}
		s.done[u] = true
		if u >= g.matN {
			continue
		}
		row := g.mat[u*g.matN : (u+1)*g.matN]
		du := s.dist[u]
		for v, eta := range row {
			if eta < 0 {
				continue
			}
			if blocked != nil && blocked[v] {
				continue
			}
			if (u == skipA && v == skipB) || (u == skipB && v == skipA) {
				continue
			}
			if c := du + cost(eta); c < s.dist[v] {
				s.dist[v] = c
				s.prev[v] = u
				s.push(heapItem{node: v, dist: c})
			}
		}
	}
}

// push appends and sifts up with container/heap's exact arithmetic
// (heap.Push: append, then up(n−1)).
//
//qntn:hotpath heap insertion inside the scratch Dijkstra relaxation loop
func (s *denseDijkstraRef) push(it heapItem) {
	//qntn:coldpath amortized growth: the heap buffer is reused across runs
	s.heap = append(s.heap, it)
	j := len(s.heap) - 1
	for {
		i := (j - 1) / 2
		if i == j || !(s.heap[j].dist < s.heap[i].dist) {
			break
		}
		s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
		j = i
	}
}

// pop removes the minimum with container/heap's exact arithmetic
// (heap.Pop: swap(0, n−1), down(0, n−1), then pop the tail).
func (s *denseDijkstraRef) pop() heapItem {
	n := len(s.heap) - 1
	s.heap[0], s.heap[n] = s.heap[n], s.heap[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && s.heap[j2].dist < s.heap[j1].dist {
			j = j2
		}
		if !(s.heap[j].dist < s.heap[i].dist) {
			break
		}
		s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
		i = j
	}
	it := s.heap[n]
	s.heap = s.heap[:n]
	return it
}

// denseDisjointRef extracts, without steady-state allocation, the route set
// the protocol layer purifies over: the primary path followed by up to k−1
// further paths, each internally vertex-disjoint from all earlier ones
// (endpoints shared), chosen greedily by best end-to-end transmissivity
// (Dijkstra on −log η) over the remaining graph. Semantically identical to
// clone-and-delete extraction with Dijkstra + PathTo — the scalar
// reference in qntn/oracletest pins this: blocking interior vertices here
// replaces deleting their incident edges there, and a consumed direct
// src–dst edge is skipped rather than removed.
type denseDisjointRef struct {
	dij          denseDijkstraRef
	cost         CostFunc
	blocked      []bool
	arena        []string
	paths        [][]string
	src, dst     int
	skipA, skipB int
}

// Extract returns the disjoint route set for the given primary path: the
// primary itself first, then up to k−1 disjoint alternatives in greedy
// order. The returned slices are valid only until the next Extract call on
// the same scratch. k ≤ 1 returns just the primary.
func (s *denseDisjointRef) Extract(g *denseGraph, primary []string, k int) ([][]string, error) {
	if len(primary) < 2 {
		return nil, fmt.Errorf("routing: disjoint extraction needs a path, got %d nodes", len(primary))
	}
	if s.cost == nil {
		s.cost = NegLogEtaCost(0)
	}
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
		s.dij.run(g, s.src, s.cost, s.blocked, s.skipA, s.skipB)
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
func (s *denseDisjointRef) block(g *denseGraph, path []string) error {
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
