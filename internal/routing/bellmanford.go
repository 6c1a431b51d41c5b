package routing

import (
	"fmt"
	"math"
)

// DefaultEpsilon is the small positive ε of the paper's 1/(η+ε) cost
// metric, preventing division by zero on η = 0 edges.
const DefaultEpsilon = 1e-6

// CostFromEta converts a transmissivity into the paper's additive routing
// cost 1/(η+ε). Larger transmissivity means smaller cost.
func CostFromEta(eta, epsilon float64) float64 {
	return 1 / (eta + epsilon)
}

// Tables holds the converged routing table of every node: for each (node,
// destination) pair the minimal total cost and the Algorithm 1 Via waypoint
// needed to reconstruct the path. Storage is dense (one cost and one
// waypoint index per pair), matching the dense Graph it is computed from.
type Tables struct {
	Epsilon float64

	ids   []string
	index map[string]int
	n     int
	// cost[i*n+j] is node i's converged cost to reach j; via holds the
	// Algorithm 1 waypoint (-1 none, j itself for direct edges).
	cost []float64
	via  []int32
}

// BellmanFordScratch is the reusable workspace of the Algorithm 1 solver.
// Run converges the tables for a graph, reusing the buffers of previous
// runs; the returned Tables alias the scratch and are valid only until the
// next Run on the same scratch. The zero value is ready to use. A scratch
// must not be shared between goroutines.
type BellmanFordScratch struct {
	t Tables
	// Flattened neighbor lists of the current graph: node u's neighbors
	// are nbrs[off[u]:off[u+1]], ascending.
	nbrs []int32
	off  []int32
	// Connected components of the current graph: comp[u] is u's component
	// and component c's members, ascending, are
	// members[compOff[c]:compOff[c+1]]. queue is the labelling BFS queue.
	comp    []int32
	members []int32
	compOff []int32
	queue   []int32
	// rounds is the number of relaxation rounds the last Run executed
	// before converging (early exit included).
	rounds int
}

// Rounds reports how many relaxation rounds the last Run executed. Exposed
// for telemetry: convergence speed is a direct measure of topology diameter
// and routing cost per snapshot.
func (s *BellmanFordScratch) Rounds() int { return s.rounds }

// BellmanFord runs the paper's Algorithm 1 on the graph: every node
// initializes a table with cost 0 to itself, 1/(η+ε) to adjacent nodes and
// +Inf elsewhere, then relaxation rounds over the graph edges update the
// tables until a round improves nothing (at most N−1 rounds). Tables are
// updated in place, so a row reads entries improved earlier in the same
// round (Gauss–Seidel order) and sparse snapshots converge in a few rounds.
// Callers converging tables for many topology snapshots should allocate a
// BellmanFordScratch and call Run instead.
func BellmanFord(g *Graph, epsilon float64) *Tables {
	return new(BellmanFordScratch).Run(g, epsilon)
}

// Run converges the Algorithm 1 tables for g, reusing the scratch buffers:
// in-place (Gauss–Seidel) relaxation rounds, each restricted to the
// connected components, until a round improves nothing or N−1 rounds have
// run. The result is valid until the next Run call on the same scratch.
func (s *BellmanFordScratch) Run(g *Graph, epsilon float64) *Tables {
	if epsilon <= 0 {
		epsilon = DefaultEpsilon
	}
	t := &s.t
	t.Epsilon = epsilon
	s.rounds = 0
	n := g.NumNodes()
	s.setIDs(g.ids)
	if n == 0 {
		return t
	}
	if cap(t.cost) >= n*n {
		t.cost = t.cost[:n*n]
		t.via = t.via[:n*n]
	} else {
		t.cost = make([]float64, n*n)
		t.via = make([]int32, n*n)
	}

	// Flatten the (ascending) neighbor lists once for deterministic,
	// allocation-free iteration during the update rounds. Every undirected
	// edge appears in both endpoints' lists.
	if cap(s.nbrs) >= 2*g.NumEdges() {
		s.nbrs = s.nbrs[:0]
	} else {
		s.nbrs = make([]int32, 0, 2*g.NumEdges())
	}
	if cap(s.off) >= n+1 {
		s.off = s.off[:1]
	} else {
		s.off = make([]int32, 1, n+1)
	}
	s.off[0] = 0
	for u := 0; u < n; u++ {
		if u < g.matN {
			row := g.mat[u*g.matN : (u+1)*g.matN]
			for v, eta := range row {
				if eta >= 0 {
					s.nbrs = append(s.nbrs, int32(v))
				}
			}
		}
		s.off = append(s.off, int32(len(s.nbrs)))
	}

	if cap(s.comp) >= n {
		s.comp, s.members, s.queue = s.comp[:n], s.members[:n], s.queue[:n]
		s.compOff = s.compOff[:n+1]
	} else {
		s.comp, s.members, s.queue = make([]int32, n), make([]int32, n), make([]int32, n)
		s.compOff = make([]int32, n+1)
	}
	s.labelComponents()

	s.initialize(g, epsilon)

	// Up to N−1 rounds of UPDATE (Algorithm 1), with early exit once a
	// round improves nothing.
	for round := 0; round < n-1; round++ {
		s.rounds = round + 1
		if !s.relax() {
			break
		}
	}
	return t
}

// initialize seeds the tables per Algorithm 1's INITIALIZE: cost 0 to
// self, 1/(η+ε) to adjacent nodes, +Inf elsewhere. Buffers are sized by
// Run before the call.
//
//qntn:hotpath runs on every converged snapshot; buffers are pre-sized
func (s *BellmanFordScratch) initialize(g *Graph, epsilon float64) {
	t := &s.t
	n := t.n
	inf := math.Inf(1)
	for i := 0; i < n; i++ {
		row := t.cost[i*n : (i+1)*n]
		vrow := t.via[i*n : (i+1)*n]
		var arow []float64
		if i < g.matN {
			arow = g.mat[i*g.matN : (i+1)*g.matN]
		}
		for j := 0; j < n; j++ {
			switch {
			case i == j:
				row[j] = 0
				vrow[j] = -1
			case j < len(arow) && arow[j] >= 0:
				row[j] = CostFromEta(arow[j], epsilon)
				vrow[j] = int32(j)
			default:
				row[j] = inf
				vrow[j] = -1
			}
		}
	}
}

// labelComponents labels the connected components of the flattened
// neighbor lists: components are numbered by their smallest member and
// each one's members are listed in ascending order. Buffers are sized by
// Run before the call.
//
//qntn:hotpath runs on every converged snapshot; buffers are pre-sized
func (s *BellmanFordScratch) labelComponents() {
	for i := range s.comp {
		s.comp[i] = -1
	}
	// Breadth-first search from each unlabelled node in ascending order;
	// compOff[c+1] is compOff[c] plus the size of component c.
	s.compOff[0] = 0
	nc := 0
	for seed := range s.comp {
		if s.comp[seed] >= 0 {
			continue
		}
		c := int32(nc)
		s.comp[seed] = c
		s.queue[0] = int32(seed)
		head, tail := 0, 1
		for head < tail {
			u := s.queue[head]
			head++
			for _, v := range s.nbrs[s.off[u]:s.off[u+1]] {
				if s.comp[v] < 0 {
					s.comp[v] = c
					s.queue[tail] = v
					tail++
				}
			}
		}
		s.compOff[nc+1] = s.compOff[nc] + int32(tail)
		nc++
	}
	s.compOff = s.compOff[:nc+1]
	// Place the nodes in ascending order into their components' slots;
	// queue[c] is the next free slot of component c.
	copy(s.queue[:nc], s.compOff[:nc])
	for u, c := range s.comp {
		s.members[s.queue[c]] = int32(u)
		s.queue[c]++
	}
}

// relax runs one UPDATE round of Algorithm 1 — for every node i and every
// edge (u, v), try reaching u through v using v's table — and reports
// whether any table entry improved. Entries are updated in place, so later
// rows of the same round read earlier rows' improvements (Gauss–Seidel
// order). Each row visits only u in its own connected component: for u
// outside it, every neighbor v is outside it too, row[v] is +Inf, and the
// candidate can never beat row[u]. Skipping those u leaves every effective
// update, and so the tables and the round count, unchanged; rows of
// singleton components have nothing to relax at all.
//
//qntn:hotpath the O(N·E) inner loop of every routing convergence
func (s *BellmanFordScratch) relax() bool {
	t := &s.t
	n := t.n
	changed := false
	for i := 0; i < n; i++ {
		c := s.comp[i]
		members := s.members[s.compOff[c]:s.compOff[c+1]]
		if len(members) == 1 {
			continue
		}
		row := t.cost[i*n : (i+1)*n]
		vrow := t.via[i*n : (i+1)*n]
		for _, m := range members {
			u := int(m)
			if u == i {
				continue
			}
			for _, v := range s.nbrs[s.off[u]:s.off[u+1]] {
				if int(v) == i {
					// Reaching u directly as our neighbor was already
					// seeded in INITIALIZE.
					continue
				}
				cand := row[v] + t.cost[int(v)*n+u]
				if cand < row[u] {
					row[u] = cand
					vrow[u] = v
					changed = true
				}
			}
		}
	}
	return changed
}

// setIDs refreshes the scratch tables' node labels from the graph, reusing
// the previous labels and index map when they already match (the common
// case when one scratch serves consecutive snapshots of a fixed node set).
func (s *BellmanFordScratch) setIDs(ids []string) {
	t := &s.t
	t.n = len(ids)
	same := len(t.ids) == len(ids)
	if same {
		for i, id := range ids {
			if t.ids[i] != id {
				same = false
				break
			}
		}
	}
	if same {
		return
	}
	t.ids = append(t.ids[:0], ids...)
	if t.index == nil {
		t.index = make(map[string]int, len(ids))
	} else {
		clear(t.index)
	}
	for i, id := range t.ids {
		t.index[id] = i
	}
}

// Cost returns the converged cost from src to dst.
func (t *Tables) Cost(src, dst string) (float64, error) {
	si, ok := t.index[src]
	if !ok {
		return 0, fmt.Errorf("routing: unknown source %q", src)
	}
	di, ok := t.index[dst]
	if !ok {
		return 0, fmt.Errorf("routing: unknown destination %q", dst)
	}
	return t.cost[si*t.n+di], nil
}

// Path reconstructs the minimum-cost path from src to dst. Algorithm 1
// stores, for each destination, a Via waypoint: either the destination
// itself (direct edge, as seeded by INITIALIZE) or an intermediate node v
// such that cost(src→dst) = cost(src→v) + cost(v→dst) with both legs
// resolved by the converged tables. Reconstruction therefore expands
// waypoints recursively. Returns an error if dst is unreachable.
func (t *Tables) Path(src, dst string) ([]string, error) {
	si, ok := t.index[src]
	if !ok {
		return nil, fmt.Errorf("routing: unknown source %q", src)
	}
	di, ok := t.index[dst]
	if !ok {
		return nil, fmt.Errorf("routing: unknown destination %q", dst)
	}
	budget := 4 * t.n // recursion guard
	path, err := t.expand(si, di, &budget)
	if err != nil {
		return nil, err
	}
	return path, nil
}

func (t *Tables) expand(src, dst int, budget *int) ([]string, error) {
	if *budget <= 0 {
		return nil, fmt.Errorf("routing: path expansion exceeded budget (cycle in tables?)")
	}
	*budget--
	if src == dst {
		return []string{t.ids[src]}, nil
	}
	if math.IsInf(t.cost[src*t.n+dst], 1) {
		return nil, fmt.Errorf("routing: %s unreachable from %s", t.ids[dst], t.ids[src])
	}
	via := t.via[src*t.n+dst]
	if via < 0 {
		return nil, fmt.Errorf("routing: missing waypoint for %s -> %s", t.ids[src], t.ids[dst])
	}
	if int(via) == dst {
		return []string{t.ids[src], t.ids[dst]}, nil
	}
	first, err := t.expand(src, int(via), budget)
	if err != nil {
		return nil, err
	}
	second, err := t.expand(int(via), dst, budget)
	if err != nil {
		return nil, err
	}
	return append(first, second[1:]...), nil
}

// Reachable reports whether dst has finite cost from src.
func (t *Tables) Reachable(src, dst string) bool {
	c, err := t.Cost(src, dst)
	return err == nil && !math.IsInf(c, 1)
}
