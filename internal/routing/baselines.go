package routing

import (
	"fmt"
	"math"
)

// CostFunc maps an edge transmissivity to an additive cost. All costs must
// be positive.
type CostFunc func(eta float64) float64

// InverseEtaCost returns the paper's cost function 1/(η+ε).
func InverseEtaCost(epsilon float64) CostFunc {
	if epsilon <= 0 {
		epsilon = DefaultEpsilon
	}
	return func(eta float64) float64 { return CostFromEta(eta, epsilon) }
}

// NegLogEtaCost returns −log(η) with η clamped to [ε, 1]. Minimizing its
// sum maximizes the product of transmissivities, i.e. finds the true best
// end-to-end transmissivity path. Used as the optimal baseline in the
// routing-metric ablation.
func NegLogEtaCost(epsilon float64) CostFunc {
	if epsilon <= 0 {
		epsilon = DefaultEpsilon
	}
	return func(eta float64) float64 {
		if eta < epsilon {
			eta = epsilon
		} else if eta > 1 {
			eta = 1
		}
		return -math.Log(eta)
	}
}

// HopCountCost charges 1 per edge regardless of transmissivity.
func HopCountCost() CostFunc {
	return func(float64) float64 { return 1 }
}

// SingleSourceResult holds distances and predecessors from one source.
type SingleSourceResult struct {
	Source string
	Dist   map[string]float64
	Prev   map[string]string
}

// ClassicBellmanFord runs the textbook single-source Bellman-Ford with the
// given cost function. It serves as a correctness oracle for the paper's
// distance-vector Algorithm 1.
func ClassicBellmanFord(g *Graph, src string, cost CostFunc) (*SingleSourceResult, error) {
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
			for _, e := range g.rows[u] {
				v := int(e.to)
				c := cost(e.eta)
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

// Dijkstra runs the standard priority-queue Dijkstra with the given cost
// function.
func Dijkstra(g *Graph, src string, cost CostFunc) (*SingleSourceResult, error) {
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
	pq := make(nodeHeap, 0, n)
	pq.push(heapItem{node: si, dist: 0})
	for len(pq) > 0 {
		u := pq.pop().node
		if done[u] {
			continue
		}
		done[u] = true
		for _, e := range g.rows[u] {
			v := int(e.to)
			c := cost(e.eta)
			if c < 0 {
				return nil, fmt.Errorf("routing: negative edge cost %g", c)
			}
			if dist[u]+c < dist[v] {
				dist[v] = dist[u] + c
				prev[v] = u
				pq.push(heapItem{node: v, dist: dist[v]})
			}
		}
	}
	return g.packResult(src, dist, prev), nil
}

func (g *Graph) packResult(src string, dist []float64, prev []int) *SingleSourceResult {
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

// PathTo reconstructs the path from the result's source to dst.
func (r *SingleSourceResult) PathTo(dst string) ([]string, error) {
	d, ok := r.Dist[dst]
	if !ok {
		return nil, fmt.Errorf("routing: unknown destination %q", dst)
	}
	if math.IsInf(d, 1) {
		return nil, fmt.Errorf("routing: %s unreachable from %s", dst, r.Source)
	}
	var rev []string
	for cur := dst; ; {
		rev = append(rev, cur)
		if cur == r.Source {
			break
		}
		next, ok := r.Prev[cur]
		if !ok {
			return nil, fmt.Errorf("routing: broken predecessor chain at %q", cur)
		}
		if len(rev) > len(r.Dist) {
			return nil, fmt.Errorf("routing: predecessor cycle")
		}
		cur = next
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, nil
}

// BestTransmissivityPath returns the path from src to dst with maximal
// end-to-end transmissivity (Dijkstra over −log η weights) along with that
// transmissivity.
func BestTransmissivityPath(g *Graph, src, dst string) ([]string, float64, error) {
	res, err := Dijkstra(g, src, NegLogEtaCost(0))
	if err != nil {
		return nil, 0, err
	}
	path, err := res.PathTo(dst)
	if err != nil {
		return nil, 0, err
	}
	eta, err := g.PathEta(path)
	if err != nil {
		return nil, 0, err
	}
	return path, eta, nil
}

type heapItem struct {
	node int
	dist float64
}

// nodeHeap is a binary min-heap on dist with container/heap's exact sift
// arithmetic, so pop order — and with it which equal-cost predecessor wins
// a tie — is what heap.Push and heap.Pop would give, without boxing every
// pushed item in an interface.
type nodeHeap []heapItem

// push appends and sifts up (heap.Push: append, then up(n−1)).
//
//qntn:hotpath heap insertion inside every Dijkstra relaxation loop
func (h *nodeHeap) push(it heapItem) {
	//qntn:coldpath amortized growth: callers reuse or pre-size the heap
	*h = append(*h, it)
	q := *h
	j := len(q) - 1
	for {
		i := (j - 1) / 2
		if i == j || !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

// pop removes the minimum (heap.Pop: swap(0, n−1), down(0, n−1), then pop
// the tail).
func (h *nodeHeap) pop() heapItem {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && q[j2].dist < q[j1].dist {
			j = j2
		}
		if !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	it := q[n]
	*h = q[:n]
	return it
}
